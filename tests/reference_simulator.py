"""A reference for `Simulator.run`: every step a full `dynamics.step`, its
`instantaneous_power`, one `drain` per pack and `record` into the ledger,
the way the Simulator booked steps before it kept its own booking
constants. The differential tests in test_simulator.py compare its bytes
with the Simulator's. `is_steady` tells a steady step from two states.
"""

from __future__ import annotations

import struct
from dataclasses import replace

from flydrive import dynamics
from flydrive.dynamics import ControlSetpoint, Mode, SimState
from flydrive.energy import Battery, BatteryProtectionError, EnergyLedger, drain
from flydrive.simulator import SimResult, Simulator, instantaneous_power


_pack_motion = struct.Struct("16d").pack


def _motion_bits(s: SimState) -> bytes | None:
    """The fields a steady step keeps, packed (packed doubles tell 0.0 from
    -0.0, which == does not); None in flight and transition."""
    if s.mode not in (Mode.GROUND, Mode.INCLINE, Mode.WALL):
        return None
    return _pack_motion(*s.velocity, *s.quaternion, *s.angular_velocity,
                        *s.rotor_commands, s.tilt_front_deg, s.tilt_rear_deg)


def is_steady(before: SimState, after: SimState) -> bool:
    """True when `after = step(before, ...)` is a ground, incline or wall step
    that changed nothing but the time and the position, bit for bit; until
    the setpoint or the surface changes, each further `step` is steady too."""
    bits = _motion_bits(after)
    return (bits is not None and bits == _motion_bits(before)
            and after.mode is before.mode and after.contact == before.contact)


def _trace_row(state: SimState, power_w: float) -> str:
    values = (state.time_s, *state.position, *state.velocity, *state.quaternion,
              state.tilt_front_deg, state.tilt_rear_deg, *state.rotor_commands)
    return ",".join(map(repr, values)) + f",{state.mode.value},{power_w!r}\n"


def record(ledger: EnergyLedger, dt_s: float, power_w: float, mode: str,
           battery: Battery | None = None) -> None:
    """Book `power_w` over `dt_s` under `mode`, and the Ah under `battery`
    when it draws more than 0 W."""
    wh = power_w * dt_s / 3600.0
    ledger.per_mode_wh[mode] = ledger.per_mode_wh.get(mode, 0.0) + wh
    if battery is not None and power_w > 0:
        ah = power_w * dt_s / (battery.nominal_voltage * 3600.0)
        key = battery.battery_id
        ledger.per_battery_ah[key] = ledger.per_battery_ah.get(key, 0.0) + ah


def reference_run(sim: Simulator, initial_state, surface, script, duration_s) -> SimResult:
    """`sim.run(initial_state, surface, script, duration_s)`, one full step
    at a time; drains `sim.batteries` the same way."""
    if duration_s < 0:
        raise ValueError("duration must be >= 0")
    script = sorted(script, key=lambda ev: ev.t_s)
    state = initial_state
    setpoint = ControlSetpoint(mode=state.mode)
    schedule = None
    ledger = EnergyLedger()
    events: list[dict] = []

    def log(kind: str, detail: str) -> None:
        events.append({"t_s": state.time_s, "kind": kind, "detail": detail})

    model, payload, dt = sim.power_model, sim.payload, sim.dt_s
    rows = [_trace_row(state, instantaneous_power(model, state, surface, payload, schedule))]
    n_steps = int(round(duration_s / dt))
    next_event = 0
    faulted, fault_reason = False, None
    packs = [b for b in sim.batteries if b.is_propulsion]
    n_packs = max(1, len(packs))
    electronics = next((b for b in sim.batteries if not b.is_propulsion), None)
    avionics_w = sim.avionics_power_w
    for i in range(n_steps):
        while next_event < len(script) and script[next_event].t_s <= state.time_s + 1e-12:
            ev = script[next_event]
            next_event += 1
            if ev.setpoint is not None:
                setpoint = ev.setpoint
            if ev.transition_to is not None:
                try:
                    schedule = dynamics.mode_transition(
                        state, ev.transition_to, surface=surface, params=sim.params
                    )
                    state = dynamics.begin_transition(state)
                    log("transition_started", ev.transition_to.value)
                except dynamics.TransitionEnvelopeError as exc:
                    log("transition_rejected", str(exc))
        previous = state
        try:
            state = dynamics.step(state, setpoint, surface, dt, sim.params, sim.rotor,
                                  sim.gains, payload, schedule)
            if previous.mode == Mode.TRANSITION and state.mode != Mode.TRANSITION:
                log("transition_complete", state.mode.value)
                setpoint = replace(setpoint, mode=state.mode)
                schedule = None
            power = instantaneous_power(model, state, surface, payload, schedule)
        except (dynamics.TipEvent, dynamics.DetachEvent, dynamics.SimulationFault) as exc:
            state = previous
            faulted, fault_reason = True, str(exc)
            log(type(exc).__name__.lower(), fault_reason)
            break
        record(ledger, dt, power, state.mode.value)
        power_per_pack = power / n_packs
        for pack in packs:
            try:
                pack_events = drain(pack, power_per_pack, dt)
            except BatteryProtectionError as exc:
                faulted, fault_reason = True, str(exc)
                break
            key = pack.battery_id
            ledger.per_battery_ah[key] = (ledger.per_battery_ah.get(key, 0.0)
                                          + power_per_pack * dt / (pack.nominal_voltage * 3600.0))
            for pe in pack_events:
                log("battery_protection", pe.battery_id)
                faulted, fault_reason = True, f"battery {pe.battery_id} protection tripped"
        if electronics is not None:
            try:
                elec_events = drain(electronics, avionics_w, dt)
            except BatteryProtectionError as exc:
                faulted, fault_reason = True, str(exc)
            else:
                record(ledger, dt, avionics_w, "avionics", electronics)
                for pe in elec_events:
                    log("battery_protection", pe.battery_id)
                    faulted, fault_reason = True, f"battery {pe.battery_id} protection tripped"
        if faulted:
            break
        if (i + 1) % sim.trace_decimation == 0:
            rows.append(_trace_row(state, power))
    return SimResult(final_state=state, rows=rows, ledger=ledger, events=events,
                     faulted=faulted, fault_reason=fault_reason)
