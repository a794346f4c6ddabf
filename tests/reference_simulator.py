"""A reference for `Simulator.run`: every step a full `step`, its
`instantaneous_power`, one `drain` per pack and `record` into the ledger,
the way the Simulator booked steps before it kept its own booking
constants. The differential tests in test_simulator.py compare its bytes
with the Simulator's. `is_steady` tells a steady step from two states.

`step` is the per-step `SimState` stepper: one `dynamics.step_law` step
from a state to a state. `instantaneous_power` prices a state from
`PowerModel`'s public prices alone, not through the Simulator's stretch
pricer, so a differential test compares two pricings.

`drain` and `record` are the booking oracle: the SoC, Ah and Wh arithmetic
of `simulator._Books` must match theirs bit for bit. test_energy.py holds
their own tests.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

from flydrive import dynamics
from flydrive.dynamics import ControlSetpoint, ControllerGains, Mode, SimState, SimulationFault
from flydrive.energy import Battery, EnergyLedger
from flydrive.simulator import HOVER_SPEED_THRESHOLD_MPS, SimResult, Simulator


class BatteryProtectionError(RuntimeError):
    """Drain attempted on a battery whose protection already tripped."""


@dataclass(frozen=True)
class ProtectionEvent:
    battery_id: str
    soc: float


def drain(battery: Battery, power_w: float, dt_s: float) -> list[ProtectionEvent]:
    """Discharge a battery by power_w over dt_s seconds.

    Returns the protection events raised by this call (at most one). Draining
    an already-tripped battery is refused.
    """
    if power_w < 0:
        raise ValueError("power must be >= 0")
    if dt_s < 0:
        raise ValueError("dt must be >= 0")
    if battery.tripped and power_w > 0:
        raise BatteryProtectionError(
            f"battery {battery.battery_id} is below its protection threshold"
        )
    if power_w == 0 or dt_s == 0:
        return []
    new_soc = battery.soc - power_w * dt_s / (battery.pack_energy_wh * 3600.0)
    floor = battery.protection_soc
    if new_soc <= floor:
        battery.soc = floor
        battery.tripped = True
        return [ProtectionEvent(battery.battery_id, floor)]
    battery.soc = new_soc
    return []


def step(state, setpoint, surface, dt_s, params, rotor, gains=None, payload=0.0,
         schedule=None) -> SimState:
    """One control and integration step from `state`: build its
    `dynamics.step_law`, take one step and build the state. A step that
    detaches from a wall, or leaves the state not finite, raises carrying
    `state`."""
    dynamics.check_dt(dt_s)
    advance = dynamics.step_law(state, setpoint, surface, dt_s, params, rotor,
                                gains or ControllerGains(), payload, schedule)
    try:
        f = advance(dynamics.floats_of(state, surface))
    except dynamics.DetachEvent as exc:
        exc.state = state
        raise
    new = dynamics.state_of(f)
    if not all(map(math.isfinite, (*new.position, *new.velocity, *new.quaternion,
                                   *new.angular_velocity))):
        raise SimulationFault("non-finite value in integration step", state)
    return new


def instantaneous_power(model, state, surface, payload=0.0, schedule=None) -> float:
    """Electrical propulsion power of `state`, W: the drive power at the
    speed a ground or incline step reads; in flight the hover power below
    the hover speed, else the cruise power, plus the power to climb; the
    wall power at the mean tilt; the hover power through a tilt that flies
    or has no wheel contact, else 0 W. A power that overflows or is not
    finite raises SimulationFault carrying the state."""
    mode, params = state.mode, model.params
    try:
        if mode in (Mode.GROUND, Mode.INCLINE):
            speed = dynamics.floats_of(state, surface)[dynamics.SPEED]
            slope = surface.slope_deg if surface.kind == "incline" else None
            power = model.drive_power_at(slope, payload)(abs(speed))
        elif mode == Mode.FLIGHT:
            vx, vy, vz = state.velocity
            level = (model.hover_power_w if math.hypot(vx, vy) < HOVER_SPEED_THRESHOLD_MPS
                     else model.flight_power(payload))
            power = level + params.total_mass(payload) * params.gravity * max(0.0, vz)
        elif mode == Mode.WALL:
            power = model.wall_power(0.5 * (state.tilt_front_deg + state.tilt_rear_deg), payload)
        else:
            airborne = schedule is not None and (
                schedule.target_mode == Mode.FLIGHT or not any(state.contact))
            power = model.hover_power_w if airborne else 0.0
    except OverflowError:
        power = math.inf
    if not math.isfinite(power):
        raise SimulationFault(f"non-finite power {power} W in {mode.value} mode", state)
    return power


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
            state = step(state, setpoint, surface, dt, sim.params, sim.rotor, sim.gains,
                         payload, schedule)
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
