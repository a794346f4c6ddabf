"""Script-driven simulation runs: timed setpoints and mode changes in, a
trajectory trace plus an energy ledger out.

Power accounting uses the calibrated per-mode model rather than summing the
rotor curve, so a simulated mission can be compared one-to-one with planner
predictions. Traces are written with repr() floats; two runs of the same
script produce byte-identical files.

Once a step is steady (`dynamics.is_steady`), `Simulator.run` takes the
following steps over plain floats: time, position, the mode's Wh and each
pack's SoC and Ah, each advanced by the increment `step`, `drain` or
`record` would add, so every sum keeps its bits. Every other step, such as
one that would consume a script event, trip a pack or leave the position
non-finite, is a full `dynamics.step`.
A drive at 1 m/s until both full packs trip (575k steps at dt 0.02 s) takes
0.7 s with a 30 MB peak, against 7.4 s and 120 MB with a `SimState`, three
`drain` and two `record` calls per step (x86_64, Python 3.11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import dynamics
from .dynamics import (
    ControlSetpoint,
    ControllerGains,
    Mode,
    SimState,
    SurfaceModel,
    TiltSchedule,
)
from .energy import (
    Battery,
    BatteryProtectionError,
    EnergyLedger,
    PowerModel,
    drain,
)
from .vehicle import RotorModel, VehicleParams

TRACE_HEADER = (
    "time_s", "x_m", "y_m", "z_m", "vx_mps", "vy_mps", "vz_mps",
    "qw", "qx", "qy", "qz", "tilt_front_deg", "tilt_rear_deg",
    "cmd_fl", "cmd_fr", "cmd_rl", "cmd_rr", "mode", "power_w",
)
_HEADER_LINE = ",".join(TRACE_HEADER) + "\n"

HOVER_SPEED_THRESHOLD_MPS = 0.5  # below this, flight power is hover power


@dataclass(frozen=True)
class ScriptEvent:
    """One timed command: change the setpoint and/or request a transition."""

    t_s: float
    setpoint: ControlSetpoint | None = None
    transition_to: Mode | None = None


@dataclass
class SimResult:
    final_state: SimState
    rows: list  # one CSV line per trace row, newline included
    ledger: EnergyLedger
    events: list
    faulted: bool = False
    fault_reason: str | None = None

    def trace_csv(self) -> str:
        return _HEADER_LINE + "".join(self.rows)

    def write_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_HEADER_LINE)
            fh.writelines(self.rows)


def instantaneous_power(
    model: PowerModel,
    state: SimState,
    surface: SurfaceModel,
    payload: float = 0.0,
    schedule: TiltSchedule | None = None,
) -> float:
    """Electrical propulsion power for the current state, W."""
    mode = state.mode
    if mode == Mode.GROUND:
        return model.ground_power(abs(dynamics.along_track_speed(state, surface)), payload)
    if mode == Mode.INCLINE:
        v = abs(dynamics.along_track_speed(state, surface))
        return model.incline_power(surface.slope_deg, v, payload)
    if mode == Mode.WALL:
        tilt = 0.5 * (state.tilt_front_deg + state.tilt_rear_deg)
        return model.wall_power(tilt, payload)
    if mode == Mode.FLIGHT:
        vx, vy, vz = state.velocity
        horizontal = math.hypot(vx, vy)
        if horizontal < HOVER_SPEED_THRESHOLD_MPS:
            base = model.hover_power_w
        else:
            base = model.flight_power(payload)
        climb = model.params.total_mass(payload) * model.params.gravity * max(0.0, vz)
        return base + climb
    if mode == Mode.TRANSITION:
        # tilting through a flight configuration means the rotors carry the
        # vehicle; a tilt swap on the ground is nearly free
        airborne = schedule is not None and (
            schedule.target_mode == Mode.FLIGHT or not any(state.contact)
        )
        return model.hover_power_w if airborne else 0.0
    raise ValueError(f"unknown mode {mode}")


class Simulator:
    """Owns the physical context and marches scripts through time."""

    def __init__(
        self,
        params: VehicleParams,
        rotor: RotorModel,
        power_model: PowerModel,
        batteries: list[Battery] | None = None,
        gains: ControllerGains | None = None,
        payload: float = 0.0,
        avionics_power_w: float = 5.0,
        dt_s: float = 0.001,
        trace_decimation: int = 10,
    ):
        if not 0.0 < dt_s <= dynamics.DT_MAX_S:  # the range `dynamics.step` takes
            raise ValueError(f"dt_s {dt_s} outside (0, {dynamics.DT_MAX_S}] s")
        if trace_decimation < 1:
            raise ValueError("trace_decimation must be >= 1")
        self.batteries = batteries if batteries is not None else []
        if len({b.battery_id for b in self.batteries}) < len(self.batteries):
            raise ValueError("battery ids must be unique: the ledger books Ah by id")
        self.params = params
        self.rotor = rotor
        self.power_model = power_model
        self.gains = gains or ControllerGains()
        self.payload = payload
        self.avionics_power_w = avionics_power_w
        self.dt_s = dt_s
        self.trace_decimation = trace_decimation

    def run(
        self,
        initial_state: SimState,
        surface: SurfaceModel,
        script: list[ScriptEvent],
        duration_s: float,
    ) -> SimResult:
        if duration_s < 0:
            raise ValueError("duration must be >= 0")
        script = sorted(script, key=lambda ev: ev.t_s)
        state = initial_state
        setpoint = ControlSetpoint(mode=state.mode)
        schedule: TiltSchedule | None = None
        ledger = EnergyLedger()
        events: list[dict] = []

        def log(kind: str, detail: str) -> None:
            events.append({"t_s": state.time_s, "kind": kind, "detail": detail})

        model, payload, dt = self.power_model, self.payload, self.dt_s
        params, rotor, gains = self.params, self.rotor, self.gains
        rows = [_trace_row(state, instantaneous_power(model, state, surface, payload, schedule))]
        n_steps = int(round(duration_s / dt))
        next_event = 0
        faulted = False
        fault_reason = None
        step, record = dynamics.step, ledger.record
        steady = False  # the last step only moved time and position
        per_battery_ah = ledger.per_battery_ah
        packs = [b for b in self.batteries if b.is_propulsion]
        n_packs = max(1, len(packs))
        # pack, its id, and the W*s -> Ah divisor (nominal voltage is fixed)
        pack_ah = [(p, p.battery_id, p.nominal_voltage * 3600.0) for p in packs]
        electronics = next((b for b in self.batteries if not b.is_propulsion), None)
        avionics_w = self.avionics_power_w

        i = 0
        while i < n_steps:
            if steady:
                t_event = script[next_event].t_s if next_event < len(script) else math.inf
                i, state = self._coast_stretch(state, power, i, n_steps, t_event, ledger, rows)
                if i == n_steps:
                    break
            while next_event < len(script) and script[next_event].t_s <= state.time_s + 1e-12:
                ev = script[next_event]
                next_event += 1
                if ev.setpoint is not None:
                    setpoint = ev.setpoint
                if ev.transition_to is not None:
                    try:
                        schedule = dynamics.mode_transition(
                            state, ev.transition_to, surface=surface, params=params
                        )
                        state = dynamics.begin_transition(state)
                        log("transition_started", ev.transition_to.value)
                    except dynamics.TransitionEnvelopeError as exc:
                        log("transition_rejected", str(exc))
            previous = state
            try:
                state = step(state, setpoint, surface, dt, params, rotor, gains, payload, schedule)
            except (dynamics.TipEvent, dynamics.DetachEvent, dynamics.SimulationFault) as exc:
                faulted, fault_reason = True, str(exc)
                log(type(exc).__name__.lower(), fault_reason)
                break
            if previous.mode == Mode.TRANSITION and state.mode != Mode.TRANSITION:
                log("transition_complete", state.mode.value)
                setpoint = replace(setpoint, mode=state.mode)
                schedule = None
            power = instantaneous_power(model, state, surface, payload, schedule)
            steady = dynamics.is_steady(previous, state)
            record(dt, power, state.mode.value)
            power_per_pack = power / n_packs
            for pack, battery_id, ah_divisor in pack_ah:
                try:
                    pack_events = drain(pack, power_per_pack, dt)
                except BatteryProtectionError as exc:
                    faulted, fault_reason = True, str(exc)
                    break
                per_battery_ah[battery_id] = (
                    per_battery_ah.get(battery_id, 0.0) + power_per_pack * dt / ah_divisor
                )
                for pe in pack_events:
                    log("battery_protection", pe.battery_id)
                    faulted, fault_reason = True, f"battery {pe.battery_id} protection tripped"
            if electronics is not None:
                try:
                    elec_events = drain(electronics, avionics_w, dt)
                except BatteryProtectionError as exc:
                    faulted, fault_reason = True, str(exc)
                else:
                    record(dt, avionics_w, "avionics", electronics)
                    # an avionics brownout ends the run like a propulsion trip
                    for pe in elec_events:
                        log("battery_protection", pe.battery_id)
                        faulted, fault_reason = True, f"battery {pe.battery_id} protection tripped"
            if faulted:
                break
            if (i + 1) % self.trace_decimation == 0:
                rows.append(_trace_row(state, power))
            i += 1
        return SimResult(
            final_state=state,
            rows=rows,
            ledger=ledger,
            events=events,
            faulted=faulted,
            fault_reason=fault_reason,
        )

    def _coast_stretch(self, state, power, i, end, t_event, ledger, rows):
        """Take steady steps i, i + 1, ... over plain floats; return the index
        and the state of the step after them.

        Stops before the first step that would consume the script event at
        `t_event`, bring a pack to its floor or leave the position non-finite,
        and at step `end`: the per-step path takes that step. The steady step
        before drew the same power from the same packs, so no draw here is
        negative or from a tripped pack. Every increment is the expression
        `drain` or `record` computes, added in the same order, so every sum
        keeps its bits.
        """
        packs = [b for b in self.batteries if b.is_propulsion]
        dt, avionics_w = self.dt_s, self.avionics_power_w
        drains = [(p, power / max(1, len(packs))) for p in packs]
        electronics = next((b for b in self.batteries if not b.is_propulsion), None)
        if electronics is not None:
            drains.append((electronics, avionics_w))
        per_mode_wh, per_battery_ah = ledger.per_mode_wh, ledger.per_battery_ah
        # per drain: SoC, its decrement, the trip floor, Ah and its increment;
        # an empty slot never trips
        slots = [(b.soc, w * dt / (b.pack_energy_wh * 3600.0), b.protection_soc,
                  per_battery_ah.get(b.battery_id, 0.0), w * dt / (b.nominal_voltage * 3600.0))
                 for b, w in drains]
        slots += [(0.0, 0.0, -math.inf, 0.0, 0.0)] * (3 - len(slots))
        (sa, da, fa, aa, ia), (sb, db, fb, ab, ib), (se, de, fe, ae, ie) = slots
        mode = state.mode.value
        wh_mode, d_mode = per_mode_wh.get(mode, 0.0), power * dt / 3600.0
        wh_avionics, d_avionics = per_mode_wh.get("avionics", 0.0), avionics_w * dt / 3600.0
        t, (x, y, z), (vx, vy, vz) = state.time_s, state.position, state.velocity
        dx, dy, dz = vx * dt, vy * dt, vz * dt
        moves_xy = state.mode is not Mode.WALL  # a wall step keeps x and y, -0.0 included
        tail, decimation, inf = _row_tail(state, power), self.trace_decimation, math.inf
        nx, ny, k = x, y, i
        while k < end and not t_event <= t + 1e-12:
            if moves_xy:
                nx, ny = x + dx, y + dy
            nz = z + dz
            if not (-inf < nx < inf and -inf < ny < inf and -inf < nz < inf):
                break
            na, nb, ne = sa - da, sb - db, se - de
            if na <= fa or nb <= fb or ne <= fe:
                break
            t += dt
            x, y, z, sa, sb, se = nx, ny, nz, na, nb, ne
            wh_mode += d_mode
            wh_avionics += d_avionics
            aa += ia
            ab += ib
            ae += ie
            k += 1
            if k % decimation == 0:
                rows.append(f"{t!r},{x!r},{y!r},{z!r}{tail}")
        if k == i:
            return i, state
        per_mode_wh[mode] = wh_mode
        if electronics is not None:
            per_mode_wh["avionics"] = wh_avionics
        for (b, w), soc, ah in zip(drains, (sa, sb, se), (aa, ab, ae)):
            b.soc = soc
            if b.is_propulsion or w > 0:  # `record` books no Ah for a zero draw
                per_battery_ah[b.battery_id] = ah
        return k, replace(state, time_s=t, position=(x, y, z))


def _trace_row(state: SimState, power_w: float) -> str:
    return ",".join(map(repr, (state.time_s, *state.position))) + _row_tail(state, power_w)


def _row_tail(state: SimState, power_w: float) -> str:
    """The trace row after z: the columns a coasted step leaves unchanged."""
    values = (*state.velocity, *state.quaternion, state.tilt_front_deg,
              state.tilt_rear_deg, *state.rotor_commands)
    return "," + ",".join(map(repr, values)) + f",{state.mode.value},{power_w!r}\n"
