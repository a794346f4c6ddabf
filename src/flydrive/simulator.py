"""Script-driven simulation runs: timed setpoints and mode changes in, a
trajectory trace plus an energy ledger out.

Power accounting uses the calibrated per-mode model rather than summing the
rotor curve, so a simulated mission can be compared one-to-one with planner
predictions. Traces are written with repr() floats; two runs of the same
script produce byte-identical files.

Every step is booked one way, through constants built once per run
(`_Books`): each pack's SoC and Ah divisors and trip floor, and what the
avionics draw per step. A full `dynamics.step` is booked by `_Books.book`.
When the steps after it are speed-only (`dynamics.speed_only_steps`),
`Simulator.run` takes them over plain floats through the speed law, each
booked by `_Books.book` and traced in full, with no `SimState`; once a step
is steady (it repeats the one before bit for bit), each further step only
adds the increments of the one before to time, position, the mode's Wh and
each pack's SoC and Ah. Either way each increment is the expression `drain`
computes and the ledger adds, in the same order, so every sum keeps its
bits. Every other step, such as one that would consume a script event,
detach from a wall or leave the position non-finite, is a full
`dynamics.step`; a step whose power overflows or is not finite ends the run
with a fault. A drive at 1 m/s until both full packs trip (575k steps at dt
0.02 s) takes 0.7 s with a 30 MB peak, against 7.4 s and 120 MB with a
`SimState`, three `drain` and two ledger calls per step; a speed-only step
costs about half a full step, 7-17 us against 21-30 us on a wall, flat
ground or an incline (x86_64, Python 3.11).
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
from .dynamics import _motion_bits, _steady_bits
from .energy import Battery, EnergyLedger, PowerModel
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
    """Electrical propulsion power for the current state, W. A power that
    overflows or is not finite raises SimulationFault carrying the state."""
    mode = state.mode
    if mode is Mode.GROUND or mode is Mode.INCLINE:
        power = _drive_power(model, mode, surface, dynamics.along_track_speed(state, surface),
                             payload)
        return _finite_power(power, mode, state)
    try:
        if mode == Mode.WALL:
            tilt = 0.5 * (state.tilt_front_deg + state.tilt_rear_deg)
            power = model.wall_power(tilt, payload)
        elif mode == Mode.FLIGHT:
            vx, vy, vz = state.velocity
            if math.hypot(vx, vy) < HOVER_SPEED_THRESHOLD_MPS:
                power = model.hover_power_w
            else:
                power = model.flight_power(payload)
            power += model.params.total_mass(payload) * model.params.gravity * max(0.0, vz)
        elif mode == Mode.TRANSITION:
            # tilting through a flight configuration means the rotors carry the
            # vehicle; a tilt swap on the ground is nearly free
            airborne = schedule is not None and (
                schedule.target_mode == Mode.FLIGHT or not any(state.contact)
            )
            power = model.hover_power_w if airborne else 0.0
        else:
            raise ValueError(f"unknown mode {mode}")
    except OverflowError:
        power = math.inf
    return _finite_power(power, mode, state)


def _drive_power(model: PowerModel, mode: Mode, surface: SurfaceModel, speed: float,
                 payload: float) -> float:
    """Ground or incline power (W) at along-track speed `speed`; inf where
    it overflows."""
    try:
        if mode is Mode.GROUND:
            return model.ground_power(abs(speed), payload)
        return model.incline_power(surface.slope_deg, abs(speed), payload)
    except OverflowError:
        return math.inf


def _finite_power(power: float, mode: Mode, state: SimState | None) -> float:
    """`power`, or SimulationFault carrying `state` where it is not finite."""
    if not -math.inf < power < math.inf:
        raise dynamics.SimulationFault(f"non-finite power {power} W in {mode.value} mode", state)
    return power


class _Books:
    """The booking constants of one run: each propulsion pack with its id,
    its SoC and Ah divisors (a pack's energy and nominal voltage are fixed)
    and its trip floor; the electronics pack, its floor, and the SoC, Ah and
    Wh the avionics draw each step; the ledger's dicts and the run's events.

    `book` books a full or speed-only step, and `Simulator._steady_stretch`
    a stretch of steady steps over floats, both through these constants. Each SoC
    decrement is the expression `drain` computes, and each Wh and Ah
    increment is power * dt / 3600 (over the nominal voltage for Ah), added
    in the same order as by a loop that calls `drain` for every step, so
    every sum keeps its bits.
    """

    def __init__(self, batteries: list[Battery], avionics_w: float, dt: float,
                 ledger: EnergyLedger, events: list):
        self.dt, self.avionics_w, self.avionics_wh = dt, avionics_w, avionics_w * dt / 3600.0
        self.per_mode_wh, self.per_battery_ah = ledger.per_mode_wh, ledger.per_battery_ah
        self.events = events
        self.packs = [(b, b.battery_id, b.pack_energy_wh * 3600.0, b.protection_soc,
                       b.nominal_voltage * 3600.0) for b in batteries if b.is_propulsion]
        self.n_packs = max(1, len(self.packs))
        self.electronics = e = next((b for b in batteries if not b.is_propulsion), None)
        if e is not None:
            self.avionics_soc = avionics_w * dt / (e.pack_energy_wh * 3600.0)
            self.avionics_floor = e.protection_soc
            self.avionics_ah = avionics_w * dt / (e.nominal_voltage * 3600.0)

    def book(self, power: float, mode: str, t_s: float) -> str | None:
        """Book the step to `t_s` drawing `power` W in `mode`: drain every
        pack as `drain` would, add to the ledger and log each trip at `t_s`.
        Returns the fault that ends the run, if any; a negative draw raises
        ValueError."""
        dt, per_mode_wh, per_battery_ah = self.dt, self.per_mode_wh, self.per_battery_ah
        fault = None
        per_mode_wh[mode] = per_mode_wh.get(mode, 0.0) + power * dt / 3600.0
        share = power / self.n_packs
        if share < 0.0 and self.packs:
            raise ValueError("power must be >= 0")
        for pack, battery_id, soc_divisor, floor, ah_divisor in self.packs:
            if share > 0.0:
                if pack.tripped:
                    fault = f"battery {battery_id} is below its protection threshold"
                    break  # and the packs after it are not drained
                soc = pack.soc - share * dt / soc_divisor
                if soc <= floor:
                    pack.soc, pack.tripped = floor, True
                    self._log_trip(t_s, battery_id)
                    fault = f"battery {battery_id} protection tripped"
                else:
                    pack.soc = soc
            per_battery_ah[battery_id] = (  # booked even at 0 W
                per_battery_ah.get(battery_id, 0.0) + share * dt / ah_divisor
            )
        e, avionics_w = self.electronics, self.avionics_w
        if e is None:
            return fault
        if avionics_w < 0.0:
            raise ValueError("power must be >= 0")
        if avionics_w > 0.0 and e.tripped:
            return f"battery {e.battery_id} is below its protection threshold"
        per_mode_wh["avionics"] = per_mode_wh.get("avionics", 0.0) + self.avionics_wh
        if avionics_w == 0.0:
            return fault
        if avionics_w > 0.0:  # as in `record`: a NaN draw books no Ah
            per_battery_ah[e.battery_id] = per_battery_ah.get(e.battery_id, 0.0) + self.avionics_ah
        soc = e.soc - self.avionics_soc
        if soc <= self.avionics_floor:
            # an avionics brownout ends the run like a propulsion trip
            e.soc, e.tripped = self.avionics_floor, True
            self._log_trip(t_s, e.battery_id)
            return f"battery {e.battery_id} protection tripped"
        e.soc = soc
        return fault

    def _log_trip(self, t_s: float, battery_id: str) -> None:
        self.events.append({"t_s": t_s, "kind": "battery_protection", "detail": battery_id})


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
        dynamics.check_dt(dt_s)
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
        fault_reason = None
        step = dynamics.step
        books = _Books(self.batteries, self.avionics_power_w, dt, ledger, events)
        steady = False  # the last step only moved time and position
        speed = None  # else `dynamics.speed_only_steps` of `state`, if any
        bits = _motion_bits(state)  # of `state`, carried so each state is packed once

        i = 0
        while i < n_steps:
            if steady or speed is not None:
                t_event = script[next_event].t_s if next_event < len(script) else math.inf
                i, state, fault_reason = self._coast_stretch(state, power, i, n_steps, t_event,
                                                             books, rows, speed, surface)
                if fault_reason is not None or i == n_steps:
                    break
                bits = _motion_bits(state)
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
                        state, bits = dynamics.begin_transition(state), None
                        log("transition_started", ev.transition_to.value)
                    except dynamics.TransitionEnvelopeError as exc:
                        log("transition_rejected", str(exc))
            previous, previous_bits = state, bits
            try:
                state = step(state, setpoint, surface, dt, params, rotor, gains, payload, schedule)
                if previous.mode is Mode.TRANSITION and state.mode is not Mode.TRANSITION:
                    log("transition_complete", state.mode.value)
                    setpoint = replace(setpoint, mode=state.mode)
                    schedule = None
                power = instantaneous_power(model, state, surface, payload, schedule)
            except (dynamics.TipEvent, dynamics.DetachEvent, dynamics.SimulationFault) as exc:
                state = previous  # the run ends before the step that faulted
                fault_reason = str(exc)
                log(type(exc).__name__.lower(), fault_reason)
                break
            bits = _motion_bits(state)
            steady = _steady_bits(previous, state, previous_bits, bits)
            fault_reason = books.book(power, state.mode.value, state.time_s)
            if fault_reason is not None:
                break
            if (i + 1) % self.trace_decimation == 0:
                rows.append(_trace_row(state, power))
            i += 1
            speed = None if steady else dynamics.speed_only_steps(
                state, setpoint, surface, dt, params, rotor, gains, payload)
        return SimResult(
            final_state=state,
            rows=rows,
            ledger=ledger,
            events=events,
            faulted=fault_reason is not None,
            fault_reason=fault_reason,
        )

    def _coast_stretch(self, state, power, i, end, t_event, books, rows, speed, surface):
        """Take steps i, i + 1, ... from `state` over plain floats; return the
        index and the state of the step after them, and the fault that ends
        the run (a pack trip), if any.

        With `speed` (`dynamics.speed_only_steps` of `state`), each step
        first goes through the speed law, is booked by `_Books.book` and
        traced in full, until one returns the velocity and rotor commands it
        started from bit for bit. From that steady step on, or from the start
        without `speed`, each step only moves time and position and repeats
        the increments of the step before: that step drew the same power from
        the same packs, so no draw is negative or from a tripped pack, and
        every increment is the one `_Books.book` adds, in the same order, so
        every sum keeps its bits.

        Stops before the first step that would consume the script event at
        `t_event` or leave the position or velocity non-finite, and at step
        `end`; while the speed changes, also before a step that would detach
        from a wall or whose power is not finite, and after one that trips a
        pack; once steady, before a step that would bring a pack to its floor.
        The per-step path takes the step it stopped before.
        """
        if speed is None:
            return self._steady_stretch(state, power, i, end, t_event, books, rows)
        dt, decimation, inf = self.dt_s, self.trace_decimation, math.inf
        advance, v, quaternion = speed
        mode, tilts = state.mode, (state.tilt_front_deg, state.tilt_rear_deg)
        moves_xy = mode is not Mode.WALL  # a wall step keeps x and y, -0.0 included
        fixed = ",".join(map(repr, (*quaternion, *tilts)))
        model, payload, name = self.power_model, self.payload, mode.value
        t, (x, y, z) = state.time_s, state.position
        velocity, commands = state.velocity, state.rotor_commands
        k, fault, steady = i, None, False
        while k < end and not t_event <= t + 1e-12:
            try:
                v_next, new_velocity, new_commands = advance(v)
            except dynamics.DetachEvent:
                break
            vx, vy, vz = new_velocity
            nx, ny = (x + vx * dt, y + vy * dt) if moves_xy else (x, y)
            nz = z + vz * dt
            if moves_xy:  # a wall step draws the same power at any speed
                power = _drive_power(model, mode, surface, v_next, payload)
            if not (-inf < nx < inf and -inf < ny < inf and -inf < nz < inf and -inf < vx < inf
                    and -inf < vy < inf and -inf < vz < inf and -inf < power < inf):
                break
            t += dt
            x, y, z = nx, ny, nz
            steady = dynamics._repeats(new_velocity, new_commands, velocity, commands)
            v, velocity, commands = v_next, new_velocity, new_commands
            k += 1
            fault = books.book(power, name, t)
            if fault is not None:
                break
            if k % decimation == 0:
                rows.append(f"{t!r},{x!r},{y!r},{z!r},{vx!r},{vy!r},{vz!r},{fixed},"
                            f"{','.join(map(repr, commands))},{name},{power!r}\n")
            if steady:
                break
        if k > i:
            state = SimState(t, (x, y, z), velocity, quaternion, (0.0, 0.0, 0.0), *tilts,
                             commands, mode, (True, True, True, True))
        if fault is not None or not steady:
            return k, state, fault
        return self._steady_stretch(state, power, k, end, t_event, books, rows)

    def _steady_stretch(self, state, power, i, end, t_event, books, rows):
        """`_coast_stretch` from a steady `state` whose step drew `power`."""
        dt, decimation, inf = self.dt_s, self.trace_decimation, math.inf
        moves_xy = state.mode is not Mode.WALL  # a wall step keeps x and y, -0.0 included
        # per pack: SoC, its decrement, the trip floor, Ah and its increment;
        # an empty slot never trips
        share, e = power / books.n_packs, books.electronics
        per_mode_wh, per_battery_ah = books.per_mode_wh, books.per_battery_ah
        slots = [(b.soc, share * dt / soc_divisor, floor, per_battery_ah.get(battery_id, 0.0),
                  share * dt / ah_divisor)
                 for b, battery_id, soc_divisor, floor, ah_divisor in books.packs]
        if e is not None:
            slots.append((e.soc, books.avionics_soc, books.avionics_floor,
                          per_battery_ah.get(e.battery_id, 0.0), books.avionics_ah))
        slots += [(0.0, 0.0, -math.inf, 0.0, 0.0)] * (3 - len(slots))
        (sa, da, fa, aa, ia), (sb, db, fb, ab, ib), (se, de, fe, ae, ie) = slots
        name = state.mode.value
        wh_mode, d_mode = per_mode_wh.get(name, 0.0), power * dt / 3600.0
        wh_avionics, d_avionics = per_mode_wh.get("avionics", 0.0), books.avionics_wh
        t, (x, y, z), (vx, vy, vz) = state.time_s, state.position, state.velocity
        dx, dy, dz = vx * dt, vy * dt, vz * dt
        tail = _row_tail(state, power)
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
            return i, state, None
        per_mode_wh[name] = wh_mode
        packs = [b for b, *_ in books.packs]
        if e is not None:
            per_mode_wh["avionics"] = wh_avionics
            packs.append(e)
        for b, soc, ah in zip(packs, (sa, sb, se), (aa, ab, ae)):
            b.soc = soc
            if b is not e or books.avionics_w > 0:  # no Ah is booked for a zero draw
                per_battery_ah[b.battery_id] = ah
        return k, replace(state, time_s=t, position=(x, y, z)), None


def _trace_row(state: SimState, power_w: float) -> str:
    return ",".join(map(repr, (state.time_s, *state.position))) + _row_tail(state, power_w)


def _row_tail(state: SimState, power_w: float) -> str:
    """The trace row after z: the columns a coasted step leaves unchanged."""
    values = (*state.velocity, *state.quaternion, state.tilt_front_deg,
              state.tilt_rear_deg, *state.rotor_commands)
    return "," + ",".join(map(repr, values)) + f",{state.mode.value},{power_w!r}\n"
