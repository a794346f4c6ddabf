"""Script-driven simulation runs: timed setpoints and mode changes in, a
trajectory trace plus an energy ledger out.

Power accounting uses the calibrated per-mode model rather than summing the
rotor curve, so a simulated mission can be compared one-to-one with planner
predictions. Traces are written with repr() floats; two runs of the same
script produce byte-identical files.

Every step is booked one way, through constants built once per run
(`_Books`): each pack's SoC and Ah divisors and trip floor, and what the
avionics draw per step. `Simulator.run` takes every step through its mode's
`dynamics.step_law` over plain floats, a stretch at a time: within a
stretch the mode, setpoint, surface and tilt schedule hold. It prices each
step with what the stretch keeps fixed bound once (`_stretch_power`), adds
its increments to running sums held in local floats (the mode's and the
avionics Wh, each pack's SoC and Ah), which go back to the ledger and the
packs when the stretch ends, and writes its trace row from the floats; it
builds a `SimState` only at a script event, at the end of a transition, at
a fault and at the end of the run. `_Books.book` takes only the steps that
trip a pack or are refused: one that would bring a pack to its floor, one
whose propulsion draw is below 0 W, and every step of a run that starts
with a tripped pack. The avionics draw is refused when the `Simulator` is
built unless it is finite and >= 0. Once the speed, yaw rate and
yaw that a ground, incline or wall step read come back bit for bit after
it (`dynamics.repeats`), every further step computes the same, so each
only adds the increments of the one before to time, position and the same
sums, and after each such step one jump takes those that follow
(`_steady_stretch`): while a float's sums stay inside one binade, where
floats are evenly spaced, each addition rounds to the same whole number of
spacings, so one exact addition gives the bits of j of them. A step no
jump can take goes through the law. Either way each increment is the
expression the booking oracle `tests/reference_simulator.drain` computes
and its `record` adds, in the same order, so every sum keeps its bits. The
step that ends a transition is booked in the mode it enters and ends its
stretch. A step that would detach from a wall, or leave the state or its
power non-finite, ends the run with that fault, logged at the state before
it; an initial state whose power is not finite ends it before any row.
Per step at dt 1 ms, booking and trace included, flight costs about 5 us,
a turn 5.5 us and a transition 3 us (medians of nine best-of-five runs on
a shared 2-core x86_64 host, Python 3.11.7).

A library call keeps the trace rows in `SimResult.rows`, a list.
`flydrive simulate` passes `Simulator.run` an open file instead, and the
rows stream to it in chunks of `_TRACE_CHUNK_ROWS` (`_TraceSink`), so a
run's memory does not grow with its length: the full-pack drive at dt 1 ms
writes 1.15M rows, 200 MB, and peaks at 17.5 MB (279 MB while it kept
them, on the host above). Either way `SimResult.write_trace` puts the same
bytes at its path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import TextIO

from . import dynamics
from .dynamics import (
    CONTACT,
    MODE,
    POSITION,
    QUATERNION,
    SPEED,
    TILT_FRONT,
    TILT_REAR,
    TIME,
    TRACE,
    VELOCITY,
    YAW_RATE,
    ControlSetpoint,
    Mode,
    SimState,
    SurfaceModel,
    TiltSchedule,
    exact_run,
    finite_power,
    first_holding,
)
from .defaults import AVIONICS_POWER_W
from .energy import Battery, EnergyLedger, PowerModel, UnknownPayloadError
from .fields import FieldError

TRACE_HEADER = (
    "time_s", "x_m", "y_m", "z_m", "vx_mps", "vy_mps", "vz_mps",
    "qw", "qx", "qy", "qz", "tilt_front_deg", "tilt_rear_deg",
    "cmd_fl", "cmd_fr", "cmd_rl", "cmd_rr", "mode", "power_w",
)
_HEADER_LINE = ",".join(TRACE_HEADER) + "\n"

HOVER_SPEED_THRESHOLD_MPS = 0.5  # below this, flight power is hover power
_TRACE_CHUNK_ROWS = 256  # rows a streamed trace holds before it writes them out


@dataclass(frozen=True)
class ScriptEvent:
    """One timed command: change the setpoint and/or request a transition."""

    t_s: float
    setpoint: ControlSetpoint | None = None
    transition_to: Mode | None = None

    def __post_init__(self):
        if not 0.0 <= self.t_s < math.inf:  # NaN fails too, and would never fire
            raise FieldError("t_s", "must be finite and >= 0")


class _TraceSink:
    """The trace rows of a run streamed to an open text file: the header at
    once, then the rows in chunks of `_TRACE_CHUNK_ROWS`. `len` counts every
    row appended; `place` writes the rest, closes the file and renames it."""

    def __init__(self, fh: TextIO):
        fh.write(_HEADER_LINE)
        self.fh, self.chunk, self.n_written = fh, [], 0

    def append(self, row: str) -> None:
        chunk = self.chunk
        chunk.append(row)
        if len(chunk) == _TRACE_CHUNK_ROWS:
            self.fh.writelines(chunk)
            self.n_written += _TRACE_CHUNK_ROWS
            chunk.clear()

    def __len__(self) -> int:
        return self.n_written + len(self.chunk)

    def place(self, path) -> None:
        fh = self.fh
        fh.writelines(self.chunk)
        self.n_written += len(self.chunk)
        self.chunk.clear()
        fh.close()
        os.replace(fh.name, path)


@dataclass
class SimResult:
    final_state: SimState
    rows: list[str] | _TraceSink  # one CSV line per trace row, newline included
    ledger: EnergyLedger
    events: list
    faulted: bool = False
    fault_reason: str | None = None

    def write_trace(self, path) -> None:
        """Put the trace CSV at path. A run streamed to a trace file writes
        its last rows there, closes it and renames it to path."""
        if isinstance(self.rows, _TraceSink):
            self.rows.place(path)
            return
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_HEADER_LINE)
            fh.writelines(self.rows)


class _Books:
    """The booking constants of one run: each propulsion pack with its id,
    its SoC and Ah divisors (a pack's energy and nominal voltage are fixed)
    and its trip floor; the electronics pack, its floor, and the SoC, Ah and
    Wh the avionics draw each step; the ledger's dicts and the run's events.

    A stretch books its steps into local floats, the running sums `sums`
    reads and `put` writes back: the mode's and the avionics Wh and each
    pack's SoC and Ah, in `slots` order. `book` takes the steps those floats
    leave to it, and alone decides trips, refusals and negative draws: a
    step that would bring a pack to its floor or draws below 0 W for
    propulsion, and every step of a run that starts with a tripped pack.
    An avionics draw of exactly 0 W books its avionics Wh in the sums
    and, as `book` does, no Ah and no SoC. Each SoC decrement is the
    expression the oracle `tests/reference_simulator.drain` computes, and
    each Wh and Ah increment is power * dt / 3600 (over the nominal voltage
    for Ah), added in the same order as by a loop that calls `drain` for
    every step, so every sum keeps its bits.
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
        d_soc_e = d_ah_e = 0.0
        floor_e = -math.inf  # no pack, or a zero draw, which books its Wh alone, as `book` does
        if e is not None:
            self.avionics_soc = d_soc_e = avionics_w * dt / (e.pack_energy_wh * 3600.0)
            self.avionics_floor = e.protection_soc
            self.avionics_ah = d_ah_e = avionics_w * dt / (e.nominal_voltage * 3600.0)
            if avionics_w > 0.0:
                floor_e = e.protection_soc
        if any(b.tripped for b in batteries):
            floor_e = math.inf  # so `book` takes every step, and refuses those that draw
        # the slots of the local sums: two propulsion packs, each with its SoC
        # divisor, trip floor and Ah divisor, then the electronics pack with
        # the SoC decrement, floor and Ah increment of a step; a missing pack
        # (None) never trips and adds 0
        slots = [(b, soc_divisor, floor, ah_divisor)
                 for b, _, soc_divisor, floor, ah_divisor in self.packs]
        slots += [(None, math.inf, -math.inf, math.inf)] * (2 - len(slots))
        slots.append((e if avionics_w != 0.0 else None, d_soc_e, floor_e, d_ah_e))
        self.slot_packs = [b for b, *_ in slots]
        self.slots = [slot[1:] for slot in slots]

    def sums(self, name: str) -> tuple:
        """The running sums a step in mode `name` adds to: that mode's Wh,
        the avionics Wh, then the SoC and Ah of each pack in `slots` order
        (0.0 for a missing pack)."""
        per_battery_ah = self.per_battery_ah
        sums = [self.per_mode_wh.get(name, 0.0), self.per_mode_wh.get("avionics", 0.0)]
        for b in self.slot_packs:
            sums += (0.0, 0.0) if b is None else (b.soc, per_battery_ah.get(b.battery_id, 0.0))
        return tuple(sums)

    def put(self, name: str, sums: tuple) -> None:
        """Write back the `sums` of the steps in mode `name` booked locally
        since they were read."""
        self.per_mode_wh[name] = sums[0]
        if self.electronics is not None:
            self.per_mode_wh["avionics"] = sums[1]
        for b, soc, ah in zip(self.slot_packs, sums[2::2], sums[3::2]):
            if b is not None:
                b.soc, self.per_battery_ah[b.battery_id] = soc, ah

    def book(self, power: float, mode: str, t_s: float) -> str | None:
        """Book the step to `t_s` drawing `power` W in `mode`: drain every
        pack as `drain` would, add to the ledger and log each trip at `t_s`.
        Returns the fault that ends the run, if any; a negative propulsion
        draw raises ValueError."""
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
                    self.log(t_s, "battery_protection", battery_id)
                    fault = f"battery {battery_id} protection tripped"
                else:
                    pack.soc = soc
            per_battery_ah[battery_id] = (  # booked even at 0 W
                per_battery_ah.get(battery_id, 0.0) + share * dt / ah_divisor
            )
        e, avionics_w = self.electronics, self.avionics_w
        if e is None:
            return fault
        if avionics_w > 0.0 and e.tripped:
            return f"battery {e.battery_id} is below its protection threshold"
        per_mode_wh["avionics"] = per_mode_wh.get("avionics", 0.0) + self.avionics_wh
        if avionics_w == 0.0:
            return fault
        per_battery_ah[e.battery_id] = per_battery_ah.get(e.battery_id, 0.0) + self.avionics_ah
        soc = e.soc - self.avionics_soc
        if soc <= self.avionics_floor:
            # an avionics brownout ends the run like a propulsion trip
            e.soc, e.tripped = self.avionics_floor, True
            self.log(t_s, "battery_protection", e.battery_id)
            return f"battery {e.battery_id} protection tripped"
        e.soc = soc
        return fault

    def log(self, t_s: float, kind: str, detail: str) -> None:
        self.events.append({"t_s": t_s, "kind": kind, "detail": detail})

    def fault(self, t_s: float, exc: Exception) -> str:
        """Log the fault `exc` (a tip, a detach or a SimulationFault) that
        ends the run at `t_s`; return its reason."""
        reason = str(exc)
        self.log(t_s, type(exc).__name__.lower(), reason)
        return reason


class Simulator:
    """Owns the physical context and marches scripts through time: the
    vehicle and its rotors are the power model's (`PowerModel.params` and
    `PowerModel.rotor`), so the step laws and the pricing see one vehicle."""

    def __init__(
        self,
        power_model: PowerModel,
        batteries: list[Battery] | None = None,
        *,
        payload: float = 0.0,
        avionics_power_w: float = AVIONICS_POWER_W,
        dt_s: float = 0.001,
        trace_decimation: int = 10,
    ):
        dynamics.check_dt(dt_s)
        if type(trace_decimation) is not int or trace_decimation < 1:  # a float fails range()
            raise FieldError("trace_decimation", "must be an integer >= 1")
        if not 0.0 <= avionics_power_w < math.inf:  # NaN included
            raise FieldError("avionics_power_w", "must be finite and >= 0")
        self.batteries = batteries if batteries is not None else []
        if len({b.battery_id for b in self.batteries}) < len(self.batteries):
            raise ValueError("battery ids must be unique: the ledger books Ah by id")
        self.power_model = power_model
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
        trace: TextIO | None = None,
    ) -> SimResult:
        """Run the script from `initial_state` for `duration_s`. The trace
        rows go to `SimResult.rows`, a list, or with `trace`, an open text
        file, to that file in chunks; `SimResult.write_trace` then puts
        the file in place. A duration of more steps than a float counts,
        or a yaw-rate loop unstable at the step, raises a FieldError before
        the file gets a row."""
        dt = self.dt_s
        if not 0.0 <= duration_s < math.inf:  # NaN included
            raise FieldError("duration_s", "must be finite and >= 0")
        if math.isinf(duration_s / dt):
            raise FieldError("duration_s", f"{duration_s} s is too many steps of {dt} s to count")
        # the ground yaw-rate loop integrates explicitly: past this gain per
        # step each correction overshoots by more than the error it corrects
        model, payload = self.power_model, self.payload
        params, rotor = model.params, model.rotor
        kp_yaw, inertia = dynamics.KP_YAW_RATE, params.yaw_inertia
        if not kp_yaw * dt / inertia < 2.0:
            raise FieldError("yaw_inertia", f"{inertia} kg m^2 makes the yaw-rate loop unstable "
                                            f"at dt_s {dt} s; it must exceed "
                                            f"{kp_yaw * dt / 2.0:.3g} kg m^2")
        script = sorted(script, key=lambda ev: ev.t_s)
        state = initial_state
        setpoint = ControlSetpoint(mode=state.mode)
        schedule: TiltSchedule | None = None
        ledger = EnergyLedger()
        events: list[dict] = []
        rows = [] if trace is None else _TraceSink(trace)
        books = _Books(self.batteries, self.avionics_power_w, dt, ledger, events)
        n_steps = int(round(duration_s / dt))
        next_event = 0
        fault_reason = None
        cause = None  # the last event that set the setpoint or started a transition
        floats = dynamics.floats_of(state, surface)
        try:
            power = _stretch_power(model, surface, payload, schedule, floats)(floats)
        except OverflowError:
            power = math.inf
        try:
            rows.append(_row(floats, finite_power(power, state.mode)))
        except dynamics.SimulationFault as exc:  # ends the run as at any later step
            fault_reason, n_steps = books.fault(state.time_s, exc), 0

        i = 0
        while i < n_steps:
            while next_event < len(script) and script[next_event].t_s <= state.time_s + 1e-12:
                ev = script[next_event]
                next_event += 1
                if ev.setpoint is not None:
                    setpoint, cause = ev.setpoint, ev
                if ev.transition_to is not None:
                    try:
                        schedule = dynamics.mode_transition(
                            state, ev.transition_to, surface=surface, params=params
                        )
                        state, cause = dynamics.begin_transition(state), ev
                        books.log(state.time_s, "transition_started", ev.transition_to.value)
                    except dynamics.TransitionEnvelopeError as exc:
                        books.log(state.time_s, "transition_rejected", str(exc))
            t_event = script[next_event].t_s if next_event < len(script) else math.inf
            try:
                advance = dynamics.step_law(state, setpoint, surface, dt, params, rotor, payload,
                                            schedule)
            except (dynamics.TipEvent, dynamics.DetachEvent, dynamics.SimulationFault) as exc:
                fault_reason = books.fault(state.time_s, exc)
                break
            except dynamics.FlightTargetError as exc:
                exc.event = cause
                raise
            floats = dynamics.floats_of(state, surface)
            law = advance, floats, _stretch_power(model, surface, payload, schedule, floats)
            k, floats, fault_reason = self._stretch(law, i, n_steps, t_event, books, rows)
            if k > i:
                i, state = k, dynamics.state_of(floats)
            if fault_reason is not None:
                break
            if schedule is not None and state.mode is not Mode.TRANSITION:  # the tilt ended
                setpoint, schedule = replace(setpoint, mode=state.mode), None
        return SimResult(
            final_state=state,
            rows=rows,
            ledger=ledger,
            events=events,
            faulted=fault_reason is not None,
            fault_reason=fault_reason,
        )

    def _stretch(self, law, i, end, t_event, books, rows):
        """Take steps i, i + 1, ... through `law` (the `dynamics.step_law`
        of a state, its floats and `_stretch_power`) over plain floats;
        return the index and the floats of the step after them, and the
        fault that ends the run, if any. Each step is booked into the local
        sums of `books` (written back when the stretch ends, however it
        ends) and traced from the floats; a step that would bring a pack to
        its floor, draws below 0 W, or that the local sums do not take at
        all, is booked by `_Books.book`. After each step after which the
        speed, yaw rate and yaw it read come back bit for bit
        (`dynamics.repeats`), `_steady_stretch` takes one jump.

        Stops before the first step that would consume the script event at
        `t_event`, and at step `end`. Ends the run after a step that trips
        a pack, and before one that detaches from a wall or leaves the state
        or its power non-finite, logging that fault at the last finite
        floats. The step that ends a transition logs `transition_complete`
        before it is booked (in its new mode), and is the last of the
        stretch.
        """
        advance, f, power_of = law
        dt, decimation, inf = self.dt_s, self.trace_decimation, math.inf
        mode = f[MODE]
        name = mode.value
        moving = slice(POSITION.start, QUATERNION.stop)  # checked for finiteness with the yaw rate
        n_packs, d_avionics = books.n_packs, books.avionics_wh
        (soc_a, floor_a, ah_a), (soc_b, floor_b, ah_b), (d_soc_e, floor_e, d_ah_e) = books.slots
        wh, wh_avionics, sa, aa, sb, ab, se, ae = books.sums(name)
        k = synced = i  # the books hold every step before `synced`, the sums the rest
        try:
            # CPython 3.11 specializes a function's bytecode after a few calls or
            # unconditional backward jumps; a `while <test>:` loop closes with a
            # conditional one, so a long stretch taken in one call would run
            # generic bytecode throughout
            while True:
                if k >= end or t_event <= f[TIME] + 1e-12:
                    return k, f, None
                try:
                    g = advance(f)
                    if not -inf < sum(g[moving], g[YAW_RATE]) < inf:  # the sum may overflow alone
                        dynamics.check_finite((*g[moving], g[YAW_RATE]))
                    ends = g[MODE] is not mode  # the step that ends a transition
                    if ends:
                        if synced < k:
                            books.put(name, (wh, wh_avionics, sa, aa, sb, ab, se, ae))
                        name, synced = g[MODE].value, k
                        wh, wh_avionics, sa, aa, sb, ab, se, ae = books.sums(name)
                        books.log(g[TIME], "transition_complete", name)
                    try:
                        power = power_of(g)
                    except OverflowError:
                        power = inf
                    if not -inf < power < inf:
                        finite_power(power, g[MODE])  # raises the fault
                except (dynamics.DetachEvent, dynamics.SimulationFault) as exc:
                    return k, f, books.fault(f[TIME], exc)
                k += 1
                share = power / n_packs
                q = share * dt
                na, nb, ne = sa - q / soc_a, sb - q / soc_b, se - d_soc_e
                if share >= 0.0 and na > floor_a and nb > floor_b and ne > floor_e:
                    wh += power * dt / 3600.0
                    wh_avionics += d_avionics
                    sa, sb, se = na, nb, ne
                    aa += q / ah_a
                    ab += q / ah_b
                    ae += d_ah_e
                else:  # a trip, a refusal or a negative draw: `book` decides
                    if synced < k - 1:
                        books.put(name, (wh, wh_avionics, sa, aa, sb, ab, se, ae))
                    synced = k
                    fault = books.book(power, name, g[TIME])
                    if fault is not None:
                        return k, g, fault
                    wh, wh_avionics, sa, aa, sb, ab, se, ae = books.sums(name)
                if k % decimation == 0:
                    rows.append(_row(g, power))
                if ends:
                    return k, g, None
                if g[SPEED] == f[SPEED] and dynamics.repeats(f, g):
                    k, g, (wh, wh_avionics, sa, aa, sb, ab, se, ae) = self._steady_stretch(
                        g, power, k, end, t_event, books, rows,
                        (wh, wh_avionics, sa, aa, sb, ab, se, ae))
                f = g
        finally:
            if synced < k:
                books.put(name, (wh, wh_avionics, sa, aa, sb, ab, se, ae))

    def _steady_stretch(self, f, power, i, end, t_event, books, rows, sums):
        """One jump of `_stretch` from the floats f of a step that drew
        `power`, after which the speed, yaw rate and yaw it read came back
        bit for bit (`dynamics.repeats`), with its local `sums`: each step
        only adds the increments of the one before to time, position and the
        sums. Returns the index and floats of the step after it, and the sums.

        The jump is as long as every float allows (`exact_run`), cut at `end`,
        at the first step that meets the script event at `t_event` and one
        step before the first that would bring a pack to its floor (each
        test is monotone in the jump's length, so bisection finds it). Its
        floats and trace rows get the bits that one step at a time gives. It
        may be empty: `_stretch`'s law step then takes the step, bit for bit.
        """
        dt, decimation, t = self.dt_s, self.trace_decimation, f[TIME]
        if t_event <= t + 1e-12:  # the event is due: `_stretch` takes it
            return i, f, sums
        (soc_a, floor_a, ah_a), (soc_b, floor_b, ah_b), (d_soc_e, floor_e, d_ah_e) = books.slots
        q = power / books.n_packs * dt
        (vx, vy, vz), moved = f[VELOCITY], VELOCITY.start  # the trace columns after the position
        # time, position and the sums, and what each step adds to them: a wall
        # step keeps x and y (adding -0.0 keeps any float's bits), and a SoC
        # falls by its decrement (a - d is a + -d, bit for bit)
        floats = [t, *f[POSITION], *sums]
        adds = (dt, *((vx * dt, vy * dt) if f[MODE] is not Mode.WALL else (-0.0, -0.0)), vz * dt,
                power * dt / 3600.0, books.avionics_wh,
                -(q / soc_a), q / ah_a, -(q / soc_b), q / ah_b, -d_soc_e, d_ah_e)
        n, steps = end - i, []
        for a, d in zip(floats, adds):
            n, s = exact_run(a, d, n)
            steps.append(s)
        jt, jx, jy, jz = steps[:4]
        if n and t_event <= t + n * jt + 1e-12:  # the jump ends at the step that meets it
            n = first_holding(n, lambda j: t_event <= t + j * jt + 1e-12)

        def refused(j):  # whether step j of the jump would bring a pack to its floor
            return any(floats[s] + j * steps[s] <= floor
                       for s, floor in ((6, floor_a), (8, floor_b), (10, floor_e)))

        if n and refused(n):
            n = first_holding(n, refused) - 1
        if not n:
            return i, f, sums
        x, y, z = f[POSITION]
        tail = "," + ",".join(map(repr, f[moved:TRACE.stop])) + f",{f[MODE].value},{power!r}\n"
        for r in range(decimation - i % decimation, n + 1, decimation):
            rows.append(f"{t + r * jt!r},{x + r * jx!r},{y + r * jy!r},{z + r * jz!r}{tail}")
        floats = [a + n * s for a, s in zip(floats, steps)]
        return i + n, (*floats[:4], *f[moved:]), tuple(floats[4:])


def _stretch_power(model: PowerModel, surface: SurfaceModel, payload: float,
                   schedule: TiltSchedule | None, f):
    """The power (W) of each state that a `dynamics.step_law` from floats f
    steps to, as a function of that state's floats, with what such a
    stretch keeps fixed priced once; raises where that pricing fails, but
    for a missing flight calibration, which only a cruising step needs. The
    step that ends a transition is priced as a state of its new mode with
    no schedule, when it is taken."""
    mode = f[MODE]
    if mode in (Mode.GROUND, Mode.INCLINE):
        # the hold follows the surface, as the ground law's climb does
        price = model.drive_power_at(surface.slope_deg if surface.kind == "incline" else None,
                                     payload)
        return lambda g: price(abs(g[SPEED]))
    if mode == Mode.FLIGHT:
        hover, weight = model.hover_power_w, model.params.total_mass(payload) * model.params.gravity
        try:
            cruise = model.flight_power(payload)
        except UnknownPayloadError:
            cruise = None  # a hover needs no flight calibration: the first cruise raises

        def flight_power(g):
            vx, vy, vz = g[VELOCITY]
            if math.hypot(vx, vy) < HOVER_SPEED_THRESHOLD_MPS:
                power = hover
            else:
                power = cruise if cruise is not None else model.flight_power(payload)
            return power + weight * max(0.0, vz)

        return flight_power
    if mode == Mode.WALL:
        power = model.wall_power(0.5 * (f[TILT_FRONT] + f[TILT_REAR]), payload)
    elif mode == Mode.TRANSITION:
        # tilting through a flight configuration means the rotors carry the
        # vehicle; a tilt swap on the ground is nearly free
        airborne = schedule is not None and (
            schedule.target_mode == Mode.FLIGHT or not any(f[CONTACT]))
        power = model.hover_power_w if airborne else 0.0

        def entered(g):  # the step that ends the tilt is priced in the mode it enters
            try:
                return _stretch_power(model, surface, payload, None, g)(g)
            except UnknownPayloadError:
                raise
            except ValueError as exc:  # a wall it cannot climb, a slope it cannot hold
                raise dynamics.SimulationFault(
                    f"cannot enter {g[MODE].value} mode: {exc}") from None

        return lambda g: power if g[MODE] is mode else entered(g)
    else:
        raise ValueError(f"unknown mode {mode}")
    return lambda g: power


def _row(f, power_w: float) -> str:
    """The trace row of step-law floats f drawing `power_w` W."""
    return ",".join(map(repr, f[TRACE])) + f",{f[MODE].value},{power_w!r}\n"
