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
that draws below 0 W, and every step of a run that starts with a tripped
pack or with an avionics draw not above 0 W. Once a ground, incline or wall
step repeats the one before bit for bit but for time and position
(`dynamics.repeats`), each further step only adds the increments of the one
before to time, position and the same sums, and those steps are taken in
jumps (`_steady_stretch`): while a float's sums stay inside one binade,
where floats are evenly spaced, each addition rounds to the same whole
number of spacings, so j of them add exactly j times that, and one exact
addition gives the bits of j. Either way each increment is the expression
the booking oracle `tests/reference_simulator.drain` computes and its
`record` adds, in the same order, so every sum keeps its bits. The step
that ends a transition is booked in the mode it enters and ends its
stretch. A step that would detach from a wall,
or leave the state or its power non-finite, ends the run with that fault,
logged at the state before it. Per step at dt 1 ms, booking and trace
included, flight costs about 5 us, a turn 5.5 us and a transition 3 us
(medians of nine best-of-five runs on a shared 2-core x86_64 host,
Python 3.11.7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    ControllerGains,
    Mode,
    SimState,
    SurfaceModel,
    TiltSchedule,
    exact_run,
    finite_power,
    first_holding,
)
from .energy import Battery, EnergyLedger, PowerModel, UnknownPayloadError
from .fields import FieldError
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

    def __post_init__(self):
        if not 0.0 <= self.t_s < math.inf:  # NaN fails too, and would never fire
            raise FieldError("t_s", "must be finite and >= 0")


@dataclass
class SimResult:
    final_state: SimState
    rows: list  # one CSV line per trace row, newline included
    ledger: EnergyLedger
    events: list
    faulted: bool = False
    fault_reason: str | None = None

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
    floats = dynamics.floats_of(state, surface)
    try:
        power = _stretch_power(model, surface, payload, schedule, floats)(floats)
    except OverflowError:
        power = math.inf
    return finite_power(power, state.mode, state)


class _Books:
    """The booking constants of one run: each propulsion pack with its id,
    its SoC and Ah divisors (a pack's energy and nominal voltage are fixed)
    and its trip floor; the electronics pack, its floor, and the SoC, Ah and
    Wh the avionics draw each step; the ledger's dicts and the run's events.

    A stretch books its steps into local floats, the running sums `sums`
    reads and `put` writes back: the mode's and the avionics Wh and each
    pack's SoC and Ah, in `slots` order. `book` takes the steps those floats
    leave to it, and alone decides trips, refusals and negative draws. Each
    SoC decrement is the expression the oracle
    `tests/reference_simulator.drain` computes, and each Wh and Ah increment
    is power * dt / 3600 (over the nominal voltage for Ah), added in the
    same order as by a loop that calls `drain` for every step, so every sum
    keeps its bits.
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
        floor_e = -math.inf
        if e is not None:
            self.avionics_soc = d_soc_e = avionics_w * dt / (e.pack_energy_wh * 3600.0)
            self.avionics_floor = floor_e = e.protection_soc
            self.avionics_ah = d_ah_e = avionics_w * dt / (e.nominal_voltage * 3600.0)
            if not avionics_w > 0.0:
                floor_e = math.inf  # such a draw books no Ah: no SoC is above this floor
        if any(b.tripped for b in batteries):
            floor_e = math.inf  # so `book` takes every step, and refuses those that draw
        # the slots of the local sums: two propulsion packs, each with its SoC
        # divisor, trip floor and Ah divisor, then the electronics pack with
        # the SoC decrement, floor and Ah increment of a step; a missing pack
        # (None) never trips and adds 0
        slots = [(b, soc_divisor, floor, ah_divisor)
                 for b, _, soc_divisor, floor, ah_divisor in self.packs]
        slots += [(None, math.inf, -math.inf, math.inf)] * (2 - len(slots))
        slots.append((e, d_soc_e, floor_e, d_ah_e))
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
        model, payload, dt = self.power_model, self.payload, self.dt_s
        params, rotor, gains = self.params, self.rotor, self.gains
        rows = [_row(dynamics.floats_of(state, surface),
                     instantaneous_power(model, state, surface, payload, schedule))]
        n_steps = int(round(duration_s / dt))
        next_event = 0
        fault_reason = None
        books = _Books(self.batteries, self.avionics_power_w, dt, ledger, events)
        cause = None  # the last event that set the setpoint or started a transition

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
                advance = dynamics.step_law(state, setpoint, surface, dt, params, rotor, gains,
                                            payload, schedule)
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
        all, is booked by `_Books.book`. From a step that repeats the one
        before (`dynamics.repeats`), `_steady_stretch` takes the steps that
        follow.

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
            while True:  # closed by an unconditional jump: see `_steady_stretch`
                if k >= end or t_event <= f[TIME] + 1e-12:
                    return k, f, None
                try:
                    g = advance(f)
                    if not -inf < sum(g[moving], g[YAW_RATE]) < inf:  # the sum may overflow alone
                        dynamics.check_finite((*g[moving], g[YAW_RATE]), None)
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
                        finite_power(power, g[MODE], None)  # raises the fault
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
        """`_stretch` from the floats f of a step that repeated the one
        before and drew `power`, with its local `sums`: each further step
        only adds the increments of the step before to time, position and
        the sums. Returns the index and the floats of the step after them,
        and the sums. Stops before a step that would bring a pack to its
        floor, and takes none where the sums leave every step to
        `_Books.book`.

        The steps go in jumps as long as every float allows (`exact_run`), cut
        at `end`, at the first step that meets the script event at `t_event`
        and before the first that would bring a pack to its floor (each
        test is monotone in the jump's length, so bisection finds it); the
        trace rows inside a jump come from the same closed form. Where a
        float allows no jump, one step is added plainly. Either way every
        float gets the bits that adding one step at a time gives.
        """
        dt, decimation = self.dt_s, self.trace_decimation
        (soc_a, floor_a, ah_a), (soc_b, floor_b, ah_b), (d_soc_e, floor_e, d_ah_e) = books.slots
        q = power / books.n_packs * dt
        name = f[MODE].value
        (vx, vy, vz), moved = f[VELOCITY], VELOCITY.start  # the trace columns after the position
        tail = "," + ",".join(map(repr, f[moved:TRACE.stop])) + f",{name},{power!r}\n"
        # time, position and the sums, and what each step adds to them: a wall
        # step keeps x and y (adding -0.0 keeps any float's bits), and a SoC
        # falls by its decrement (a - d is a + -d, bit for bit)
        floats = [f[TIME], *f[POSITION], *sums]
        adds = (dt, *((vx * dt, vy * dt) if f[MODE] is not Mode.WALL else (-0.0, -0.0)), vz * dt,
                power * dt / 3600.0, books.avionics_wh,
                -(q / soc_a), q / ah_a, -(q / soc_b), q / ah_b, -d_soc_e, d_ah_e)
        socs = ((6, floor_a), (8, floor_b), (10, floor_e))  # each SoC's place and floor
        k = i
        # CPython 3.11 specializes a function's bytecode after a few calls or
        # unconditional backward jumps; a `while <test>:` loop closes with a
        # conditional one, so a long stretch taken in one call would run
        # generic bytecode throughout
        while True:
            t, x, y, z = floats[:4]
            if k >= end or t_event <= t + 1e-12:
                break
            n, steps = end - k, []
            for a, d in zip(floats, adds):
                n, s = exact_run(a, d, n)
                steps.append(s)
            jt, jx, jy, jz = steps[:4]
            if n and t_event <= t + n * jt + 1e-12:  # the jump ends at the step that meets it
                n = first_holding(n, lambda j: t_event <= t + j * jt + 1e-12)

            def refused(j):  # whether step j of the jump would bring a pack to its floor
                return any(floats[s] + j * steps[s] <= floor for s, floor in socs)

            if n and refused(n):
                n = first_holding(n, refused) - 1
            if n:
                for r in range(decimation - k % decimation, n + 1, decimation):
                    rows.append(f"{t + r * jt!r},{x + r * jx!r},{y + r * jy!r},{z + r * jz!r}{tail}")
                floats = [a + n * s for a, s in zip(floats, steps)]
                k += n
                continue
            g = [a + d for a, d in zip(floats, adds)]  # one plain step
            if not all(map(math.isfinite, g[1:4])) or any(g[s] <= floor for s, floor in socs):
                break
            floats = g
            k += 1
            if k % decimation == 0:
                rows.append(f"{g[0]!r},{g[1]!r},{g[2]!r},{g[3]!r}{tail}")
        if k == i:
            return i, f, sums
        return k, (*floats[:4], *f[moved:]), tuple(floats[4:])


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
        price = model.drive_power_at(surface.slope_deg if mode == Mode.INCLINE else None, payload)
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
        # the step that ends the tilt is priced in the mode it enters
        return lambda g: (power if g[MODE] is mode
                          else _stretch_power(model, surface, payload, None, g)(g))
    else:
        raise ValueError(f"unknown mode {mode}")
    return lambda g: power


def _row(f, power_w: float) -> str:
    """The trace row of step-law floats f drawing `power_w` W."""
    return ",".join(map(repr, f[TRACE])) + f",{f[MODE].value},{power_w!r}\n"
