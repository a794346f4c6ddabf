"""`Simulator.run` takes every step through the step law of its mode over
plain floats, books it through per-run constants and takes steady stretches
of constant increments in exact jumps. `reference_run` takes every step as
a full `step`, priced by its own `instantaneous_power`, `drain` and
`record`. Both must give the same bytes, and a jump (`exact_run`) the bits
of repeated addition."""

import copy
import hashlib
import math
import os
import random
import struct
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from flydrive import cli, dynamics
from flydrive.defaults import USABLE_FRACTION
from flydrive.dynamics import (
    MODE,
    POSITION,
    TIME,
    VELOCITY,
    ControlSetpoint,
    Mode,
    SurfaceModel,
    initial_flight_state,
    initial_ground_state,
    initial_wall_state,
)
from flydrive.energy import Battery
from flydrive.dynamics import exact_run
from flydrive.simulator import ScriptEvent, Simulator, _Books
import reference_simulator
from reference_simulator import reference_run

FLOOR = 1.0 - USABLE_FRACTION


def _count_books(monkeypatch) -> list:
    """Patch `_Books.book` to log each step it takes into the returned list."""
    calls, real_book = [], _Books.book
    monkeypatch.setattr(_Books, "book", lambda self, *a: calls.append(a) or real_book(self, *a))
    return calls


def _simulate(run, params, rotor, power_model, batteries, state, surface, script, duration,
              **kw):
    """`run(simulator, ...)` on copies of the packs: its result and everything
    it produced, in repr; or the repr of the error it raised and of the packs."""
    sim = Simulator(params, rotor, power_model, batteries=list(map(copy.copy, batteries)), **kw)
    try:
        result = run(sim, state, surface, script, duration)
    except ValueError as exc:
        return None, repr((exc, [(b.battery_id, b.soc, b.tripped) for b in sim.batteries]))
    return result, repr((
        result.final_state, result.rows, result.ledger.to_dict(), result.events,
        result.faulted, result.fault_reason,
        [(b.battery_id, b.soc, b.tripped) for b in sim.batteries],
    ))


def _against_reference(*args, **kw):
    """`_simulate` by `Simulator.run` and by `reference_run`."""
    return _simulate(Simulator.run, *args, **kw), _simulate(reference_run, *args, **kw)


def _assert_same(fast, slow, what="outputs"):
    """Equal reprs, or a failure that quotes where they part (a full diff of
    two long traces takes pytest minutes)."""
    if fast != slow:
        at = len(os.path.commonprefix([fast, slow]))
        pytest.fail(f"{what} part at char {at}: {fast[at - 60:at + 60]!r} "
                    f"vs {slow[at - 60:at + 60]!r}")


def _batteries(rng, low=0.0):
    """Packs from under a second to a minute of driving above their floors,
    or full, and each at the chance `low` at or below its floor but not
    tripped (its first step that draws trips it); sometimes one propulsion
    pack, none, or two packs on one id, which a Simulator refuses; and,
    unless `low` is above 0, sometimes no electronics pack."""
    def pack(bid, cells, capacity):
        soc = rng.choice([1.0, FLOOR + 10 ** rng.uniform(-4.7, -2.7)])
        if low > 0.0 and rng.random() < low:  # no draw at all when `low` is 0
            soc = rng.choice([FLOOR, FLOOR * rng.uniform(0.5, 1.0)])
        return Battery(bid, cells, capacity, soc=soc, usable_fraction=USABLE_FRACTION)
    props = [pack("prop_a", 4, 5.0), pack("prop_b", 4, 5.0)]
    layout = rng.choice(["two", "two", "two", "one", "none", "same_id"])
    if layout == "one":
        props = props[:1]
    elif layout == "none":
        props = []
    elif layout == "same_id":
        props = [props[0], pack("prop_a", 4, 5.0)]
    electronics = [pack("electronics", 2, rng.choice([3.2, 0.3]))]
    if not low:
        electronics = rng.choice([[], electronics])
    return props + electronics


def _random_case(rng, params, standing=False):
    """A ground, incline, wall or flight start, its surface, script,
    duration, dt, payload and gains. Setpoints change while the speed still
    settles, stop the vehicle (static friction holds it), reverse it, and
    turn it and stop turning; the wall sometimes holds on so lightly that it
    detaches as the climb settles. A flight flies to waypoints, sometimes
    from a take-off, and sometimes lands and drives on, turning. With
    `standing`, a start on flat ground that stands still, at 0 W for
    propulsion, until the second setpoint."""
    kind = "flat" if standing else rng.choice(["flat", "incline", "wall", "flight", "takeoff"])
    payload = rng.choice([0.0, rng.uniform(0.0, 1.3)])
    dt = rng.choice([0.001, 0.002, 0.005, dynamics.DT_MAX_S,
                     rng.uniform(0.001, dynamics.DT_MAX_S)])
    gains = dynamics.ControllerGains()
    if kind in ("flight", "takeoff"):
        return _random_flight(rng, params, kind == "takeoff", dt, payload, gains)
    if kind == "wall":
        surface = SurfaceModel(kind="wall")
        state = initial_wall_state(params, height_m=rng.uniform(0.0, 5.0))
        state = replace(state, position=(-0.0, rng.choice([0.0, -0.0]), state.position[2]))
        speeds = [0.0, 0.0, rng.uniform(-0.5, 0.5), rng.uniform(0.1, 0.5),
                  -rng.uniform(0.1, 0.5)]
        if rng.random() < 0.3:
            # a settled climb presses too lightly on the wall to stay on, the
            # first steps of a climb from rest hard enough
            gains = replace(gains, attach_normal_fraction=1.1)
    else:
        surface = SurfaceModel(
            kind=kind,
            slope_deg=rng.uniform(5.0, 25.0) if kind == "incline" else 0.0,
            rolling_resistance=rng.choice([None, rng.uniform(0.01, 0.2)]),
            lateral_friction=rng.choice([None, rng.uniform(0.2, 0.9)]),
        )
        state = initial_ground_state(params, surface, heading_deg=rng.uniform(-180.0, 180.0),
                                     position_xy=(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)))
        speeds = [0.0, rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0), -rng.uniform(0.5, 4.0)]
    duration = rng.uniform(2.0, 12.0) if dt < 0.005 else rng.uniform(10.0, 60.0)
    script, t, yaw = [], 0.0, 0.0
    while t < duration:
        # a turn, right or left, settles; the next setpoint stops it turning
        yaw = (rng.choice([0.0, 0.0, 0.0, rng.uniform(-0.5, 0.5)])
               if kind == "flat" and yaw == 0.0 else 0.0)
        setpoint = ControlSetpoint(mode=state.mode, speed_mps=rng.choice(speeds),
                                   yaw_rate_radps=yaw)
        script.append(ScriptEvent(t, setpoint=setpoint))
        # some events land on a step, some between two; some come while the
        # speed still settles (within about 4 s)
        t += rng.choice([rng.uniform(0.5, duration / 2), round(rng.uniform(0.5, 4.0), 1),
                         rng.uniform(0.05, 2.0)])
    if rng.random() < 0.3:  # the run ends while the speed settles
        duration = script[-1].t_s + rng.uniform(0.05, 2.0)
    if standing:
        script[0] = ScriptEvent(0.0, setpoint=ControlSetpoint(mode=state.mode))
    return state, surface, script, duration, dt, payload, gains


def _random_flight(rng, params, takeoff, dt, payload, gains):
    """`_random_case` for a flight: from the air, or a take-off from rest
    (one second of transition), then waypoints, and sometimes a landing
    (a transition back to the ground) and a turning drive."""
    surface = SurfaceModel()
    if takeoff:
        state = initial_ground_state(params, heading_deg=rng.uniform(-180.0, 180.0))
    else:
        state = initial_flight_state((rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                                      rng.uniform(1.0, 5.0)), yaw_deg=rng.uniform(-180.0, 180.0))
    script, t, target = [], 0.0, state.position
    for n in range(rng.randint(1, 3)):
        target = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), rng.uniform(1.0, 5.0))
        setpoint = ControlSetpoint(mode=Mode.FLIGHT, target_position=target,
                                   target_yaw_deg=rng.uniform(-180.0, 180.0))
        script.append(ScriptEvent(t, setpoint, Mode.FLIGHT if takeoff and n == 0 else None))
        t += rng.uniform(0.5, 4.0) + (1.0 if takeoff and n == 0 else 0.0)
    if rng.random() < 0.5:  # land where the last waypoint was, and drive on
        landing = (target[0], target[1], params.com_height)
        script.append(ScriptEvent(t, ControlSetpoint(mode=Mode.FLIGHT, target_position=landing)))
        t += 6.0
        script.append(ScriptEvent(t, transition_to=Mode.GROUND))
        t += 1.5
        script.append(ScriptEvent(t, ControlSetpoint(
            mode=Mode.GROUND, speed_mps=rng.uniform(0.5, 2.0),
            yaw_rate_radps=rng.choice([0.0, rng.uniform(-0.5, 0.5)]))))
    duration = t + rng.uniform(0.5, 3.0)
    return state, surface, script, duration, max(dt, 0.002), payload, gains


def _steady_case(params, kind):
    """A long run that a steady stretch takes almost whole: its packs,
    start, surface, script, duration, dt, trace decimation and the fault
    that ends it."""
    full = _packs(USABLE_FRACTION)
    flat = SurfaceModel()
    if kind == "binades":  # t and x cross several binades, x through 0; events mid-jump
        start = initial_ground_state(params, heading_deg=30.0, position_xy=(-4.0, -2.0))
        script = [ScriptEvent(0.0, _ground(1.5)), ScriptEvent(137.01, _ground(1.5)),
                  ScriptEvent(260.0, _ground(1.5))]
        return full, start, flat, script, 300.0, 0.02, 7, None
    if kind == "trip":  # prop_a trips about 180 s in
        start = initial_ground_state(params, heading_deg=-100.0)
        return (_packs(0.01), start, flat, [ScriptEvent(0.0, _ground(1.0))], 300.0, 0.02, 10,
                "battery prop_a protection tripped")
    if kind == "brownout":  # on an incline, the electronics pack browns out
        packs = full[:2] + [Battery("electronics", 2, 3.2, soc=0.2 + 0.005, usable_fraction=0.8)]
        surface = SurfaceModel(kind="incline", slope_deg=15.0)
        start = initial_ground_state(params, surface)
        return (packs, start, surface, [ScriptEvent(0.0, _ground(0.7))], 200.0, 0.02, 13,
                "battery electronics protection tripped")
    if kind == "wall":  # x and y stay -0.0 while z climbs, until prop_b trips
        packs = full[:1] + [Battery("prop_b", 4, 5.0, soc=FLOOR + 0.1,
                                    usable_fraction=USABLE_FRACTION)] + full[2:]
        # the axles 5 deg either side of the wall tilt, priced at their mean
        start = replace(initial_wall_state(params, height_m=1.0), position=(-0.0, -0.0, 1.0),
                        tilt_front_deg=130.0, tilt_rear_deg=140.0)
        script = [ScriptEvent(0.0, ControlSetpoint(mode=Mode.WALL, speed_mps=0.3))]
        return packs, start, SurfaceModel(kind="wall"), script, 100.0, 0.01, 1, \
            "battery prop_b protection tripped"
    # a stop, dx = 0: from -0.0, which the first step turns to 0.0; then a
    # drive and a second stop
    start = initial_ground_state(params, heading_deg=0.0, position_xy=(-0.0, -0.0))
    script = [ScriptEvent(0.0, _ground(0.0)), ScriptEvent(50.0, _ground(1.0)),
              ScriptEvent(60.0, _ground(0.0))]
    return full, start, flat, script, 250.0, 0.02, 3, None


def test_fast_path_matches_per_step_path(params, rotor, power_model, monkeypatch):
    rng = random.Random(20261018)
    real_stretch, real_steady, real_book = Simulator._stretch, Simulator._steady_stretch, _Books.book
    at_floor = set()  # (propulsion?, "trip" or "rest"): a step `book` took from a pack at its floor
    seen = set()  # (mode, why a steady stretch of at least one step ended)
    cut = []  # (mode, step index) of each steady stretch of this stretch cut short of end or event
    seen_law = set()  # (mode, why a stretch ended, or "handoff" to a steady one)
    handed = []  # the step index each steady stretch started at
    steady_steps = []  # the steps each steady stretch took

    def steady_watched(self, f, power, i, end, t_event, books, rows, sums):
        handed.append(i)
        k, after, sums = real_steady(self, f, power, i, end, t_event, books, rows, sums)
        steady_steps.append(k - i)
        if k > i and (k == end or t_event <= after[TIME] + 1e-12):
            seen.add((after[MODE], "end" if k == end else "event"))
        elif k > i:  # "trip" if the law's step after it trips a pack, else "binade"
            cut.append((after[MODE], k))
        return k, after, sums

    def watched(self, law, i, end, t_event, books, rows):
        handed.clear()
        cut.clear()
        k, after, fault = real_stretch(self, law, i, end, t_event, books, rows)
        mode = law[1][MODE]
        if handed:
            seen_law.add((mode, "handoff"))
        last = books.events[-1]["kind"] if books.events else None
        if after[MODE] is not mode:  # the step that ends a transition
            why = "mode"
        elif fault is not None:  # a pack, or a detach or non-finite fault
            why = {"detachevent": "detach", "simulationfault": "other"}.get(last, "trip")
        elif k == end:
            why = "end"
        elif t_event <= after[TIME] + 1e-12:
            why = "event"
        else:  # a stretch that ended for no reason
            why = "other"
        seen_law.add((mode, why))
        seen.update((m, "trip" if why == "trip" and j == k - 1 else "binade") for m, j in cut)
        return k, after, fault

    def book_watched(self, power, mode, t_s):
        packs = [b for b, *_ in self.packs] + [self.electronics]
        low = [b for b in packs if b is not None and b.soc <= b.protection_soc and not b.tripped]
        fault = real_book(self, power, mode, t_s)
        at_floor.update((b.is_propulsion, "trip" if b.tripped else "rest") for b in low)
        return fault

    monkeypatch.setattr(Simulator, "_stretch", watched)
    monkeypatch.setattr(Simulator, "_steady_stretch", steady_watched)
    monkeypatch.setattr(_Books, "book", book_watched)
    electronics_only = 0
    for case in range(180):  # enough for a pack to trip inside a stretch in every mode
        # and then flat starts that stand still with packs at or below their floors
        standing = case >= 150
        state, surface, script, duration, dt, payload, gains = _random_case(rng, params, standing)
        # the unloaded ground calibration, and flight power, booked under this payload
        model = replace(power_model, ground_coeffs={payload: power_model.ground_coeffs[0.0]},
                        flight_power_w={payload: power_model.flight_power_w[0.0]})
        batteries = _batteries(rng, 0.5 if standing else 0.0)
        kw = {"dt_s": dt, "payload": payload, "trace_decimation": rng.choice([1, 7, 10]),
              "avionics_power_w": rng.choice([5.0, 5.0, 0.0]), "gains": gains}
        if len({b.battery_id for b in batteries}) < len(batteries):  # the same_id layout
            with pytest.raises(ValueError, match="battery ids must be unique"):
                Simulator(params, rotor, model, batteries=batteries, **kw)
            continue
        fast, ref = _against_reference(params, rotor, model, batteries,
                                        state, surface, script, duration, **kw)
        _assert_same(fast[1], ref[1], f"case {case}")
        electronics_only += [b.battery_id for b in batteries] == ["electronics"]
    # long runs that steady stretches take almost whole, in jumps: across
    # binades, with script events inside a jump, standing, at several trace
    # decimations, and ended by a pack in each of ground, incline and wall
    # whatever the draws above
    for kind in ("binades", "trip", "brownout", "wall", "stop"):
        packs, state, surface, script, duration, dt, decimation, fault = _steady_case(params, kind)
        steady_steps.clear()
        fast, ref = _against_reference(params, rotor, power_model, packs, state, surface, script,
                                        duration, dt_s=dt, trace_decimation=decimation)
        _assert_same(fast[1], ref[1], kind)
        assert fast[0].fault_reason == fault
        assert sum(steady_steps) > 0.8 * fast[0].final_state.time_s / dt
    # a pack at its floor trips at its first step that draws, and a stretch
    # at rest (or with no avionics draw) leaves it as it is
    assert at_floor == {(p, why) for p in (True, False) for why in ("trip", "rest")}
    assert electronics_only > 0
    steady_modes = (Mode.GROUND, Mode.INCLINE, Mode.WALL)
    assert {(m, why) for m in steady_modes for why in ("event", "trip", "binade")} <= seen
    assert "end" in {why for _, why in seen}
    assert {(m, why) for m in steady_modes for why in ("event", "trip", "handoff", "end")} \
        | {(Mode.FLIGHT, why) for why in ("event", "trip", "end")} \
        | {(Mode.WALL, "detach"), (Mode.TRANSITION, "mode")} <= seen_law
    assert "other" not in {why for _, why in seen_law}


@pytest.mark.parametrize("electronics_soc, tripped", [
    (1.0, "prop_a"), (0.2 + 6e-4, "electronics"),
])
def test_trip_or_brownout_inside_a_stretch(params, rotor, power_model, monkeypatch,
                                           electronics_soc, tripped):
    """After many coasted steps a pack trips or the electronics pack browns
    out: the steady stretch stops one step short and the law's step trips it,
    the one step `_Books.book` takes."""
    taken, real = [], Simulator._stretch

    def counted(self, law, i, *rest):
        k, after, fault = real(self, law, i, *rest)
        taken.append(k - i)
        return k, after, fault

    monkeypatch.setattr(Simulator, "_stretch", counted)
    packs = [Battery("prop_a", 4, 5.0, soc=FLOOR + 1e-3, usable_fraction=USABLE_FRACTION),
             Battery("prop_b", 4, 5.0, soc=FLOOR + 2e-3, usable_fraction=USABLE_FRACTION),
             Battery("electronics", 2, 3.2, soc=electronics_soc, usable_fraction=0.8)]
    script = [ScriptEvent(0.0, setpoint=ControlSetpoint(mode=Mode.GROUND, speed_mps=1.0))]
    booked = _count_books(monkeypatch)  # `reference_run` books through `drain`
    fast, ref = _against_reference(
        params, rotor, power_model, packs, initial_ground_state(params), SurfaceModel(),
        script, 60.0, dt_s=0.001, trace_decimation=7)
    _assert_same(fast[1], ref[1])
    assert len(booked) == 1
    events = [(e["kind"], e["detail"]) for e in fast[0].events]
    assert events == [("battery_protection", tripped)]
    assert sum(taken) > 5000  # the trip ends a long stretch


@pytest.mark.parametrize("wall", [False, True])
def test_position_overflow_inside_a_stretch(params, rotor, power_model, monkeypatch, wall):
    """No controller holds a speed that overflows a position, so a step law
    that only moves the vehicle stands in for `dynamics.step_law`: the
    stretch ends the run with the finiteness fault at the last finite
    state, as the full step of `reference_run` does."""
    def drift(state, setpoint, surface, dt, *rest):
        def advance(f):
            (x, y, z), (vx, vy, vz) = f[POSITION], f[VELOCITY]
            if not wall:
                x, y = x + vx * dt, y + vy * dt
            return (f[TIME] + dt, x, y, z + vz * dt, *f[VELOCITY.start:])
        return advance

    monkeypatch.setattr(dynamics, "step_law", drift)
    near_max = sys.float_info.max - 3e299  # 300 steps of 1e297 m from overflow
    if wall:
        start = replace(initial_wall_state(params), position=(-0.0, -0.0, near_max),
                        velocity=(0.0, 0.0, 1e300))
        surface = SurfaceModel(kind="wall")
    else:  # sideways, so the along-track speed, and with it the power, stays finite
        ground = initial_ground_state(params)
        start = replace(ground, position=(0.0, near_max, ground.position[2]),
                        velocity=(0.0, 1e300, 0.0))
        surface = SurfaceModel()
    fast, ref = _against_reference(params, rotor, power_model, [], start, surface,
                                    [], 1.0, dt_s=0.001, trace_decimation=10)
    _assert_same(fast[1], ref[1])
    result = fast[0]
    assert result.fault_reason == "non-finite value in integration step"
    assert 0.05 < result.final_state.time_s < 1.0
    if wall:
        assert repr(result.final_state.position[:2]) == "(-0.0, -0.0)"


@pytest.mark.parametrize("tripped", ["prop_a", "prop_b", "electronics"])
@pytest.mark.parametrize("speed, avionics_w", [(0.0, 5.0), (1.0, 5.0), (1.0, 0.0)])
def test_pre_tripped_pack(params, rotor, power_model, tripped, speed, avionics_w):
    """A pack that tripped before the run: drained above 0 W it ends the run
    with `drain`'s refusal; at 0 W it is booked like any other."""
    packs = [Battery(bid, cells, 5.0, usable_fraction=USABLE_FRACTION)
             for bid, cells in (("prop_a", 4), ("prop_b", 4), ("electronics", 2))]
    for pack in packs:
        if pack.battery_id == tripped:
            pack.soc, pack.tripped = FLOOR, True
    script = [ScriptEvent(0.0, setpoint=ControlSetpoint(mode=Mode.GROUND, speed_mps=speed))]
    fast, ref = _against_reference(params, rotor, power_model, packs, initial_ground_state(params),
                                   SurfaceModel(), script, 0.5, avionics_power_w=avionics_w)
    _assert_same(fast[1], ref[1])
    draws = speed > 0.0 if tripped != "electronics" else avionics_w > 0.0
    assert fast[0].fault_reason == (
        f"battery {tripped} is below its protection threshold" if draws else None)


@pytest.mark.parametrize("tripped", ["prop_b", "electronics"])
def test_tripped_pack_above_its_floor(params, rotor, power_model, tripped):
    """A pack recharged after it tripped, its protection not reset: its
    first draw is refused as `drain` refuses it, however full it is."""
    packs = _packs(USABLE_FRACTION)
    next(b for b in packs if b.battery_id == tripped).tripped = True
    script = [ScriptEvent(0.0, setpoint=_ground(1.0))]
    fast, ref = _against_reference(params, rotor, power_model, packs, initial_ground_state(params),
                                   SurfaceModel(), script, 0.5)
    _assert_same(fast[1], ref[1])
    assert fast[0].fault_reason == f"battery {tripped} is below its protection threshold"


@pytest.mark.parametrize("c1, avionics_w", [(-10.0, 5.0), (29.0, -1.0)])
def test_negative_draw_raises(params, rotor, power_model, batteries, c1, avionics_w):
    """A model that prices a move below 0 W, or a negative avionics draw,
    raises `drain`'s ValueError after the same packs were drained.
    `PowerModel` refuses a negative ground fit when it is built, but its
    `ground_coeffs` dict can still be edited after that."""
    model = replace(power_model, ground_coeffs={0.0: (29.0, 0.0)})
    model.ground_coeffs[0.0] = (c1, 0.0)
    script = [ScriptEvent(0.0, setpoint=ControlSetpoint(mode=Mode.GROUND, speed_mps=1.0))]
    fast, ref = _against_reference(params, rotor, model, batteries, initial_ground_state(params),
                                   SurfaceModel(), script, 1.0, avionics_power_w=avionics_w)
    assert fast[0] is None
    assert "power must be >= 0" in fast[1]
    _assert_same(fast[1], ref[1])


def _moving_start(params, mode):
    """A state that starts a run in `mode` already moving, and its surface:
    a drive on a 30 deg heading, a climb up a 15 deg incline and up a wall
    (the axles 10 deg apart), a climbing cruise, and a hover drifting below
    the hover speed."""
    if mode == "wall":
        start = replace(initial_wall_state(params, 1.0, 130.0), tilt_rear_deg=140.0)
        surface, velocity = SurfaceModel("wall"), (0.0, 0.0, 0.3)
    elif mode in ("flight", "hover"):
        start, surface = initial_flight_state((0.0, 0.0, 3.0)), SurfaceModel()
        velocity = (3.0, 1.0, 0.5) if mode == "flight" else (0.2, -0.1, -0.05)
    elif mode == "incline":
        surface, psi = SurfaceModel("incline", slope_deg=15.0), math.radians(15.0)
        start, velocity = initial_ground_state(params, surface), (1.2 * math.cos(psi), 0.0,
                                                                  1.2 * math.sin(psi))
    else:
        surface, yaw = SurfaceModel(), math.radians(30.0)
        start = initial_ground_state(params, surface, heading_deg=30.0)
        velocity = (1.2 * math.cos(yaw), 1.2 * math.sin(yaw), 0.0)
    return replace(start, velocity=velocity), surface


@pytest.mark.parametrize("mode", ["ground", "incline", "wall", "flight", "hover"])
def test_first_row_matches_the_reference(params, rotor, power_model, mode):
    """A run's first trace row, priced through the Simulator's stretch
    pricer like every other row, is the reference's first row, priced from
    `PowerModel`'s public prices: in each mode a run starts in, moving."""
    start, surface = _moving_start(params, mode)
    sim = Simulator(params, rotor, power_model)
    fast = sim.run(start, surface, [], 0.0).rows
    assert len(fast) == 1 and float(fast[0].rsplit(",", 1)[1]) > 0.0
    assert fast == reference_run(sim, start, surface, [], 0.0).rows


def test_overflowing_power_is_a_fault(params, rotor, power_model, batteries):
    """A vehicle so light that one step's speed overflows the ground power
    ends the run with a fault at the state before that step."""
    light = replace(params, empty_mass=1e-300)
    script = [ScriptEvent(0.0, setpoint=ControlSetpoint(mode=Mode.GROUND, speed_mps=1.0))]
    fast, ref = _against_reference(light, rotor, replace(power_model, params=light), batteries,
                                   initial_ground_state(light), SurfaceModel(), script, 1.0)
    _assert_same(fast[1], ref[1])
    result = fast[0]
    assert result.fault_reason == "non-finite power inf W in ground mode"
    assert [(e["kind"], e["t_s"]) for e in result.events] == [("simulationfault", 0.0)]
    assert result.final_state == initial_ground_state(light)
    assert result.ledger.to_dict()["total_wh"] == 0


def test_rocky_soil_takes_the_fast_path(tmp_path):
    """rocky-soil gives its golden bytes through `Simulator.run` and through
    `reference_run`, which takes a full `step` for every one of its 30 000
    steps (30 s at the default dt of 1 ms)."""
    from test_acceptance import GOLDEN_SHA256

    def run():
        out = tmp_path / f"out-{len(list(tmp_path.iterdir()))}"
        assert cli.main(["simulate", "rocky-soil", "--out", str(out)]) == cli.EXIT_OK
        return {f: (out / f).read_bytes() for f in ("trace.csv", "ledger.json", "result.json")}

    fast_files = run()
    steps, real_step = [], reference_simulator.step
    with pytest.MonkeyPatch.context() as mp:
        # the reference keeps its rows in a list, which `write_trace` writes
        # at the path the streamed file would have been renamed to
        mp.setattr(Simulator, "run", lambda sim, *args, trace: reference_run(sim, *args))
        mp.setattr(reference_simulator, "step", lambda *a: steps.append(1) or real_step(*a))
        slow_files = run()
    assert fast_files == slow_files
    for fname, data in fast_files.items():
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[("rocky-soil", fname)]
    assert len(steps) == 30_000


def _ground(speed, yaw_rate=0.0):
    return ControlSetpoint(mode=Mode.GROUND, speed_mps=speed, yaw_rate_radps=yaw_rate)


def _fly(target, yaw_deg=0.0):
    return ControlSetpoint(mode=Mode.FLIGHT, target_position=target, target_yaw_deg=yaw_deg)


# settled right and left turns that end in a straight run
TURNS = [ScriptEvent(0.0, _ground(1.0, 0.35)), ScriptEvent(6.0, _ground(1.5, -0.5)),
         ScriptEvent(12.0, _ground(1.0))]


def _drive_fly_land(params, extra=()):
    """Drive, stop, take off, fly to two waypoints, land, drive on turning."""
    land = (8.0, -4.0, params.com_height)
    return sorted([
        ScriptEvent(0.0, _ground(1.0)), ScriptEvent(3.0, _ground(0.0)),
        ScriptEvent(6.0, _fly((3.0, 0.0, 3.0)), Mode.FLIGHT),
        ScriptEvent(10.0, _fly((8.0, -4.0, 4.0), -45.0)), ScriptEvent(15.0, _fly(land, -45.0)),
        ScriptEvent(22.0, transition_to=Mode.GROUND), ScriptEvent(23.5, _ground(1.0, -0.35)),
        *extra,
    ], key=lambda ev: ev.t_s)


def _packs(margin_a):
    """prop_a `margin_a` SoC above its floor, prop_b and electronics full."""
    return [Battery("prop_a", 4, 5.0, soc=FLOOR + margin_a, usable_fraction=USABLE_FRACTION),
            Battery("prop_b", 4, 5.0, usable_fraction=USABLE_FRACTION),
            Battery("electronics", 2, 3.2, usable_fraction=0.8)]


def _non_finite_after(t_s, mode, monkeypatch):
    """Make every step in `mode` past t_s move the vehicle to x = inf, in
    both the float stretch and the reference's `step`."""
    real = dynamics.step_law

    def law(state, *args):
        advance = real(state, *args)
        if state.mode is not mode:
            return advance

        def poisoned(f):
            g = advance(f)
            return g if g[TIME] <= t_s else (g[TIME], math.inf, *g[2:])
        return poisoned

    monkeypatch.setattr(dynamics, "step_law", law)


@pytest.mark.parametrize("case", ["turns", "ground-on-wall", "fly-land", "geofence",
                                  "wall-entry", "trip-in-turn", "trip-in-flight",
                                  "non-finite-in-turn", "non-finite-in-flight"])
def test_turns_flight_and_transitions_match_per_step_path(params, rotor, power_model,
                                                          monkeypatch, case):
    """Settled turns, the same script in ground mode at the foot of a wall
    (where it steers as on flat ground), a flight to waypoints with a
    landing, transitions both ways, a wall entry (a tilt swap with the
    wheels on) and climb, and a fault in the middle of a turn or a flight:
    the float stretches give `reference_run`'s bytes."""
    on_wall = case in ("ground-on-wall", "wall-entry")
    surface = SurfaceModel(kind="wall") if on_wall else SurfaceModel()
    start, script, duration = initial_ground_state(params, surface), TURNS, 16.0
    packs = _packs(USABLE_FRACTION)  # full
    if case in ("fly-land", "geofence") or case.endswith("flight"):
        script, duration = _drive_fly_land(params), 30.0
    if case == "geofence":
        script = _drive_fly_land(params, [ScriptEvent(12.0, _fly((500.0, 0.0, 4.0)))])
    if case == "wall-entry":
        script, duration = [ScriptEvent(0.5, transition_to=Mode.WALL),
                            ScriptEvent(2.0, ControlSetpoint(mode=Mode.WALL, speed_mps=0.3))], 4.0
    if case.startswith("trip"):
        # a turn draws about 15 W from each pack, a flight about 290 W
        packs = _packs(4e-4 if case == "trip-in-turn" else 9e-3)
    if case.startswith("non-finite"):
        _non_finite_after(8.0, Mode.GROUND if case.endswith("turn") else Mode.FLIGHT,
                          monkeypatch)
    fast, ref = _against_reference(params, rotor, power_model, packs, start, surface,
                                   script, duration)
    _assert_same(fast[1], ref[1], case)
    result = fast[0]
    if case == "geofence":
        assert result is None and "GeofenceError" in fast[1]
        return
    kinds = [e["kind"] for e in result.events]
    if case == "turns":
        assert not result.faulted
        assert result.final_state.angular_velocity == (0.0, 0.0, 0.0)
    elif case == "ground-on-wall":  # the same run as on flat ground, bit for bit
        assert start.mode is Mode.GROUND and not result.faulted
        flat = Simulator(params, rotor, power_model, batteries=_packs(USABLE_FRACTION)).run(
            initial_ground_state(params), SurfaceModel(), script, duration)
        assert repr(result.final_state) == repr(flat.final_state)
        assert result.ledger.to_dict() == flat.ledger.to_dict()
        assert result.final_state.quaternion != start.quaternion  # it turned
    elif case == "fly-land":
        assert not result.faulted
        assert kinds == ["transition_started", "transition_complete"] * 2
        assert result.final_state.mode is Mode.GROUND
    elif case == "wall-entry":
        assert not result.faulted and kinds == ["transition_started", "transition_complete"]
        assert result.final_state.mode is Mode.WALL and result.final_state.position[2] > 0.5
    else:
        mode = Mode.GROUND if case.endswith("turn") else Mode.FLIGHT
        assert result.final_state.mode is mode and result.final_state.time_s > 1.0
        if mode is Mode.GROUND:
            assert result.final_state.angular_velocity[2] != 0.0  # mid-turn
        if case.startswith("trip"):
            assert kinds[-1] == "battery_protection"
            assert result.fault_reason == "battery prop_a protection tripped"
        else:
            assert kinds[-1] == "simulationfault" and 7.99 < result.final_state.time_s <= 8.0
            assert result.fault_reason == "non-finite value in integration step"


@pytest.mark.parametrize("heading_deg", [0.0, 30.0])
def test_ground_drive_at_the_foot_of_a_wall_covers_the_flat_distance(params, rotor, power_model,
                                                                      heading_deg):
    """Ground mode on a wall surface reads its speed along the heading, as
    on flat ground, so a straight drive covers the same distance and books
    the same energy there, bit for bit."""
    script = [ScriptEvent(0.0, _ground(1.0)), ScriptEvent(4.0, _ground(0.5))]
    runs = []
    for kind in ("flat", "wall"):
        surface = SurfaceModel(kind=kind)
        start = initial_ground_state(params, surface, heading_deg=heading_deg)
        result = Simulator(params, rotor, power_model).run(start, surface, script, 8.0)
        assert not result.faulted
        runs.append((result.final_state, result.ledger.to_dict()))
    (flat, flat_ledger), (wall, wall_ledger) = runs
    assert repr(wall) == repr(flat) and wall_ledger == flat_ledger
    assert 5.5 < math.dist(wall.position, initial_ground_state(params).position) < 6.5
    assert wall_ledger["per_mode_wh"]["ground"] > 0.0


@pytest.mark.parametrize("takeoff", [False, True])
def test_hover_needs_no_flight_calibration(params, rotor, power_model, takeoff):
    """A hover is priced at the hover power, so a payload with a ground
    calibration but none for flight hovers (from the air, or after a
    take-off) to the end of the run; a step that cruises raises for it."""
    payload = 0.5
    model = replace(power_model, ground_coeffs={payload: power_model.ground_coeffs[0.0]})
    if takeoff:
        start = initial_ground_state(params)
        hover = [ScriptEvent(0.0, _fly(start.position), Mode.FLIGHT)]
    else:
        start = initial_flight_state((0.0, 0.0, 3.0))
        hover = [ScriptEvent(0.0, _fly(start.position))]
    fast, ref = _against_reference(params, rotor, model, _packs(1e-2), start, SurfaceModel(),
                                   hover, 3.0, payload=payload)
    _assert_same(fast[1], ref[1])
    assert not fast[0].faulted and fast[0].final_state.mode is Mode.FLIGHT
    cruise = [*hover, ScriptEvent(2.0, _fly((8.0, 0.0, 3.0)))]
    fast, ref = _against_reference(params, rotor, model, _packs(1e-2), start, SurfaceModel(),
                                   cruise, 4.0, payload=payload)
    _assert_same(fast[1], ref[1])
    assert fast[0] is None and "no flight calibration for payload 0.5 kg" in fast[1]


@pytest.mark.parametrize("speed", [0.0, 1.0])
def test_zero_avionics_draw_books_in_the_sums(params, rotor, power_model, monkeypatch, speed):
    """An avionics draw of 0 W books its Wh in a stretch's local sums and,
    as `_Books.book` would, no Ah and no SoC: parked or driving, `book`
    takes no step, and the run matches the per-step reference."""
    booked = _count_books(monkeypatch)  # `reference_run` books through `drain`
    script = [ScriptEvent(0.0, setpoint=_ground(speed))]
    fast, ref = _against_reference(params, rotor, power_model, _packs(USABLE_FRACTION),
                                   initial_ground_state(params), SurfaceModel(), script, 30.0,
                                   dt_s=0.01, avionics_power_w=0.0)
    _assert_same(fast[1], ref[1])
    assert len(booked) == 0
    ledger = fast[0].ledger.to_dict()
    assert ledger["per_mode_wh"]["avionics"] == 0.0 and "electronics" not in ledger.get(
        "per_battery_ah", {})


@pytest.mark.parametrize("mission", ["confined-space", "drive-fly-land"])
def test_full_steps_per_mission(tmp_path, monkeypatch, params, rotor, power_model, mission):
    """confined-space (turns) and a drive / fly / land mission take every
    step over floats, the ends of its transitions included, and book each in
    the stretch's local sums: `_Books.book` takes none."""
    booked = _count_books(monkeypatch)
    if mission == "confined-space":
        assert cli.main(["simulate", mission, "--out", str(tmp_path)]) == cli.EXIT_OK
    else:
        result = Simulator(params, rotor, power_model).run(
            initial_ground_state(params), SurfaceModel(), _drive_fly_land(params), 30.0)
        assert not result.faulted and result.final_state.mode is Mode.GROUND
    assert len(booked) == 0


# -- the exact jump of a steady stretch ---------------------------------------

def _bits(x: float) -> bytes:
    """The bits of a float: tells 0.0 from -0.0, which == does not."""
    return struct.pack("<d", x)


@st.composite
def _sums(draw):
    """A running float and what each step adds to it, where the closed form
    must hold or give way: any two floats; a power of two moved up or down,
    and a float a few units below the next one moved up (the binade's
    edges); steps of an odd number of half units (ties); zeros of either
    sign; subnormal and near-overflow sums; and steps under half a unit."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    step_sign = draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["any", "edge", "tie", "zero", "subnormal", "overflow", "small"]))
    if kind == "any":
        return (draw(st.floats(allow_nan=False, allow_infinity=False)),
                draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "zero":
        return (draw(st.sampled_from([0.0, -0.0, sign * draw(st.floats(1e-3, 1e3))])),
                draw(st.sampled_from([0.0, -0.0])))
    if kind == "subnormal":
        unit = 5e-324
        return sign * draw(st.integers(1, 2 ** 52 - 1)) * unit, \
            step_sign * draw(st.integers(0, 2 ** 40)) * unit
    e = {"overflow": 1023}.get(kind, draw(st.integers(-1000, 1000)))
    u = math.ldexp(1.0, e - 52)
    units = draw(st.one_of(st.just(2 ** 52), st.integers(2 ** 53 - 64, 2 ** 53 - 1),
                           st.integers(2 ** 52, 2 ** 53 - 1)))
    m = draw(st.integers(0, 5))
    frac = {"tie": 0.5, "small": draw(st.floats(0.0, 0.499))}.get(
        kind, draw(st.floats(0.0, 1.0, exclude_max=True)))
    if kind == "small":
        m = 0
    return sign * units * u, step_sign * (m + frac) * u


@settings(derandomize=True, max_examples=1500, deadline=None, database=None)
@given(_sums(), st.integers(0, 300))
def test_jump_matches_repeated_addition(case, n):
    """After each of the additions `exact_run` allows, a + j * s holds the bits
    that adding d j times gives."""
    a, d = case
    count, s = exact_run(a, d, n)
    assert 0 <= count <= n
    total = a
    for j in range(1, count + 1):
        total += d
        assert _bits(a + j * s) == _bits(total), (a, d, j)


@pytest.mark.parametrize("a, d, n, count", [
    # time at dt 1 ms: every step that stays below 2 in one run, and from
    # -3.5 toward 0 every one that stays below -2
    (1.001, 0.001, 10 ** 6, 999), (-3.5, 1e-3, 10 ** 6, 1500),
    # a step of 0 keeps the bits, or turns -0.0 into 0.0 at the first step
    # and keeps them from there, as -0.0 + j * 0.0 does
    (5.0, 0.0, 7, 7), (-0.0, -0.0, 7, 7), (0.0, -0.0, 7, 7), (-0.0, 0.0, 7, 7),
    (0.0, 1e-3, 7, 0), (5e-324, 5e-324, 7, 0),  # a zero or subnormal sum moved
    (1.0, -1e-17, 7, 0),  # a power of two pulled down by less than half a unit
    (1.0, 1e-17, 7, 7),  # and pushed up by as little
    (1.0, 1.5 * math.ulp(1.0), 7, 0),  # a tie
    (1.0, 1e300, 7, 0),  # a huge step
])
def test_jump_lengths(a, d, n, count):
    assert exact_run(a, d, n)[0] == count

