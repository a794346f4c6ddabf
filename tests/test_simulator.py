"""`Simulator.run` books every step through per-run constants and takes
steady stretches over plain floats. `reference_run` takes every step as a
full `dynamics.step`, `drain` and `record`. Both must give the same bytes."""

import copy
import hashlib
import math
import os
import random
import sys
from dataclasses import replace

import pytest

from flydrive import cli, dynamics
from flydrive.defaults import USABLE_FRACTION
from flydrive.dynamics import (
    ControlSetpoint,
    Mode,
    SurfaceModel,
    initial_ground_state,
    initial_wall_state,
)
from flydrive.energy import Battery
from flydrive.simulator import ScriptEvent, Simulator
from reference_simulator import reference_run

FLOOR = 1.0 - USABLE_FRACTION


def _both_ways(run):
    """`run()` as it is, then with the stretch helper declining every step,
    speed-only and steady alike: every step a full `dynamics.step`."""
    fast = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "_coast_stretch",
                   lambda self, state, power, i, *rest: (i, state, None))
        slow = run()
    return fast, slow


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


def _batteries(rng):
    """Packs from under a second to a minute of driving above their floors,
    or full; sometimes one propulsion pack, no electronics pack or two packs
    on one id, which a Simulator refuses."""
    def pack(bid, cells, capacity):
        soc = rng.choice([1.0, FLOOR + 10 ** rng.uniform(-4.7, -2.7)])
        return Battery(bid, cells, capacity, soc=soc, usable_fraction=USABLE_FRACTION)
    props = [pack("prop_a", 4, 5.0), pack("prop_b", 4, 5.0)]
    layout = rng.choice(["two", "two", "two", "one", "none", "same_id"])
    if layout == "one":
        props = props[:1]
    elif layout == "none":
        props = []
    elif layout == "same_id":
        props = [props[0], pack("prop_a", 4, 5.0)]
    electronics = rng.choice([[], [pack("electronics", 2, rng.choice([3.2, 0.3]))]])
    return props + electronics


def _random_case(rng, params):
    """A ground, incline or wall start, its surface, script, duration, dt,
    payload and gains. Setpoints change while the speed still settles, stop
    the vehicle (static friction holds it), reverse it, and turn it and stop
    turning; the wall sometimes holds on so lightly that it detaches as the
    climb settles."""
    kind = rng.choice(["flat", "incline", "wall"])
    payload = rng.choice([0.0, rng.uniform(0.0, 1.3)])
    dt = rng.choice([0.001, 0.002, 0.005, dynamics.DT_MAX_S,
                     rng.uniform(0.001, dynamics.DT_MAX_S)])
    gains = dynamics.ControllerGains()
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
        # a turn changes the heading every step, so it is never speed-only;
        # the next setpoint stops it turning
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
    return state, surface, script, duration, dt, payload, gains


def test_fast_path_matches_per_step_path(params, rotor, power_model, monkeypatch):
    rng = random.Random(20261018)
    real_stretch, real_steady = Simulator._coast_stretch, Simulator._steady_stretch
    seen = set()  # (mode, why a steady stretch of at least one step ended)
    seen_speed = set()  # (mode, why the speed-only part of a stretch ended)
    handed = []  # the step index each steady stretch started at

    def steady_watched(self, state, power, i, end, t_event, books, rows):
        handed.append(i)
        k, after, fault = real_steady(self, state, power, i, end, t_event, books, rows)
        if k > i:
            why = ("end" if k == end else "event" if t_event <= after.time_s + 1e-12
                   else "trip")
            seen.add((after.mode, why))
        return k, after, fault

    def watched(self, state, power, i, end, t_event, books, rows, speed, surface):
        handed.clear()
        k, after, fault = real_stretch(self, state, power, i, end, t_event, books, rows,
                                       speed, surface)
        if speed is not None and (handed or k > i):
            if handed:
                why = "handoff"
            elif fault is not None:
                why = "trip"
            elif k == end:
                why = "end"
            elif t_event <= after.time_s + 1e-12:
                why = "event"
            else:
                try:
                    speed[0](after.velocity[2])
                    why = "other"
                except dynamics.DetachEvent:
                    why = "detach"
            seen_speed.add((after.mode, why))
        return k, after, fault

    monkeypatch.setattr(Simulator, "_coast_stretch", watched)
    monkeypatch.setattr(Simulator, "_steady_stretch", steady_watched)
    for case in range(120):  # enough for a pack to trip inside a stretch in every mode
        state, surface, script, duration, dt, payload, gains = _random_case(rng, params)
        # the unloaded ground calibration, booked under this payload
        model = replace(power_model, ground_coeffs={payload: power_model.ground_coeffs[0.0]})
        batteries = _batteries(rng)
        kw = {"dt_s": dt, "payload": payload, "trace_decimation": rng.choice([1, 7, 10]),
              "avionics_power_w": rng.choice([5.0, 5.0, 0.0]), "gains": gains}
        if len({b.battery_id for b in batteries}) < len(batteries):  # the same_id layout
            with pytest.raises(ValueError, match="battery ids must be unique"):
                Simulator(params, rotor, model, batteries=batteries, **kw)
            continue
        fast, ref = _against_reference(params, rotor, model, batteries,
                                        state, surface, script, duration, **kw)
        _assert_same(fast[1], ref[1], f"case {case}")
    modes = (Mode.GROUND, Mode.INCLINE, Mode.WALL)
    assert {(m, why) for m in modes for why in ("event", "trip")} <= seen
    assert "end" in {why for _, why in seen}
    assert {(m, why) for m in modes for why in ("event", "trip", "handoff", "end")} \
        | {(Mode.WALL, "detach")} == seen_speed


@pytest.mark.parametrize("electronics_soc, tripped", [
    (1.0, "prop_a"), (0.2 + 6e-4, "electronics"),
])
def test_trip_or_brownout_inside_a_stretch(params, rotor, power_model, monkeypatch,
                                           electronics_soc, tripped):
    """After many coasted steps a pack trips or the electronics pack browns
    out: the stretch stops one step short and a full step trips it."""
    taken, real = [], Simulator._coast_stretch

    def counted(self, state, power, i, *rest):
        k, after, fault = real(self, state, power, i, *rest)
        taken.append(k - i)
        return k, after, fault

    monkeypatch.setattr(Simulator, "_coast_stretch", counted)
    packs = [Battery("prop_a", 4, 5.0, soc=FLOOR + 1e-3, usable_fraction=USABLE_FRACTION),
             Battery("prop_b", 4, 5.0, soc=FLOOR + 2e-3, usable_fraction=USABLE_FRACTION),
             Battery("electronics", 2, 3.2, soc=electronics_soc, usable_fraction=0.8)]
    script = [ScriptEvent(0.0, setpoint=ControlSetpoint(mode=Mode.GROUND, speed_mps=1.0))]
    fast, ref = _against_reference(
        params, rotor, power_model, packs, initial_ground_state(params), SurfaceModel(),
        script, 60.0, dt_s=0.001, trace_decimation=7)
    _assert_same(fast[1], ref[1])
    events = [(e["kind"], e["detail"]) for e in fast[0].events]
    assert events == [("battery_protection", tripped)]
    assert sum(taken) > 5000  # the trip ends a long stretch


@pytest.mark.parametrize("wall", [False, True])
def test_position_overflow_inside_a_stretch(params, rotor, power_model, monkeypatch, wall):
    """No controller holds a speed that overflows a position, so a step that
    only moves the vehicle, with `step`'s finiteness check, stands in for
    `dynamics.step`: the stretch stops short of the overflow, and a full
    step raises the finiteness fault with the last finite state."""
    def drift(state, setpoint, surface, dt, *rest):
        (x, y, z), (vx, vy, vz) = state.position, state.velocity
        position = (x, y, z + vz * dt) if wall else (x + vx * dt, y + vy * dt, z + vz * dt)
        if not all(map(math.isfinite, position)):
            raise dynamics.SimulationFault("non-finite value in integration step", state)
        return replace(state, time_s=state.time_s + dt, position=position)

    monkeypatch.setattr(dynamics, "step", drift)
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


@pytest.mark.parametrize("c1, avionics_w", [(-10.0, 5.0), (29.0, -1.0)])
def test_negative_draw_raises(params, rotor, power_model, batteries, c1, avionics_w):
    """A model that prices a move below 0 W, or a negative avionics draw,
    raises `drain`'s ValueError after the same packs were drained."""
    model = replace(power_model, ground_coeffs={0.0: (c1, 0.0)})
    script = [ScriptEvent(0.0, setpoint=ControlSetpoint(mode=Mode.GROUND, speed_mps=1.0))]
    fast, ref = _against_reference(params, rotor, model, batteries, initial_ground_state(params),
                                   SurfaceModel(), script, 1.0, avionics_power_w=avionics_w)
    assert fast[0] is None
    assert "power must be >= 0" in fast[1]
    _assert_same(fast[1], ref[1])


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


def test_rocky_soil_takes_the_fast_path(tmp_path, monkeypatch):
    """rocky-soil gives its golden bytes both ways; only the per-step path
    takes a full `dynamics.step` for every step, the fast path one in all."""
    from test_acceptance import GOLDEN_SHA256

    calls, real_step = [], dynamics.step
    monkeypatch.setattr(dynamics, "step", lambda *a, **k: calls.append(1) or real_step(*a, **k))

    def run():
        calls.clear()
        out = tmp_path / f"out-{len(list(tmp_path.iterdir()))}"
        assert cli.main(["simulate", "rocky-soil", "--out", str(out)]) == cli.EXIT_OK
        return len(calls), {f: (out / f).read_bytes() for f in
                            ("trace.csv", "ledger.json", "result.json")}

    (fast_steps, fast_files), (slow_steps, slow_files) = _both_ways(run)
    assert fast_files == slow_files
    for fname, data in fast_files.items():
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[("rocky-soil", fname)]
    n_steps = 30_000  # 30 s at the default dt of 1 ms
    assert slow_steps == n_steps
    assert fast_steps == 1  # the first; the drive's speed-only steps and steady ones follow
