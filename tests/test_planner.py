"""Route planner: traversability classes, optimal plans, validation."""

import hashlib
import heapq
import json
import math
import random
from collections import deque
from dataclasses import replace as _replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_planner
from flydrive import dynamics, energy, planner, terrain
from flydrive.cli import EXIT_OK, bundled_scenarios, main
from flydrive.defaults import default_batteries, default_power_model
from flydrive.fields import FieldError
from flydrive.planner import (
    DRIVE,
    FLY,
    TRANSITION_TO_FLY,
    TRANSITION_TO_GROUND,
    MissionPlan,
    NoPathError,
    PlannerConfig,
    classify_traversability,
    plan,
    validate_plan,
)
from flydrive.scenario import load_scenario
from flydrive.statics import tipping_slope
from flydrive.terrain import terrain_from_ascii, terrain_from_dict
from flydrive.vehicle import ThrustSaturationError
from reference_simulator import is_steady, step
from reference_validation import along_track_speed, reference_drive_leg, reference_fly_leg
from terrain_helpers import class_at, mirrored


@pytest.fixture(scope="module")
def model():
    return default_power_model()


def cfg(**kw) -> PlannerConfig:
    return PlannerConfig(**kw)


class TestTraversability:
    def test_flat_free_grid_fully_drivable(self, model):
        grid = terrain_from_ascii("...\n...\n...")
        trav = classify_traversability(grid, model.params, cfg())
        assert all(all(row) for row in trav.drivable)
        assert all(all(row) for row in trav.flyable)

    def test_cliff_cell_not_drivable(self, model):
        # 2.14 m rise over a 1 m cell is a 65 degree gradient, past the
        # 60.93 degree tip limit even before the safety margin.
        rise = math.tan(math.radians(65.0))
        grid = terrain_from_dict(
            {
                "width": 2,
                "height": 1,
                "cell_size_m": 1.0,
                "elevation_m": [0.0, rise],
            }
        )
        trav = classify_traversability(grid, model.params, cfg())
        assert not trav.drivable_at((0, 0))
        assert not trav.drivable_at((0, 1))
        # still overflyable
        assert trav.flyable[0][0] and trav.flyable[0][1]

    def test_moderate_gradient_drivable_with_margin(self, model):
        rise = math.tan(math.radians(33.0))
        grid = terrain_from_dict(
            {
                "width": 2,
                "height": 1,
                "cell_size_m": 1.0,
                "elevation_m": [0.0, rise],
            }
        )
        trav = classify_traversability(grid, model.params, cfg(slope_margin_deg=5.0))
        assert trav.drivable_at((0, 0)) and trav.drivable_at((0, 1))

    def test_obstacle_blocks_drive_not_fly(self, model):
        grid = terrain_from_ascii(".#.")
        trav = classify_traversability(grid, model.params, cfg())
        assert not trav.drivable_at((0, 1))
        assert trav.flyable[0][1]

    def test_no_fly_cell_blocks_flight(self, model):
        # cell classes are exclusive: a keep-out cell is not a Free cell,
        # so it blocks both modes
        grid = terrain_from_ascii(".~.")
        trav = classify_traversability(grid, model.params, cfg())
        assert not trav.flyable[0][1]
        assert not trav.drivable_at((0, 1))

    def test_margin_tightens_limit(self, model):
        # A 58 degree gradient sits under the raw tip limit but not under
        # the limit with a 5 degree margin.
        rise = math.tan(math.radians(58.0))
        grid = terrain_from_dict(
            {
                "width": 2,
                "height": 1,
                "cell_size_m": 1.0,
                "elevation_m": [0.0, rise],
            }
        )
        loose = classify_traversability(grid, model.params, cfg(slope_margin_deg=0.0))
        tight = classify_traversability(grid, model.params, cfg(slope_margin_deg=5.0))
        assert loose.drivable_at((0, 1))
        assert not tight.drivable_at((0, 1))

    def test_matches_the_reference_on_random_grids(self, model):
        # margins up to and past the tip limit (a limit <= 0 leaves nothing
        # drivable, even a lone cell), and elevations of +-1e308, whose
        # differences overflow to a 90 degree gradient
        rng = random.Random(19)
        tip = tipping_slope(model.params)
        for case in range(600):
            height, width = rng.randint(1, 6), rng.randint(1, 6)
            scale = rng.choice((0.0, 0.5, 3.0, 1e308))
            elevation = [scale * rng.choice((0.0, 1.0, -1.0, rng.uniform(-1.0, 1.0)))
                         for _ in range(width * height)]
            kinds = [rng.choice(".....#~") for _ in elevation]
            grid = terrain_from_dict({
                "width": width, "height": height, "cell_size_m": rng.choice((1.0, 3.0)),
                "elevation_m": elevation,
                "obstacles": [list(divmod(i, width)) for i, k in enumerate(kinds) if k == "#"],
                "no_fly": [list(divmod(i, width)) for i, k in enumerate(kinds) if k == "~"],
            })
            margin = rng.choice((0.0, 5.0, rng.uniform(0.0, tip), tip, tip + rng.uniform(0.0, 10.0)))
            config = cfg(slope_margin_deg=margin)
            trav = classify_traversability(grid, model.params, config)
            assert (trav.drivable, trav.flyable) == reference_planner.classify(
                grid, model.params, config), case


class TestCorridorPlans:
    def test_open_corridor_single_drive_leg(self, model):
        grid = terrain_from_ascii(".....", cell_size_m=2.0)
        c = cfg(drive_speed_mps=1.0)
        mission = plan(grid, (0, 0), (0, 4), c, model)
        assert len(mission.legs) == 1
        leg = mission.legs[0]
        assert leg.mode == DRIVE
        assert leg.cells == ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4))
        # flat driving: power * distance / speed
        expected = model.ground_power(1.0, 0.0) * (4 * 2.0 / 1.0) / 3600.0
        assert mission.total_energy_wh == pytest.approx(expected, rel=1e-12)
        assert mission.n_transitions == 0
        assert mission.total_duration_s == pytest.approx(8.0)

    def test_obstacle_fence_forces_flight(self, model):
        grid = terrain_from_ascii(
            """
            ..#..
            ..#..
            ..#..
            """,
            cell_size_m=2.0,
        )
        mission = plan(grid, (1, 0), (1, 4), cfg(), model)
        modes = [leg.mode for leg in mission.legs]
        assert modes == [DRIVE, TRANSITION_TO_FLY, FLY, TRANSITION_TO_GROUND, DRIVE]
        assert mission.n_transitions == 2
        fly_leg = mission.legs[2]
        assert all(class_at(grid, c) != terrain.NO_FLY for c in fly_leg.cells)
        # the flight leg is what crosses the fence column
        assert any(c[1] == 2 for c in fly_leg.cells)

    def test_prefers_driving_when_lengths_tie(self, model):
        # Flying over the obstacle and driving around it cover comparable
        # ground, but driving at 1 m/s costs ~30 W against ~858 W cruise
        # plus two transitions, so the plan must stay on wheels.
        grid = terrain_from_ascii(
            """
            ...
            .#.
            ...
            """
        )
        mission = plan(grid, (1, 0), (1, 2), cfg(), model)
        assert [leg.mode for leg in mission.legs] == [DRIVE]
        assert mission.n_transitions == 0

    def test_start_equals_goal(self, model):
        grid = terrain_from_ascii("...")
        mission = plan(grid, (0, 1), (0, 1), cfg(), model)
        assert mission.legs == ()
        assert mission.total_energy_wh == 0.0
        assert mission.feasible

    def test_unreachable_goal_raises_with_diagnostics(self, model):
        grid = terrain_from_ascii(
            """
            .~.
            ~~.
            ...
            """
        )
        # start is boxed in by no-fly cells that are also... free, so make
        # them obstacles too by using a fully separating wall.
        grid = terrain_from_ascii(
            """
            .~~
            ~~.
            ...
            """
        )
        with pytest.raises(NoPathError) as err:
            plan(grid, (0, 0), (2, 2), cfg(), model)
        assert err.value.explored  # frontier is reported for debugging
        assert ((0, 0), DRIVE) in err.value.explored

    def test_endpoints_must_be_drivable(self, model):
        grid = terrain_from_ascii(".#.")
        with pytest.raises(NoPathError, match="not drivable"):
            plan(grid, (0, 0), (0, 1), cfg(), model)

    def test_out_of_bounds_endpoint(self, model):
        grid = terrain_from_ascii("...")
        with pytest.raises(ValueError, match="out of bounds"):
            plan(grid, (0, 0), (0, 7), cfg(), model)

    def test_legs_partition_energy(self, model):
        grid = terrain_from_ascii(
            """
            ..#..
            ..#..
            ..#..
            """,
            cell_size_m=2.0,
        )
        mission = plan(grid, (1, 0), (1, 4), cfg(), model)
        assert sum(leg.energy_wh for leg in mission.legs) == pytest.approx(
            mission.total_energy_wh, rel=1e-12
        )
        assert sum(leg.duration_s for leg in mission.legs) == pytest.approx(
            mission.total_duration_s, rel=1e-12
        )

    def test_drive_edges_price_grade(self, model):
        rise = math.tan(math.radians(20.0)) * 2.0
        c = cfg()
        drive = planner._edge_pricer(DRIVE, 2.0, c, model, 0.0)  # 2 m cells
        up = drive(rise)
        flat = model.ground_power(c.drive_speed_mps, 0.0) * 2.0 / 3600.0
        assert up > flat
        # grade resistance is direction-symmetric in this model
        down = drive(-rise)
        assert down == up

    def test_fly_edges_price_climb_only(self, model):
        c = cfg()
        fly = planner._edge_pricer(FLY, 2.0, c, model, 0.0)  # 2 m cells, 3 m rise
        up = fly(3.0)
        down = fly(-3.0)
        level = model.flight_power(0.0) * (2.0 / c.fly_speed_mps) / 3600.0
        assert down == pytest.approx(level, rel=1e-12)
        climb_wh = model.params.total_mass(0.0) * model.params.gravity * 3.0 / 3600.0
        assert up == pytest.approx(level + climb_wh, rel=1e-12)


class TestPlanInvariants:
    @given(extra=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    def test_transition_energy_monotonicity(self, extra):
        model = default_power_model()
        grid = terrain_from_ascii(
            """
            ..#..
            ..#..
            ..#..
            """,
            cell_size_m=2.0,
        )
        base = cfg()
        bumped = cfg(transition_energy_wh=base.transition_energy_wh + extra)
        e0 = plan(grid, (1, 0), (1, 4), base, model).total_energy_wh
        e1 = plan(grid, (1, 0), (1, 4), bumped, model).total_energy_wh
        assert e1 >= e0

    def test_transition_priced_out_entirely(self, model):
        # With the mode switch made absurdly expensive the planner must
        # refuse to fly even where flying would otherwise win.
        grid = terrain_from_ascii(
            """
            ....#....
            .##.#.##.
            .#..#..#.
            .#.###.#.
            .#.....#.
            """,
            cell_size_m=2.0,
        )
        pricey = cfg(transition_energy_wh=1e6)
        mission = plan(grid, (4, 3), (4, 5), pricey, model)
        assert all(leg.mode == DRIVE for leg in mission.legs)

    def _mirror_cell(self, grid: terrain.TerrainGrid, cell):
        return (cell[0], grid.width - 1 - cell[1])

    @pytest.mark.parametrize(
        "art,start,goal",
        [
            ("..#..\n..#..\n..#..", (1, 0), (1, 4)),
            (".....\n.###.\n.....", (1, 0), (1, 4)),
            ("..0..\n.121.\n..0..", (1, 0), (1, 4)),
        ],
    )
    def test_mirror_symmetry(self, model, art, start, goal):
        grid = terrain_from_ascii(art, cell_size_m=2.0)
        mirror = mirrored(grid)
        fwd = plan(grid, start, goal, cfg(), model)
        rev = plan(
            mirror,
            self._mirror_cell(grid, start),
            self._mirror_cell(grid, goal),
            cfg(),
            model,
        )
        # identical cost structure, so bit-identical total energy
        assert rev.total_energy_wh == fwd.total_energy_wh
        assert rev.n_transitions == fwd.n_transitions
        assert [leg.mode for leg in rev.legs] == [leg.mode for leg in fwd.legs]

    def test_feasible_plan_never_trips_battery(self, model):
        grid = terrain_from_ascii("." * 12, cell_size_m=2.0)
        batteries = default_batteries()
        mission = plan(grid, (0, 0), (0, 11), cfg(), model, batteries=batteries)
        assert mission.feasible
        report = validate_plan(
            mission, grid, model, cfg(), batteries=default_batteries()
        )
        assert report.battery_ok

    def test_battery_ok_counts_instant_transitions(self, model):
        # with transition_time_s=0 the two transitions last 0 s yet carry
        # 1.27 Wh of the 1.68 Wh route; at SoC 0.3598 each pack holds
        # 0.23 Wh above its floor: more than its share of the other legs,
        # less than its 0.84 Wh share of the route
        grid = terrain_from_ascii("..#..\n..#..\n..#..", cell_size_m=3.0)
        instant = cfg(transition_time_s=0.0)

        def low_packs():
            return [_replace(b, soc=0.3598) if b.is_propulsion else b
                    for b in default_batteries()]

        mission = plan(grid, (1, 0), (1, 4), instant, model, batteries=low_packs())
        assert sum(leg.energy_wh for leg in mission.legs if leg.duration_s == 0.0) > 1.2
        assert not mission.feasible
        report = validate_plan(mission, grid, model, instant, batteries=low_packs())
        assert report.battery_ok is mission.feasible

    def test_infeasible_when_energy_exceeds_usable(self, model):
        grid = terrain_from_ascii("..#..\n..#..\n..#..", cell_size_m=2.0)
        tiny = [
            energy.Battery("prop_a", cells_series=4, capacity_ah=0.001),
            energy.Battery("prop_b", cells_series=4, capacity_ah=0.001),
        ]
        mission = plan(grid, (1, 0), (1, 4), cfg(), model, batteries=tiny)
        assert mission.total_energy_wh > energy.usable_propulsion_energy_wh(tiny)
        assert not mission.feasible

    def test_plan_is_deterministic(self, model):
        grid = terrain_from_ascii(
            """
            ..1#..
            .02#0.
            ..1...
            """,
            cell_size_m=2.0,
        )
        a = plan(grid, (1, 0), (1, 4), cfg(), model)
        b = plan(grid, (1, 0), (1, 4), cfg(), model)
        assert a == b


class TestValidatePlan:
    def test_flat_drive_plan_within_band(self, model):
        grid = terrain_from_ascii("." * 10, cell_size_m=2.0)
        mission = plan(grid, (0, 0), (0, 9), cfg(), model)
        report = validate_plan(mission, grid, model, cfg())
        assert report.ok
        for leg in report.legs:
            assert leg.deviation <= 0.15
        assert report.simulated_total_wh == pytest.approx(
            report.predicted_total_wh, rel=0.15
        )

    def test_multimodal_plan_validates(self, model):
        grid = terrain_from_ascii(
            """
            ...##...
            ...##...
            ...##...
            """,
            cell_size_m=3.0,
        )
        mission = plan(grid, (1, 0), (1, 7), cfg(), model)
        assert any(leg.mode == FLY for leg in mission.legs)
        report = validate_plan(mission, grid, model, cfg())
        assert report.ok

    def test_steep_leg_marked_as_fault(self, model):
        # Hand-build a mission with a drive leg up a 61 degree grade; the
        # simulated vehicle tips, and the report must mark the leg failed
        # rather than blow up.
        rise = math.tan(math.radians(61.0)) * 2.0
        grid = terrain_from_dict(
            {
                "width": 2,
                "height": 1,
                "cell_size_m": 2.0,
                "elevation_m": [0.0, rise],
            }
        )
        c = cfg()
        leg = planner.MissionLeg(
            mode=DRIVE,
            cells=((0, 0), (0, 1)),
            speed_mps=c.drive_speed_mps,
            energy_wh=0.05,
            duration_s=2.0,
        )
        mission = MissionPlan(
            start=(0, 0),
            goal=(0, 1),
            legs=(leg,),
            total_energy_wh=leg.energy_wh,
            total_duration_s=leg.duration_s,
            n_transitions=0,
            feasible=True,
        )
        report = validate_plan(mission, grid, model, c)
        assert not report.ok
        assert report.legs[0].fault is not None
        assert "tip" in report.legs[0].fault

    def test_fly_leg_timeout_marked_as_fault(self, model):
        # a 513 m fly leg needs more than the 120 s the validator allows; the
        # partial energy must not pass as a simulated leg
        grid = terrain_from_ascii("." + "#" * 170 + ".", cell_size_m=3.0)
        mission = plan(grid, (0, 0), (0, 171), cfg(), model)
        fly = [i for i, leg in enumerate(mission.legs) if leg.mode == FLY]
        assert len(fly) == 1
        assert mission.legs[fly[0]].energy_wh == pytest.approx(30.57, abs=0.01)
        report = validate_plan(mission, grid, model, cfg())
        leg = report.legs[fly[0]]
        assert not leg.ok
        assert leg.fault == "simulation fault: fly leg timed out"
        assert not report.ok

    def test_fly_leg_clamps_like_the_builtins(self, model, monkeypatch):
        """The fly leg's three clamps (acceleration, edge index, climb rate)
        give, in repr, the energy or the error of the same loop written with
        the builtin `min` and `max`, on rises of NaN, +-0.0, +-inf and out of
        range, acceleration caps of NaN, +-0.0 and +-inf, and accelerations
        of NaN (a NaN or infinite position gain)."""
        class Rises:
            cell_size_m = 3.0

            def __init__(self, elevations):
                self.elevations = elevations

            def elevation_at(self, cell):
                return self.elevations[cell[1]]

        def outcome(fn, *args):
            try:
                return repr(fn(*args))
            except (ValueError, OverflowError, IndexError, dynamics.SimulationFault) as exc:
                return type(exc), str(exc)

        profiles = [(0.0, 0.5, -0.0, 1e308, 0.25), (0.0, -0.0, 0.0, -0.0),
                    (0.0, math.nan, 1.0), (0.0, math.inf, 0.0), (0.0, -math.inf, 2.0),
                    (math.inf, math.inf, 1.0), (-1e308, 1e308, -1e308)]
        def gains_of(**changes):
            # ControllerGains refuses a non-finite field; the clamps must
            # still match the builtins on any float
            return SimpleNamespace(**{**vars(dynamics.ControllerGains()), **changes})

        limits = [(cap, 4.0) for cap in (15.0, 1.0, 0.0, -0.0, math.inf, -math.inf, math.nan)]
        for cap, kp in limits + [(15.0, math.nan), (0.5, math.inf)]:
            gains = gains_of(kp_pos=kp, max_flight_accel_mps2=cap)
            monkeypatch.setattr(dynamics, "ControllerGains", lambda gains=gains: gains)
            for speed in (4.0, 1e308, -4.0, -math.inf, math.inf):
                config = type("Config", (), {"fly_speed_mps": speed})
                for elevations in profiles:
                    cells = tuple((0, c) for c in range(len(elevations)))
                    leg = planner.MissionLeg(FLY, cells, 4.0, 0.1, 1.0)
                    args = (leg, Rises(elevations), config, model, 0.0, 0.02)
                    assert outcome(planner._simulate_fly_leg, *args) == outcome(
                        reference_fly_leg, *args), (cap, kp, speed, elevations)

    @staticmethod
    def _random_mission(rng, repeat=False, long_cells=False):
        """A row of cells joined by flat, rising and falling edges (now and
        then one past the tip limit, or cells too long to drive in 60 s),
        split into drive legs, each carrying its speed from edge to edge,
        with a fly leg between two of them now and then. With `repeat` the
        first drive leg is driven again from rest after a fly leg, as a plan
        drives the same ground on both sides of a fence; with `long_cells`
        the cells are 20-50 m, so the distance and energy cross binades
        within a steady stretch."""
        n = rng.randint(2, 7)
        cell = rng.choice([0.5, 2.0, 3.0, rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)])
        if long_cells:
            cell = rng.uniform(20.0, 50.0)
        elif rng.random() < 0.08:
            cell = 300.0
        elevation = [0.0]
        for _ in range(n - 1):
            slope = rng.choice([0.0, 0.0, rng.uniform(1.0, 40.0), -rng.uniform(1.0, 40.0)])
            if rng.random() < 0.04:
                slope = 61.0
            elevation.append(elevation[-1] + cell * math.tan(math.radians(slope)))
        grid = terrain_from_dict({"width": n, "height": 1, "cell_size_m": cell,
                                  "elevation_m": elevation})
        cuts = sorted(rng.sample(range(1, n - 1), rng.randint(0, min(2, n - 2))))
        legs = []

        def fly(cells):
            return [planner.MissionLeg(TRANSITION_TO_FLY, cells[:1], 0.0, 0.5, 1.0),
                    planner.MissionLeg(FLY, cells, 4.0, rng.uniform(0.01, 0.5), 1.0),
                    planner.MissionLeg(TRANSITION_TO_GROUND, cells[-1:], 0.0, 0.5, 1.0)]

        for first, last in zip([0] + cuts, cuts + [n - 1]):
            cells = tuple((0, c) for c in range(first, last + 1))
            if legs and rng.random() < 0.25:
                legs += fly(cells)
            else:
                legs.append(planner.MissionLeg(DRIVE, cells, 1.0, rng.uniform(0.001, 0.5), 1.0))
        if repeat:
            legs += fly(legs[0].cells) + [legs[0]]
        mission = MissionPlan(start=(0, 0), goal=(0, n - 1), legs=tuple(legs),
                              total_energy_wh=sum(leg.energy_wh for leg in legs),
                              total_duration_s=float(len(legs)), n_transitions=0, feasible=True)
        return grid, mission

    def test_drive_legs_match_the_per_step_reference(self, model, monkeypatch):
        """Drive legs stepped through the speed law over floats, with their
        steady steps in jumps and each distinct edge driven once per report,
        give the report, in repr, of full steps until each edge is steady.
        Every third mission drives its first leg again and every fourth has
        long cells, so edges read back and multi-step jumps occur on any
        draw."""
        rng = random.Random(20261018)
        faults, seen = set(), set()
        real_leg, real_run = planner._simulate_drive_leg, planner.exact_run

        def leg_noting_reads(leg, *args):
            edges = args[-1]
            before = len(edges)
            energy = real_leg(leg, *args)
            if len(edges) - before < len(leg.cells) - 1:  # an edge not driven again
                seen.add("read back")
            return energy

        def run_noting_jumps(a, d, n):
            count, step = real_run(a, d, n)
            if count > 1:
                seen.add("jump")
            return count, step

        for case in range(36):
            grid, mission = self._random_mission(rng, repeat=case % 3 == 0,
                                                 long_cells=case % 4 == 1)
            payload = rng.choice([0.0, 0.0, rng.uniform(0.0, 1.3)])
            m = _replace(model, ground_coeffs={payload: model.ground_coeffs[0.0]},
                         flight_power_w={payload: model.flight_power_w[0.0]})
            c = cfg(drive_speed_mps=rng.choice([1.0, rng.uniform(0.2, 4.1)]))
            dt_s = rng.choice([0.001, 0.005, 0.02])
            with monkeypatch.context() as mp:
                mp.setattr(planner, "_simulate_drive_leg", leg_noting_reads)
                mp.setattr(planner, "exact_run", run_noting_jumps)
                fast = validate_plan(mission, grid, m, c, payload=payload, dt_s=dt_s)
            with monkeypatch.context() as mp:
                mp.setattr(planner, "_simulate_drive_leg",
                           lambda *args: reference_drive_leg(*args[:-1]))  # no memo
                slow = validate_plan(mission, grid, m, c, payload=payload, dt_s=dt_s)
            assert repr(fast) == repr(slow), f"case {case}"
            faults.update(leg.fault.split(":")[0] for leg in fast.legs if leg.fault)
            faults.update("timeout" for leg in fast.legs if leg.fault and "timed out" in leg.fault)
        assert faults == {"tip event", "simulation fault", "timeout"}
        assert seen == {"read back", "jump"}

    @pytest.mark.parametrize("last_step, above", [
        (2000, False), (3000, False), (3000, True),
    ], ids=["cut-in-a-jump", "at-the-step-limit", "just-past-the-limit"])
    def test_edge_ends_at_its_exact_step(self, model, last_step, above):
        # a flat edge whose length is the distance covered after `last_step`
        # steps (or the next float above it) ends at that step (or the one
        # after), deep in a steady stretch; past int(60 / dt) = 3000 steps it
        # times out
        dt_s, params, flat = 0.02, model.params, dynamics.SurfaceModel("flat")
        state = dynamics.initial_ground_state(params, flat)
        setpoint = dynamics.ControlSetpoint(mode=state.mode, speed_mps=1.0)
        covered, steady = 0.0, False
        for _ in range(last_step):  # as `reference_drive_leg` adds it up
            if not steady:
                previous, state = state, step(state, setpoint, flat, dt_s, params=params,
                                              rotor=model.rotor)
                v, steady = along_track_speed(state, flat), is_steady(previous, state)
            covered += v * dt_s
        assert steady
        cell = math.nextafter(covered, math.inf) if above else covered
        grid = terrain_from_dict({"width": 2, "height": 1, "cell_size_m": cell,
                                  "elevation_m": 0.0})
        leg = planner.MissionLeg(DRIVE, ((0, 0), (0, 1)), 1.0, 0.5, cell)
        mission = MissionPlan(start=(0, 0), goal=(0, 1), legs=(leg,), total_energy_wh=0.5,
                              total_duration_s=cell, n_transitions=0, feasible=True)
        report = validate_plan(mission, grid, model, cfg(), dt_s=dt_s)
        timed_out = last_step + above > 3000
        assert report.legs[0].fault == ("simulation fault: drive edge timed out"
                                        if timed_out else None)
        assert report.legs[0].simulated_wh == (0.0 if timed_out else reference_drive_leg(
            leg, grid, cfg(), model, 0.0, dt_s))

    def test_each_distinct_edge_is_stepped_once(self, monkeypatch):
        # both drive legs of multimodal-obstacle cross the same flat edges
        # from rest, so the second reads them back: stepping every edge of
        # both legs would take 8 726 ground steps, and one call takes 4 377
        # speed steps of its three distinct edges: 4 361 until the speed it
        # reads repeats, and 16 steady steps that no jump can take (a sum a
        # unit short of its binade's edge, say), which go through the law too
        real, steps = dynamics.speed_law, []

        def law(*args):
            read, advance = real(*args)

            def counted(v):
                steps.append(v)
                return advance(v)

            return read, counted

        monkeypatch.setattr(dynamics, "speed_law", law)
        scenario = load_scenario(bundled_scenarios()["multimodal-obstacle"])
        query, model = scenario.planner_query, scenario.power_model
        mission = plan(query.terrain, query.start, query.goal, query.config, model)
        report = validate_plan(mission, query.terrain, model, query.config)
        assert report.ok and [leg.mode for leg in mission.legs].count(DRIVE) == 2
        assert len(steps) == 4377

    @pytest.mark.parametrize("dt_s", [0.0, -0.001, math.nan, 0.5, 1e-300, 9.99e-6])
    def test_dt_outside_the_step_range_raises(self, model, dt_s):
        grid = terrain_from_ascii("....", cell_size_m=2.0)
        mission = plan(grid, (0, 0), (0, 3), cfg(), model)
        with pytest.raises(ValueError, match=r"dt_s .* outside \[1e-05, 0\.02\] s"):
            validate_plan(mission, grid, model, cfg(), dt_s=dt_s)

    def test_report_serializes(self, model):
        import json

        grid = terrain_from_ascii("....", cell_size_m=2.0)
        mission = plan(grid, (0, 0), (0, 3), cfg(), model)
        report = validate_plan(mission, grid, model, cfg())
        blob = json.dumps(report.to_json_dict())
        assert "predicted_total_wh" in blob

    # Digests of validation.json for a 12 x 5 field of 3 m cells split by a
    # 2-cell fence, flat, rising and falling along the route: drive, fly the
    # fence, drive on, with every drive edge sloped on the last two. They
    # pin the validated energies bit for bit. Regenerate only in a change
    # that states on purpose that it alters validation.
    @pytest.mark.parametrize("grade, digest", [
        (0.0, "4799e0ad5ece96db017c0b55c4252556417c5811f1e8d65f36d0adcf1a1eac53"),
        (0.05, "d757760667938f533193bc8261c9562ccf54e0f08dd542e744a543298e4ecaa9"),
        (-0.05, "347ca9c6d067c4fae764c98a725f73158d95361f520eec0eb0ebe6b5573a86ca"),
    ], ids=["flat", "rising", "falling"])
    def test_fenced_field_validation_pinned(self, tmp_path, grade, digest):
        width, height = 12, 5
        scenario = {
            "name": "fenced-field",
            "planner": {
                "terrain": {"width": width, "height": height, "cell_size_m": 3.0,
                            "elevation_m": [1.0 + grade * 3.0 * c for _ in range(height)
                                            for c in range(width)],
                            "obstacles": [[r, c] for r in range(height) for c in (5, 6)]},
                "start_cell": [2, 0],
                "goal_cell": [2, width - 1],
            },
            "validation": {"expect_fly_legs": 1},
            "seed": 0,
        }
        path = tmp_path / "fenced-field.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(["plan", str(path), "--validate", "--out", str(tmp_path / "out")]) == EXIT_OK
        report = (tmp_path / "out" / "validation.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == digest


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"drive_speed_mps": 0.0},
            {"fly_speed_mps": -1.0},
            {"slope_margin_deg": -0.1},
            {"transition_energy_wh": -1.0},
            {"transition_time_s": -1.0},
            {"fly_speed_mps": float("nan")},
            {"transition_energy_wh": float("inf")},
            {"drive_speed_mps": float("nan")},
            {"slope_margin_deg": float("nan")},
            {"transition_time_s": float("-inf")},
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(FieldError) as err:
            PlannerConfig(**kw)
        assert [err.value.key] == list(kw)


def _outcome(planner_fn, *args):
    """A plan, the message and explored states of its NoPathError, or the
    type and message of the pricing error it raises."""
    try:
        return planner_fn(*args)
    except NoPathError as exc:
        return str(exc), exc.explored
    except ValueError as exc:
        return type(exc), str(exc)


def _mode_indifferent(model, config):
    """The model and config with flying an edge priced exactly like driving
    it on the flat, so routes that differ only in where they switch mode tie
    and the (cell, mode) steps decide."""
    config = _replace(config, fly_speed_mps=config.drive_speed_mps)
    watts = model.ground_power(config.drive_speed_mps, 0.0)
    return _replace(model, flight_power_w={0.0: watts}), config


def _oriented_ascii(lines, flip, transpose):
    """The ASCII terrain of `lines`, each row reversed if flip and rows and
    columns swapped if transpose, and the cell of each marker letter (a
    free cell at 0 m)."""
    if flip:
        lines = [line[::-1] for line in lines]
    if transpose:
        lines = ["".join(column) for column in zip(*lines)]
    at = {ch: (r, c) for r, line in enumerate(lines) for c, ch in enumerate(line)
          if ch.isalpha()}
    return terrain_from_ascii("\n".join(lines), elevations=dict.fromkeys(at, 0.0)), at


def _switch_queue_log(monkeypatch):
    """Log every key that enters the search's mode-switch queue; the
    returned function gives the logged (cell, mode) nodes on a grid."""
    keys = []

    class Logged(deque):
        def append(self, key):
            keys.append(key)
            super().append(key)

        def insert(self, i, key):
            keys.append(key)
            super().insert(i, key)

    monkeypatch.setattr(planner, "deque", Logged)
    return lambda grid: [planner._cell_mode(node, grid.width + 2) for _, _, node in keys]


@st.composite
def planning_cases(draw):
    """Small grids of integer elevations with obstacles and no-fly cells,
    often split by an obstacle fence; flat stretches make many routes tie
    on energy and transitions. Now and then the payload is 2.0 kg: it is
    calibrated but over the MTOM, so a climb in flight or a sloped drive
    edge raises. Sometimes flight costs a quarter of its calibration, so
    a level fly edge is cheaper than a sloped drive edge and a fly twin
    (the fly node a settled drive node switches into) often has a move
    that improves on a neighbour: the search must queue it."""
    height = draw(st.integers(1, 9))
    width = draw(st.integers(1, 9))
    n = width * height
    elevation = draw(st.lists(st.integers(0, draw(st.sampled_from((0, 1, 3)))),
                              min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from("......#~"), min_size=n, max_size=n))
    fence = draw(st.none() | st.integers(0, width - 1))
    obstacles = [[i // width, i % width] for i, k in enumerate(kinds)
                 if k == "#" or i % width == fence]
    no_fly = [[i // width, i % width] for i, k in enumerate(kinds)
              if k == "~" and i % width != fence]
    grid = terrain_from_dict({
        "width": width, "height": height, "cell_size_m": draw(st.sampled_from((1.0, 3.0))),
        "elevation_m": [float(e) for e in elevation],
        "obstacles": obstacles, "no_fly": no_fly,
    })
    cell = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    transition = st.sampled_from((0.0, 0.27)) | st.floats(0.0, 0.5)
    model, config = default_power_model(), cfg(transition_energy_wh=draw(transition))
    if draw(st.booleans()):
        model, config = _mode_indifferent(model, config)
    payload = draw(st.sampled_from((0.0, 0.0, 0.0, 2.0)))
    start, goal = draw(cell), draw(cell)
    if draw(st.integers(0, 3)) == 0:
        model = _replace(model, flight_power_w={
            kg: watts / 4.0 for kg, watts in model.flight_power_w.items()})
    return grid, start, goal, config, model, None, payload


class TestMatchesReference:
    """The array search returns what the heap-of-paths reference returns:
    the same plan under the full tie-break, the same NoPathError."""

    @given(case=planning_cases())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_random_grids(self, case):
        assert _outcome(plan, *case) == _outcome(reference_planner.plan, *case)

    def test_climb_before_the_mass_check_is_priced(self, model):
        # over the MTOM a climb in flight raises. The goal is walled in by
        # obstacles, one sunk 1 m; the first climb the search meets is from
        # that one onto the goal, whose fly node already holds less energy
        # than the climb can give. No climb has been priced yet, so the mass
        # is unchecked and the move must be priced, and raise, as in the
        # reference.
        grid = terrain_from_dict({"width": 2, "height": 3, "cell_size_m": 1.0,
                                  "elevation_m": [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                                  "obstacles": [[0, 0], [1, 1]]})
        args = (grid, (2, 1), (0, 1), cfg(), model, None, 2.0)
        outcome = _outcome(plan, *args)
        assert outcome == (ValueError, "mass 4.7 kg exceeds MTOM 4.0 kg")
        assert outcome == _outcome(reference_planner.plan, *args)

    @pytest.mark.parametrize("transpose", [False, True], ids=["along-row", "along-column"])
    @pytest.mark.parametrize("flip", [False, True], ids=["forward", "reverse"])
    def test_only_takeoff_borders_no_fly_and_an_obstacle(self, model, monkeypatch,
                                                         flip, transpose):
        # S's twin settles first (the switch costs a little more than a
        # drive edge) and prices the climb onto the 1 m cell, which binds
        # the fly floor. The fly twins of X and Y, settled after it, cannot
        # move and skip the switch queue; T's twin, between no-fly cells
        # and beside the obstacle, is the only useful takeoff and must be
        # queued. Each orientation puts the obstacle at another of T's
        # four neighbours.
        lines = ["~~~~~~~~~", "1S.XYT#.G", "~~~~~~~~~"]
        grid, at = _oriented_ascii(lines, flip, transpose)
        queued = _switch_queue_log(monkeypatch)
        args = (grid, at["S"], at["G"], cfg(transition_energy_wh=0.01), model)
        mission = plan(*args)
        assert mission == reference_planner.plan(*args)
        assert [leg.cells for leg in mission.legs if leg.mode == TRANSITION_TO_FLY] \
            == [(at["T"],)]
        twins = [cell for cell, mode in queued(grid) if mode == FLY]
        assert at["T"] in twins
        assert at["X"] not in twins and at["Y"] not in twins

    def test_skipped_twins_are_explored(self, model, monkeypatch):
        # the goal is cut off by a no-fly cell; once the floor is bound,
        # the fly twins of X and Y cannot move and skip the switch queue,
        # but they hold an energy, so NoPathError lists them as the
        # reference does
        lines = ["~~~~~~~~", "1S.XY~.G", "~~~~~~~~"]
        grid, at = _oriented_ascii(lines, False, False)
        queued = _switch_queue_log(monkeypatch)
        args = (grid, at["S"], at["G"], cfg(transition_energy_wh=0.01), model, None, 0.0)
        outcome = _outcome(plan, *args)
        assert outcome == _outcome(reference_planner.plan, *args)
        twins = [cell for cell, mode in queued(grid) if mode == FLY]
        for cell in (at["X"], at["Y"]):
            assert cell not in twins
            assert (cell, FLY) in outcome[1]

    @pytest.mark.parametrize("indifferent, digest", [
        (False, "713cc93b7d9d7b9ee2b4f0426da91a05910c6c221d6680557abd19ccea457d10"),
        (True, "23ce94384f50f01b4bd3fa58038a5d6be2f4f7b86c9e147ff71fe931e2085172"),
    ], ids=["default-model", "mode-indifferent"])
    def test_fenced_flat_grid_plan_pinned(self, model, tmp_path, indifferent, digest):
        # 40 x 40 flat cells split by a full-height fence, free mode
        # switches: thousands of routes tie on energy and transitions, so
        # the bytes pin the tie-break; with flying priced like driving, the
        # place of each switch is left to the (cell, mode) steps. Digests
        # taken from the heap-of-paths planner; regenerate only in a change
        # that states on purpose that it alters plans.
        config = cfg(transition_energy_wh=0.0)
        scenario = json.loads(json.dumps(FENCED_FLAT_40))
        if indifferent:
            model, config = _mode_indifferent(model, config)
            scenario["planner"]["fly_speed_mps"] = config.fly_speed_mps
            scenario["power_model"] = {"flight_power_w": {"0.0": model.flight_power(0.0)}}
        path = tmp_path / "fenced-flat-40.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(["plan", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        plan_json = (tmp_path / "out" / "plan.json").read_bytes()
        assert hashlib.sha256(plan_json).hexdigest() == digest
        grid = terrain_from_dict(scenario["planner"]["terrain"])
        args = (grid, (34, 0), (5, 39), config, model)
        assert plan(*args) == reference_planner.plan(*args)


FENCED_FLAT_40 = {
    "name": "fenced-flat-40",
    "planner": {
        "terrain": {"width": 40, "height": 40, "cell_size_m": 3.0, "elevation_m": 0.0,
                    "obstacles": [[r, 20] for r in range(40)]},
        "start_cell": [34, 0],
        "goal_cell": [5, 39],
        "transition_energy_wh": 0.0,
    },
    "seed": 0,
}


def _relief_scenario():
    """60 x 60 relief, 3 m cells, elevation uniform in 0-0.5 m, split by a
    full-height fence of obstacles at a seeded column in the middle third,
    so a route across drives, flies over the fence and drives on."""
    n, rng = 60, random.Random(12)
    fence = rng.randrange(n // 3, 2 * n // 3)
    return {
        "name": f"relief-{n}",
        "planner": {
            "terrain": {"width": n, "height": n, "cell_size_m": 3.0,
                        "elevation_m": [rng.uniform(0.0, 0.5) for _ in range(n * n)],
                        "obstacles": [[r, fence] for r in range(n)]},
            "start_cell": [0, 0],
            "goal_cell": [n - 1, n - 1],
        },
        "seed": 0,
    }


class TestReliefPlansPinned:
    # Digests of plan.json for both diagonals of a seeded, fenced 60 x 60
    # relief grid. Every drive edge there is sloped and every route flies
    # the fence, so they pin the incline and climb pricing bit for bit.
    # Regenerate only in a change that states on purpose that it alters
    # plans.
    @pytest.mark.parametrize("start, goal, digest", [
        ((0, 0), (59, 59), "4f34051a12003a410efb96e04a957d004e98c7eda1ce35cef32a14f7b8693240"),
        ((59, 0), (0, 59), "f2a8a447b984dd61b148c6acc81caecfbd450cc339128c50fb4854a9f0a8e23a"),
    ], ids=["main-diagonal", "anti-diagonal"])
    def test_relief_grid_plan_pinned(self, model, tmp_path, start, goal, digest):
        scenario = _relief_scenario()
        scenario["planner"]["start_cell"], scenario["planner"]["goal_cell"] = start, goal
        path = tmp_path / "relief-60.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(["plan", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        plan_json = (tmp_path / "out" / "plan.json").read_bytes()
        assert hashlib.sha256(plan_json).hexdigest() == digest
        grid = terrain_from_dict(scenario["planner"]["terrain"])
        args = (grid, start, goal, cfg(), model)
        assert plan(*args) == reference_planner.plan(*args)

    def test_fly_moves_that_cannot_improve_go_unpriced(self, model, monkeypatch):
        # no fly edge costs less than the level one, so a fly move onto a
        # node that already holds less than that above the settled node is
        # skipped: about 600 fly pricings, legs included, where pricing
        # every fly move takes 6 593
        real, counts = planner._edge_pricer, []

        class Counted:
            def __init__(self, price):
                self.price = price

            def __call__(self, dh):
                counts.append(dh)
                return self.price(dh)

            @property
            def floor(self):
                return self.price.floor

        def pricer(mode, *args):
            price = real(mode, *args)
            return Counted(price) if mode == FLY else price

        monkeypatch.setattr(planner, "_edge_pricer", pricer)
        grid = terrain_from_dict(_relief_scenario()["planner"]["terrain"])
        mission = plan(grid, (0, 0), (59, 59), cfg(), model)
        assert any(leg.mode == FLY for leg in mission.legs)
        assert 0 < len(counts) < 1000

    def test_mode_switches_skip_the_heap(self, model, monkeypatch):
        # a mode switch's key goes to its own sorted queue, not the heap:
        # 4 774 heap pushes, where pushing every relaxation takes 8 220
        real, pushes = heapq.heappush, []

        def push(heap, item):
            pushes.append(item)
            real(heap, item)

        monkeypatch.setattr(heapq, "heappush", push)
        grid = terrain_from_dict(_relief_scenario()["planner"]["terrain"])
        mission = plan(grid, (0, 0), (59, 59), cfg(), model)
        assert mission.n_transitions == 2
        assert 0 < len(pushes) < 6000

    def test_fly_twins_that_cannot_move_skip_the_switch_queue(self, model, monkeypatch):
        # a settled drive node's fly twin goes to the switch queue only if
        # one of its fly moves could improve or tie a neighbour: 614 queued
        # switches, where queueing every twin takes 3 446
        queued = _switch_queue_log(monkeypatch)
        grid = terrain_from_dict(_relief_scenario()["planner"]["terrain"])
        mission = plan(grid, (0, 0), (59, 59), cfg(), model)
        assert mission.n_transitions == 2
        assert 0 < len(queued(grid)) < 1000

    def test_twin_whose_move_ties_a_neighbour_is_queued(self):
        """A fly twin with a move that ties a neighbour's energy must settle:
        the tie goes to the route that sorts first. U's twin, at 4.5 Wh with
        the fly floor 1.0 Wh, reaches W for 5.5 Wh, which W already holds
        from Y with as many transitions; the route through U sorts first,
        so W's parent becomes U's twin."""
        # row 0: start S, U; row 1: Y, goal W
        grid = terrain_from_dict({"width": 2, "height": 2, "cell_size_m": 1.0,
                                  "elevation_m": [0.0, 5.0, 0.5, 3.0]})
        trav = planner.Traversability(drivable=((True,) * 2,) * 2, flyable=((True,) * 2,) * 2)

        def drive(dh):  # S to U 4 Wh, every other edge 100 Wh
            return 4.0 if dh == 5.0 else 100.0

        def fly(dh):  # S to Y and every level or descending edge 1 Wh, Y to W 4 Wh
            return {0.5: 1.0, 2.5: 4.0}.get(dh, 1.0 if dh <= 0.0 else 10.0)

        fly.floor = 1.0
        wh, n_transitions, steps = planner._search(grid, trav, (0, 0), (1, 1),
                                                   (drive, fly), 0.5)
        assert (wh, n_transitions) == (6.0, 2)
        assert steps == [((0, 0), DRIVE), ((0, 1), DRIVE), ((0, 1), FLY), ((1, 1), FLY),
                         ((1, 1), DRIVE)]

    def test_switch_keys_an_ulp_apart_settle_in_heap_order(self):
        """A fly node settled at energy 1.0 and a drive node settled after it
        one ulp higher both switch mode at 1.0 Wh: both sums round to 2.0,
        and the later switch, with one transition fewer, settles first, as
        in one heap of every key. The settle order shows in the order of
        the pricer calls, each edge told apart by its elevation change."""
        # row 0: Y, start, X; row 1: Y', goal, X'
        grid = terrain_from_dict({"width": 3, "height": 2, "cell_size_m": 1.0,
                                  "elevation_m": [-1.0, 0.0, 3.0, -10.0, -20.0, 30.0]})
        trav = planner.Traversability(drivable=((True,) * 3,) * 2, flyable=((True,) * 3,) * 2)
        calls = []

        def drive(dh):  # start to Y one ulp over 1.0 Wh, every other edge 10 Wh
            calls.append((DRIVE, dh))
            return math.nextafter(1.0, 2.0) if dh == -1.0 else 10.0

        def fly(dh):  # start to X for almost nothing, every other edge 5 Wh
            calls.append((FLY, dh))
            return 1e-17 if dh == 3.0 else 5.0

        fly.floor = -math.inf
        wh, n_transitions, _ = planner._search(grid, trav, (0, 1), (1, 1), (drive, fly), 1.0)
        assert (wh, n_transitions) == (7.0, 2)
        assert calls == [
            (DRIVE, -1.0), (DRIVE, 3.0), (DRIVE, -20.0),  # start, drive: 0 Wh
            (FLY, -1.0), (FLY, 3.0), (FLY, -20.0),  # start, fly: 1.0 Wh
            (FLY, 27.0),  # X, fly: 1.0 Wh, 1 transition; its switch's key (2.0, 2)
            # Y, drive: 1.0 Wh + 1 ulp, 0 transitions; its switch's key (2.0, 1)
            (DRIVE, -9.0),
            (FLY, -9.0),  # Y, fly: (2.0, 1), before X, drive: (2.0, 2)
            (DRIVE, 27.0),
            (FLY, 10.0), (FLY, 50.0),  # goal, fly: 6.0 Wh
        ]


def _two_cells(dh):
    return terrain_from_dict({"width": 2, "height": 1, "cell_size_m": 3.0,
                              "elevation_m": [0.0, dh]})


class TestDrivePricer:
    """The per-plan drive pricer against the reference's edge-at-a-time
    pricing through `PowerModel.incline_power`."""

    def test_matches_reference_bit_for_bit(self, model):
        rng = random.Random(3)
        tip_dh = 3.0 * math.tan(math.radians(tipping_slope(model.params)))
        cases = [0.0, 1e-300, -1e-300, tip_dh, -tip_dh]
        cases += [rng.uniform(-1.0, 1.0) * rng.choice((1e-6, 0.01, 0.5, 3.0, tip_dh))
                  for _ in range(4000)]
        for config in (cfg(), cfg(drive_speed_mps=4.1), cfg(drive_speed_mps=0.37)):
            price = planner._edge_pricer(DRIVE, 3.0, config, model, 0.0)
            for dh in cases:
                expected = reference_planner.drive_edge_energy_wh(
                    _two_cells(dh), (0, 0), (0, 1), config, model)
                assert price(dh) == expected, dh
                fresh = planner._edge_pricer(DRIVE, 3.0, config, model, 0.0)
                assert fresh(dh) == expected, dh

    @pytest.mark.parametrize("payload, flat, sloped", [
        (0.5, energy.UnknownPayloadError, energy.UnknownPayloadError),
        (2.0, float, ValueError),  # calibrated, over MTOM: the hold checks the mass
        (1.5, energy.UnknownPayloadError, ValueError),  # the mass is checked first
    ], ids=["unknown", "over-mtom", "unknown-and-over-mtom"])
    def test_errors_at_the_same_edge(self, model, payload, flat, sloped):
        price = planner._edge_pricer(DRIVE, 3.0, cfg(), model, payload)
        for dh in (0.0, 0.25, 0.0, -0.25):
            outcome = _outcome_of(price, dh)
            assert outcome[0] is (flat if dh == 0.0 else sloped), dh
            assert outcome == _outcome_of(
                reference_planner.drive_edge_energy_wh, _two_cells(dh), (0, 0), (0, 1),
                cfg(), model, payload), dh

    def test_saturated_hold_raises_at_its_edge(self, model):
        weak = _replace(model, rotor=_replace(model.rotor, thrusts=tuple(
            t / 4.0 for t in model.rotor.thrusts)))
        price = planner._edge_pricer(DRIVE, 3.0, cfg(), weak, 0.0)
        for dh in (0.1, 3.0, 0.1):
            outcome = _outcome_of(price, dh)
            assert outcome == _outcome_of(reference_planner.drive_edge_energy_wh,
                                          _two_cells(dh), (0, 0), (0, 1), cfg(), weak), dh
        assert outcome[0] is float
        assert _outcome_of(price, 3.0)[0] is ThrustSaturationError

    @pytest.mark.parametrize("relief", [False, True], ids=["flat", "relief"])
    @pytest.mark.parametrize("payload", [0.5, 2.0, 1.5], ids=[
        "unknown", "over-mtom", "unknown-and-over-mtom"])
    def test_plan_fails_like_the_reference(self, model, relief, payload):
        rng = random.Random(5)
        grid = terrain_from_dict({
            "width": 8, "height": 6, "cell_size_m": 3.0,
            "elevation_m": [rng.uniform(0.0, 0.5) if relief else 0.0 for _ in range(48)],
            "obstacles": [[r, 4] for r in range(6)],
        })
        args = (grid, (0, 0), (5, 7), cfg(), model, None, payload)
        outcome = _outcome_of(plan, *args)
        assert outcome == _outcome_of(reference_planner.plan, *args)
        if payload == 2.0 and not relief:
            assert outcome[0] is MissionPlan  # priced on the flat, as at MTOM
        else:
            assert issubclass(outcome[0], ValueError)


def _outcome_of(fn, *args):
    """(type, value) of what fn returns, or (type, message) of what it raises."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(value), value
