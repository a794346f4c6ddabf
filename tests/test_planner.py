"""Route planner: traversability classes, optimal plans, validation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flydrive import energy, planner, terrain
from flydrive.defaults import default_batteries, default_power_model
from flydrive.planner import (
    DRIVE,
    FLY,
    TRANSITION_TO_FLY,
    TRANSITION_TO_GROUND,
    MissionPlan,
    NoPathError,
    PlannerConfig,
    classify_traversability,
    drive_edge_energy_wh,
    fly_edge_energy_wh,
    plan,
    validate_plan,
)
from flydrive.terrain import terrain_from_ascii, terrain_from_dict


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
        assert trav.flyable_at((0, 0)) and trav.flyable_at((0, 1))

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
        assert trav.flyable_at((0, 1))

    def test_no_fly_cell_blocks_flight(self, model):
        # cell classes are exclusive: a keep-out cell is not a Free cell,
        # so it blocks both modes
        grid = terrain_from_ascii(".~.")
        trav = classify_traversability(grid, model.params, cfg())
        assert not trav.flyable_at((0, 1))
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
        assert all(grid.class_at(c) != terrain.NO_FLY for c in fly_leg.cells)
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
        grid = terrain_from_dict(
            {
                "width": 2,
                "height": 1,
                "cell_size_m": 2.0,
                "elevation_m": [0.0, rise],
            }
        )
        c = cfg()
        up = drive_edge_energy_wh(grid, (0, 0), (0, 1), c, model)
        flat = model.ground_power(c.drive_speed_mps, 0.0) * 2.0 / 3600.0
        assert up > flat
        # grade resistance is direction-symmetric in this model
        down = drive_edge_energy_wh(grid, (0, 1), (0, 0), c, model)
        assert down == up

    def test_fly_edges_price_climb_only(self, model):
        grid = terrain_from_dict(
            {
                "width": 2,
                "height": 1,
                "cell_size_m": 2.0,
                "elevation_m": [0.0, 3.0],
            }
        )
        c = cfg()
        up = fly_edge_energy_wh(grid, (0, 0), (0, 1), c, model)
        down = fly_edge_energy_wh(grid, (0, 1), (0, 0), c, model)
        level = model.flight_power(0.0) * (2.0 / c.fly_speed_mps) / 3600.0
        assert down == pytest.approx(level, rel=1e-12)
        climb_wh = model.params.total_mass(0.0) * model.params.gravity * 3.0 / 3600.0
        assert up == pytest.approx(level + climb_wh, rel=1e-12)


class TestPlanInvariants:
    @given(extra=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=20, deadline=None)
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
        mirror = grid.mirrored()
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

    def test_report_serializes(self, model):
        import json

        grid = terrain_from_ascii("....", cell_size_m=2.0)
        mission = plan(grid, (0, 0), (0, 3), cfg(), model)
        report = validate_plan(mission, grid, model, cfg())
        blob = json.dumps(report.to_json_dict())
        assert "predicted_total_wh" in blob


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"drive_speed_mps": 0.0},
            {"fly_speed_mps": -1.0},
            {"slope_margin_deg": -0.1},
            {"transition_energy_wh": -1.0},
            {"transition_time_s": -1.0},
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ValueError):
            PlannerConfig(**kw)
