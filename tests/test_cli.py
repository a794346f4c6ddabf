"""Scenario files and the command-line front end."""

import argparse
import contextlib
import copy
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from flydrive import cli, dynamics
from flydrive.cli import EXIT_INPUT, EXIT_OK, EXIT_VALIDATION, bundled_scenarios, main
from flydrive.defaults import default_params
from flydrive.dynamics import SPEED, VELOCITY, Mode
from flydrive.scenario import (
    BATTERY,
    VEHICLE,
    ScenarioError,
    build_simulator,
    initial_state_for,
    load_scenario,
    run_scenario,
)
from flydrive.terrain import TerrainError
from flydrive.vehicle import RotorTableError
import reference_simulator
from reference_simulator import reference_run

BUNDLED = [
    "confined-space",
    "incline-33",
    "multimodal-obstacle",
    "rocky-soil",
    "wall-climb",
]


def write_scenario(tmp_path, payload, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


MINI_DRIVE = {
    "name": "mini",
    "duration_s": 2.0,
    "script": [{"t_s": 0.0, "mode": "ground", "speed_mps": 1.0}],
    "validation": {"min_distance_m": 0.5},
    "seed": 7,
}

MINI_PLAN = {
    "name": "miniplan",
    "planner": {
        "terrain": {"width": 4, "height": 1, "cell_size_m": 2.0, "elevation_m": 0.0},
        "start_cell": [0, 0],
        "goal_cell": [0, 3],
    },
    "validation": {"expect_fly_legs": 0},
    "seed": 3,
}


def _runaway(monkeypatch, mode, velocity, speed):
    """Make every step in `mode` end at `velocity`, reading `speed`, as a
    vehicle far lighter than its rotors would (the loader refuses one)."""
    real = dynamics.step_law

    def law(state, *args):
        advance = real(state, *args)
        if state.mode is not mode:
            return advance

        def runaway(f):
            g = advance(f)
            return (*g[:VELOCITY.start], *velocity, *g[VELOCITY.stop:SPEED], speed, *g[SPEED + 1:])
        return runaway

    monkeypatch.setattr(dynamics, "step_law", law)


class TestScenarioLoading:
    def test_bundled_scenarios_all_parse(self):
        found = bundled_scenarios()
        assert sorted(found) == BUNDLED
        for name, path in found.items():
            scenario = load_scenario(path)
            assert scenario.name == name

    def test_json_error_carries_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n  oops\n}', encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"broken\.json:3:3"):
            load_scenario(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="no such file"):
            load_scenario(str(tmp_path / "nope.json"))

    def test_unknown_top_level_key(self, tmp_path):
        path = write_scenario(tmp_path, {"name": "x", "warp_drive": True})
        with pytest.raises(ScenarioError, match=r"scn\.json: warp_drive: unknown"):
            load_scenario(path)

    def test_missing_name(self, tmp_path):
        path = write_scenario(tmp_path, {"duration_s": 1.0})
        with pytest.raises(ScenarioError, match="name: missing required key"):
            load_scenario(path)

    def test_script_times_must_increase(self, tmp_path):
        bad = dict(MINI_DRIVE)
        bad["script"] = [
            {"t_s": 1.0, "mode": "ground", "speed_mps": 1.0},
            {"t_s": 1.0, "mode": "ground", "speed_mps": 0.5},
        ]
        path = write_scenario(tmp_path, bad)
        with pytest.raises(ScenarioError, match=r"script\[1\]\.t_s: .*strictly increasing"):
            load_scenario(path)

    def test_setpoint_needs_mode(self, tmp_path):
        bad = dict(MINI_DRIVE)
        bad["script"] = [{"t_s": 0.0, "speed_mps": 1.0}]
        path = write_scenario(tmp_path, bad)
        with pytest.raises(ScenarioError, match=r"script\[0\]\.mode"):
            load_scenario(path)

    def test_unknown_script_key(self, tmp_path):
        bad = dict(MINI_DRIVE)
        bad["script"] = [{"t_s": 0.0, "mode": "ground", "speed_mps": 1.0, "warp": 9}]
        path = write_scenario(tmp_path, bad)
        with pytest.raises(ScenarioError, match="warp"):
            load_scenario(path)

    def test_unknown_validation_key(self, tmp_path):
        bad = dict(MINI_DRIVE)
        bad["validation"] = {"min_distance_m": 1.0, "max_sparkle": 2}
        path = write_scenario(tmp_path, bad)
        with pytest.raises(ScenarioError, match="max_sparkle"):
            load_scenario(path)

    def test_bad_battery_id(self, tmp_path):
        bad = dict(MINI_DRIVE)
        bad["batteries"] = [
            {"battery_id": "prop_z", "cells_series": 4, "capacity_ah": 5.0}
        ]
        path = write_scenario(tmp_path, bad)
        with pytest.raises(ScenarioError, match=r"batteries\[0\]\.battery_id"):
            load_scenario(path)

    def test_unknown_vehicle_override(self, tmp_path, capsys):
        # all but the first were vehicle parameters that nothing read
        for key in ("warp_mass", "rotor_torque_coeff", "tilt_axle_count", "payload_mass",
                    "body_dims", "wheel_ground_clearance", "rotor_positions", "inertia"):
            bad = dict(MINI_DRIVE)
            bad["vehicle_overrides"] = {key: 1.0}
            path = write_scenario(tmp_path, bad)
            with pytest.raises(ScenarioError, match=rf"vehicle_overrides\.{key}"):
                load_scenario(path)
            rc = main(["simulate", path, "--out", str(tmp_path / "out")])
            assert rc == EXIT_INPUT
            assert f"vehicle_overrides.{key}" in capsys.readouterr().err

    def test_unknown_planner_key(self, tmp_path, capsys):
        # fly_clearance_m was a planner setting that nothing read
        for key in ("warp_factor", "fly_clearance_m"):
            bad = json.loads(json.dumps(MINI_PLAN))
            bad["planner"][key] = 2.0
            path = write_scenario(tmp_path, bad)
            with pytest.raises(ScenarioError, match=rf"scn\.json: planner\.{key}: unknown key"):
                load_scenario(path)
            rc = main(["plan", path, "--out", str(tmp_path / "out")])
            assert rc == EXIT_INPUT
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("keypath, value", [
        ("surface.rolling_resistance", "0.1"),
        ("surface.lateral_friction", float("nan")),
        ("surface.rolling_resistance", True),
        ("surface.slope_deg", "33"),
        ("validation.steady_speed_mps", "1"),
        ("validation.forbid_faults", "yes"),
        ("validation.expect_fly_legs", 1.5),
        ("validation.max_speed_error_frac", None),
        ("validation.max_speed_error_frac", -0.05),
        ("validation.max_leg_deviation_frac", -0.5),
        ("validation.expect_fly_legs", -1),
        ("initial.heading_deg", "north"),
        ("initial.height_m", float("inf")),
        ("initial.tilt_deg", [135]),
        ("initial.position_m", [0.0, "east"]),
        ("payload_kg", float("nan")),
        ("duration_s", True),
        ("script[0].speed_mps", float("nan")),
        ("script[0].speed_mps", "1"),
        ("script[0].yaw_rate_radps", True),
        ("script[0].target_yaw_deg", None),
        ("script[0].target_position_m[1]", [8.0, "2", 3.0]),
        ("surface.rolling_resistence", 0.3),
        ("surface.slope_deg", None),
        ("initial.heding_deg", 90.0),
        ("validation.min_distanse_m", 1.0),
        ("vehicle_overrides.empty_mass", "1"),
        ("rotor_table", ""),
        ("seed", 1.5),
    ])
    def test_mistyped_value_names_file_and_key(self, tmp_path, capsys, keypath, value):
        bad = dict(MINI_DRIVE)
        block, _, key = keypath.rpartition(".")
        if block == "script[0]":
            bad["script"] = [{"t_s": 0.0, "mode": "ground", key.partition("[")[0]: value}]
        elif block:
            bad[block] = {key: value}
        else:
            bad[key] = value
        path = write_scenario(tmp_path, bad)
        rc = main(["simulate", path, "--out", str(tmp_path / "out")])
        assert rc == EXIT_INPUT
        assert f"scn.json: {keypath}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before the run

    def test_null_seed_means_none(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, {**MINI_DRIVE, "seed": None}))
        assert scenario.seed is None

    def test_null_validation_threshold_means_unchecked(self, tmp_path):
        spec = dict(MINI_DRIVE)
        spec["validation"] = {"steady_speed_mps": None, "min_distance_m": 0.5}
        scenario = load_scenario(write_scenario(tmp_path, spec))
        assert scenario.validation.steady_speed_mps is None
        assert scenario.validation.min_distance_m == 0.5

    def test_inline_terrain_and_config_parse(self, tmp_path):
        path = write_scenario(tmp_path, MINI_PLAN)
        scenario = load_scenario(path)
        assert scenario.is_planning
        assert scenario.planner_query.terrain.width == 4
        assert scenario.planner_query.start == (0, 0)
        assert scenario.planner_query.goal == (0, 3)

    def test_ground_calibration_override(self, tmp_path):
        custom = dict(MINI_DRIVE)
        custom["power_model"] = {
            "ground_calibration": {"0.0": [[1.0, 29.8], [4.1, 171.4]]}
        }
        path = write_scenario(tmp_path, custom)
        scenario = load_scenario(path)
        assert scenario.power_model.ground_power(1.0, 0.0) == pytest.approx(29.8)
        assert scenario.power_model.ground_power(4.1, 0.0) == pytest.approx(171.4)

    def test_negative_payload_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {"name": "x", "payload_kg": -1.0})
        with pytest.raises(ScenarioError, match="payload_kg"):
            load_scenario(path)

    @pytest.mark.parametrize("command, spec", [("simulate", MINI_DRIVE), ("plan", MINI_PLAN)])
    def test_payload_over_mtom_names_its_key(self, tmp_path, capsys, command, spec):
        # 2.0 kg has a ground calibration, but 2.7 + 2.0 kg exceeds the MTOM
        path = write_scenario(tmp_path, {**spec, "payload_kg": 2.0})
        assert main([command, path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert "error: scn.json: payload_kg: mass 4.7 kg exceeds MTOM 4.0 kg" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    GROUND_ONLY_0_5 = {"payload_kg": 0.5, "power_model": {
        "ground_calibration": {"0.5": [[1.0, 29.8], [4.1, 171.4]]}}}

    @pytest.mark.parametrize("command, spec", [
        ("simulate", {**MINI_DRIVE, "duration_s": 4.0, "script": [
            {"t_s": 0.0, "transition_to": "flight", "mode": "flight",
             "target_position_m": [5.0, 0.0, 2.0]}]}),
        ("plan", {**MINI_PLAN, "validation": {}, "planner": {
            **MINI_PLAN["planner"], "terrain": {"width": 4, "height": 1, "cell_size_m": 2.0,
                                                "elevation_m": 0.0, "obstacles": [[0, 1]]}}}),
    ], ids=["simulate-cruise", "plan-over-fence"])
    def test_missing_flight_calibration_names_its_key(self, tmp_path, capsys, command, spec):
        # 0.5 kg is calibrated on the ground only, and the run has to cruise
        path = write_scenario(tmp_path, {**spec, **self.GROUND_ONLY_0_5})
        assert main([command, path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: scn.json: payload_kg: no flight calibration for payload 0.5 kg "
            "(known: [0.0, 2.0])\n")
        assert not (tmp_path / "out").exists()

    def test_plan_without_a_fly_edge_needs_no_flight_calibration(self, tmp_path):
        path = write_scenario(tmp_path, {**MINI_PLAN, **self.GROUND_ONLY_0_5})
        assert main(["plan", path, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "plan.json").exists()

    def test_lightest_vehicle_the_rotors_allow_loads(self, tmp_path):
        rotor = load_scenario(write_scenario(tmp_path, MINI_DRIVE)).rotor
        lightest = 4.0 * rotor.max_thrust / (20.0 * 9.81)
        spec = {**MINI_DRIVE, "vehicle_overrides": {"empty_mass": lightest}}
        assert load_scenario(write_scenario(tmp_path, spec)).params.empty_mass == lightest

    @pytest.mark.parametrize("key", ["payload_kg", "duration_s", "avionics_power_w"])
    def test_negative_amount_exits_2_with_its_key(self, tmp_path, capsys, key):
        path = write_scenario(tmp_path, dict(MINI_DRIVE, **{key: -1.0}))
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert f"scn.json: {key}: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, keypath", [
        ("fly_speed_mps", float("nan"), "planner.fly_speed_mps"),
        ("drive_speed_mps", True, "planner.drive_speed_mps"),
        ("transition_energy_wh", "5", "planner.transition_energy_wh"),
        pytest.param("transition_time_s", 10**400, "planner.transition_time_s",
                     id="transition_time_s-400-digit-int"),
        ("slope_margin_deg", float("inf"), "planner.slope_margin_deg"),
        ("start_cell", [0, 0.9], "planner.start_cell[1]"),
        ("start_cell", [True, 0], "planner.start_cell[0]"),
        ("goal_cell", [0, "x"], "planner.goal_cell[1]"),
        ("goal_cell", [0, 4], "planner.goal_cell"),
        ("drive_speed_mps", 1e308, "planner.drive_speed_mps: must be in (0, 4.1]"),
        ("terrain", "", "planner.terrain: file not found"),
        ("terrain", "missing.json", "planner.terrain: file not found"),
    ])
    def test_mistyped_planner_value_names_file_and_key(self, tmp_path, capsys,
                                                       key, value, keypath):
        bad = json.loads(json.dumps(MINI_PLAN))
        bad["planner"][key] = value
        path = write_scenario(tmp_path, bad)
        rc = main(["plan", path, "--out", str(tmp_path / "out")])
        assert rc == EXIT_INPUT
        assert f"scn.json: {keypath}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # no plan.json with NaN in it

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0])
    @pytest.mark.parametrize("key, rule", [
        ("drive_speed_mps", "must be in (0, 4.1]"),
        ("fly_speed_mps", "must be finite and > 0"),
        ("transition_energy_wh", "must be finite and >= 0"),
        ("transition_time_s", "must be finite and >= 0"),
        ("slope_margin_deg", "must be finite and >= 0"),
    ])
    def test_bad_planner_number_names_its_field(self, tmp_path, capsys, key, rule, value):
        # a non-finite number fails as it is read, a negative one at the
        # setting's own check; both exit 2 at planner.<field>
        bad = json.loads(json.dumps(MINI_PLAN))
        bad["planner"][key] = value
        path = write_scenario(tmp_path, bad)
        assert main(["plan", path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        reason = rule if math.isfinite(value) else f"expected float, got {value!r}"
        assert f"scn.json: planner.{key}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keypath, value", [
        ("flight_power_w.0.0", -500.0),
        ("flight_power_w.0.0", 0.0),
        ("flight_power_w.0.0", float("nan")),
        ("flight_power_w.0.0", "100"),
        ("hover_power_w", -1.0),
        ("hover_power_w", "x"),
        ("wall_wake_factor", 0.0),
        ("wall_wake_factor", True),
    ])
    def test_bad_power_model_names_file_and_key(self, tmp_path, capsys, keypath, value):
        # a 5x1 strip blocked in the middle: the plan must fly one leg
        spec = json.loads(json.dumps(MINI_PLAN))
        spec["planner"]["terrain"] = {"width": 5, "height": 1, "cell_size_m": 2.0,
                                      "obstacles": [[0, 2]]}
        spec["planner"]["goal_cell"] = [0, 4]
        key, _, payload = keypath.partition(".")
        spec["power_model"] = {key: {payload: value} if payload else value}
        out = tmp_path / "out"
        assert main(["plan", write_scenario(tmp_path, spec), "--out", str(out)]) == EXIT_INPUT
        assert f"scn.json: power_model.{keypath}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, keypath", [
        ("cell_size_m", "3", "cell_size_m"),
        ("cell_size_m", 0, "cell_size_m"),
        ("width", 4.0, "width"),
        ("height", True, "height"),
        ("elevation_m", float("nan"), "elevation_m"),
        ("elevation_m", [0.0, 0.0, "1", 0.0], "elevation_m[2]"),
        ("elevation_m", [0.0, 0.0, 0.0, 10**400], "elevation_m[3]"),
        ("obstacles", [[0]], "obstacles[0]"),
        ("obstacles", [[0, 1], [0, 1.0]], "obstacles[1]"),
        ("no_fly", [[True, 1]], "no_fly[0]"),
        ("no_fly", "all", "no_fly"),
        ("elevation", 3.0, "elevation: unknown key"),
    ])
    def test_mistyped_terrain_value_names_file_and_key(self, tmp_path, capsys,
                                                       key, value, keypath):
        bad = json.loads(json.dumps(MINI_PLAN))
        bad["planner"]["terrain"][key] = value
        path = write_scenario(tmp_path, bad)
        out = tmp_path / "out"
        assert main(["plan", path, "--out", str(out)]) == EXIT_INPUT
        assert f"scn.json: planner.terrain.{keypath}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block, value, keypath", [
        ("power_model", {"ground_calibration": {"0.0": [["1.0", "29.8"], ["4.1", "nan"]]}},
         "power_model.ground_calibration.0.0[0][0]"),
        ("power_model", {"ground_calibration": {"0.0": [[1.0, 29.8], [4.1, float("nan")]]}},
         "power_model.ground_calibration.0.0[1][1]"),
        ("power_model", {"ground_calibration": {"0.0": [[1.0, 29.8], [4.1]]}},
         "power_model.ground_calibration.0.0: expected a list of [speed_mps, power_w] pairs"),
        ("power_model", {"ground_calibration": {"0.0": [[0.01, 0.0], [0.02, 1e304]]}},
         "power_model.ground_calibration.0.0: calibration overflows"),
        ("batteries", [{"battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0,
                        "nominal_cell_voltage": "nan"}], "batteries[0].nominal_cell_voltage"),
        ("batteries", [{"battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0,
                        "soc": float("nan")}], "batteries[0].soc"),
        ("batteries", [{"battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0,
                        "usable_fraction": True}], "batteries[0].usable_fraction"),
        ("batteries", [{"battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0,
                        "cutoff_cell_voltage": None}], "batteries[0].cutoff_cell_voltage"),
        ("batteries", [{"battery_id": "prop_a", "cells_series": 4, "capacity_ah": "5"}],
         "batteries[0].capacity_ah"),
        ("batteries", [{"battery_id": "prop_a", "capacity_ah": 5.0}],
         "batteries[0].cells_series: missing required key"),
        ("batteries", [{"battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0,
                        "capacity_wh": 74.0}], "batteries[0].capacity_wh: unknown key"),
        ("batteries", [{"battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0}] * 2,
         "batteries[1].battery_id: duplicate 'prop_a'"),
        ("power_model", {"ground_calibration": {"nan": [[1.0, 29.8], [4.1, 171.4]],
                                                "0.0": [[1.0, 29.8], [4.1, 171.4]]}},
         "power_model.ground_calibration.nan: payload keys must be finite numbers"),
        ("power_model", {"flight_power_w": {"0": 800.0, "inf": 900.0}},
         "power_model.flight_power_w.inf: payload keys must be finite numbers"),
        ("power_model", {"flight_power_w": {"0": 800.0, "0.0": 900.0}},
         "power_model.flight_power_w.0.0: payload 0.0 kg given twice"),
        ("power_model", {"hover_powr_w": 500.0}, "power_model.hover_powr_w: unknown key"),
        # c1 = -20, c3 = 30: negative power below 0.82 m/s
        ("power_model", {"ground_calibration": {"0.0": [[1.0, 10.0], [2.0, 200.0]]}},
         "power_model.ground_calibration.0.0: fit P(v) = -20.0 v + 30.0 v^3 is not > 0"),
        # c1 = 60, c3 = -4: negative power above 3.87 m/s
        ("power_model", {"ground_calibration": {"0.0": [[1.0, 56.0], [2.0, 88.0]]}},
         "power_model.ground_calibration.0.0: fit P(v)"),
    ])
    def test_bad_calibration_or_battery_value_names_file_and_key(self, tmp_path, capsys,
                                                                 block, value, keypath):
        # each is rejected at load, before a NaN can reach the run or ledger.json
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {**MINI_DRIVE, block: value})
        assert main(["simulate", path, "--out", str(out)]) == EXIT_INPUT
        assert f"scn.json: {keypath}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, spec", [("simulate", MINI_DRIVE), ("plan", MINI_PLAN)])
    def test_uncalibrated_payload_rejected_at_load(self, tmp_path, capsys, command, spec):
        path = write_scenario(tmp_path, {**spec, "payload_kg": 1.3})
        with pytest.raises(ScenarioError, match="scn.json: payload_kg: no ground calibration"):
            load_scenario(path)
        assert main([command, path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert "scn.json: payload_kg: no ground calibration" in capsys.readouterr().err

    @pytest.mark.parametrize("block, value, keypath", [
        ("vehicle_overrides", {"empty_mass": 0}, "vehicle_overrides.empty_mass: must be > 0"),
        ("duration_s", 1e308, "duration_s: 1e+308 s is too many steps"),
        ("power_model", {"ground_calibration": {"0.0": [[1e308, 1.0], [2.0, 3.0]]}},
         "power_model.ground_calibration.0.0: calibration overflows"),
        # the rotors' full thrust 72.3 N would be about 2.5e300 times its weight
        ("vehicle_overrides", {"empty_mass": 1e-300},
         "vehicle_overrides.empty_mass: 1e-300 kg weighs 9.81e-300 N at 9.81 m/s^2; the "
         "rotors' full thrust 72.3 N may be at most 20 times the empty weight"),
        ("vehicle_overrides", {"gravity": 0.3}, "vehicle_overrides.gravity: 2.7 kg weighs "),
        # an infinite weight passed the thrust check and faulted at t 0 with exit 1
        ("vehicle_overrides", {"gravity": 1e308},
         "vehicle_overrides.gravity: empty_mass 2.7 kg weighs inf N at 1e+308 m/s^2; "
         "the weight must be finite"),
        ("vehicle_overrides", {"mtom": 1e308},
         "vehicle_overrides.mtom: mtom 1e+308 kg weighs inf N at 9.81 m/s^2"),
        ("vehicle_overrides", {"yaw_inertia": 0}, "vehicle_overrides.yaw_inertia: must be > 0"),
        ("vehicle_overrides", {"yaw_inertia": -0.2},
         "vehicle_overrides.yaw_inertia: must be > 0"),
        ("vehicle_overrides", {"rolling_resistance_coeff": -1.0},
         "vehicle_overrides.rolling_resistance_coeff: must be >= 0"),
        ("vehicle_overrides", {"wall_friction_coeff": -1.0},
         "vehicle_overrides.wall_friction_coeff: must be >= 0"),
        ("vehicle_overrides", {"lateral_friction_coeff": -1.0},
         "vehicle_overrides.lateral_friction_coeff: must be >= 0"),
        ("surface", {"rolling_resistance": -1.0}, "surface.rolling_resistance: must be >= 0"),
        ("surface", {"lateral_friction": -1.0}, "surface.lateral_friction: must be >= 0"),
        ("vehicle_overrides", {"empty_mass": 4.5},
         "vehicle_overrides.empty_mass: 4.5 kg exceeds mtom 4.0 kg"),
    ])
    def test_former_tracebacks_exit_2(self, tmp_path, capsys, block, value, keypath):
        # each would divide by zero or overflow in the run, or run on a
        # coefficient no vehicle has
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {**MINI_DRIVE, block: value})
        assert main(["simulate", path, "--out", str(out)]) == EXIT_INPUT
        assert f"scn.json: {keypath}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("inertia, dt_s", [(1e-6, 0.01), (0.058, 0.01), (0.062, 0.01),
                                               (0.217, 0.02)])
    def test_unstable_yaw_loop_exits_2(self, tmp_path, capsys, inertia, dt_s):
        # the explicit yaw-rate loop is stable while kp_yaw_rate * dt_s / yaw_inertia < 2,
        # at dt_s 0.01 while yaw_inertia > 0.06; below, the turn used to be lost (0.058)
        # or to run away to -2.7e4 rad/s (1e-6), with exit 0
        path = write_scenario(tmp_path, {
            **MINI_DRIVE, "vehicle_overrides": {"yaw_inertia": inertia},
            "script": [{"t_s": 0.0, "mode": "ground", "speed_mps": 1.0, "yaw_rate_radps": 0.4}]})
        out = tmp_path / "out"
        rc = main(["simulate", path, "--dt-s", str(dt_s), "--out", str(out)])
        if inertia < 0.06:
            assert rc == EXIT_INPUT and not out.exists()
            assert "scn.json: vehicle_overrides.yaw_inertia: " in capsys.readouterr().err
        else:
            assert rc == EXIT_OK
            final = run_scenario(load_scenario(path), dt_s=dt_s).final_state
            assert final.angular_velocity[2] == pytest.approx(-0.4, rel=1e-3)  # turning right

    def test_duration_is_reported_before_the_yaw_loop(self, tmp_path, capsys):
        # both are the run's checks, in the order the scenario runner had them
        path = write_scenario(tmp_path, {**MINI_DRIVE, "duration_s": 1e308,
                                         "vehicle_overrides": {"yaw_inertia": 1e-6}})
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert "scn.json: duration_s: 1e+308 s is too many steps" in capsys.readouterr().err

    @pytest.mark.parametrize("script, keypath, initial", [
        ([{"t_s": 0.0, "transition_to": "flight"}], "script[0].target_position_m", None),
        ([{"t_s": 0.0, "mode": "ground", "speed_mps": 0.0},
          {"t_s": 0.5, "mode": "flight", "speed_mps": 0.0, "transition_to": "flight"}],
         "script[1].target_position_m", None),
        # a target set while the axles tilt, then a setpoint that drops it in flight
        ([{"t_s": 0.0, "transition_to": "flight"},
          {"t_s": 0.5, "mode": "flight", "target_position_m": [0.0, 0.0, 2.0]},
          {"t_s": 2.0, "mode": "flight"}], "script[2].target_position_m", None),
        # the tilt ends at 1.0 s, ten steps before the target comes
        ([{"t_s": 0.0, "transition_to": "flight"},
          {"t_s": 1.01, "mode": "flight", "target_position_m": [0.0, 0.0, 2.0]}],
         "script[0].target_position_m", None),
        # a target beyond the 200 m geofence
        ([{"t_s": 0.0, "mode": "ground", "speed_mps": 0.0},
          {"t_s": 1.0, "transition_to": "flight", "mode": "flight",
           "target_position_m": [500.0, 0.0, 5.0]}], "script[1].target_position_m", None),
        # a flight start with no setpoint, or one with no target
        ([], "initial.mode", {"mode": "flight", "height_m": 2.0}),
        ([{"t_s": 0.0, "mode": "flight", "target_yaw_deg": 90.0}], "script[0].target_position_m",
         {"mode": "flight", "height_m": 2.0}),
    ])
    def test_flight_without_a_target_exits_2(self, tmp_path, capsys, script, keypath, initial):
        # the run names the entry behind the flight, and writes nothing
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {**MINI_DRIVE, "script": script, "duration_s": 3.0,
                                         "surface": {"kind": "flat"}, "initial": initial})
        assert main(["simulate", path, "--out", str(out)]) == EXIT_INPUT
        assert f"scn.json: {keypath}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("yaw", [1e8, -1e300, 360.5])
    def test_yaw_target_beyond_a_turn_exits_2(self, tmp_path, capsys, yaw):
        # the heading wrap used to take 45.9 s on a 4.2 s flight at 1e8,
        # and never to end at 1e300
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {
            **MINI_DRIVE, "duration_s": 4.2, "initial": {"mode": "flight", "height_m": 2.0},
            "script": [{"t_s": 0.0, "mode": "flight", "target_position_m": [1.0, 0.0, 2.0],
                        "target_yaw_deg": yaw}]})
        assert main(["simulate", path, "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "scn.json: script[0].target_yaw_deg: must be within +-360 deg" in err
        assert not out.exists()

    def test_refused_take_off_needs_no_target(self, tmp_path):
        # a take-off while the vehicle drives at 1 m/s is refused: it never flies
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {**MINI_DRIVE, "duration_s": 3.0, "script": [
            {"t_s": 0.0, "mode": "ground", "speed_mps": 1.0},
            {"t_s": 1.0, "transition_to": "flight"}]})
        assert main(["simulate", path, "--out", str(out)]) == EXIT_OK
        events = json.loads((out / "result.json").read_text())["events"]
        assert [e["kind"] for e in events] == ["transition_rejected"]

    @pytest.mark.parametrize("script, dt_s", [
        ([{"t_s": 0.0, "transition_to": "flight"},
          {"t_s": 0.5, "mode": "flight", "target_position_m": [0.0, 0.0, 2.0]}], "0.001"),
        # the take-off starts at the step at 0.02 s, so its tilt ends at 1.02 s
        ([{"t_s": 0.01, "transition_to": "flight"},
          {"t_s": 1.015, "mode": "flight", "target_position_m": [0.0, 0.0, 2.0]}], "0.02"),
        # the run ends before the tilt does, so the vehicle never flies
        ([{"t_s": 0.0, "mode": "ground", "speed_mps": 1.0},
          {"t_s": 0.9, "mode": "ground", "speed_mps": 0.0},
          {"t_s": 2.5, "transition_to": "flight"}], "0.001"),
    ])
    def test_flight_with_a_target_in_time_runs(self, tmp_path, script, dt_s):
        path = write_scenario(tmp_path, {**MINI_DRIVE, "script": script, "duration_s": 3.0})
        assert main(["simulate", path, "--out", str(tmp_path / "out"),
                     "--dt-s", dt_s]) == EXIT_OK

    def test_negative_ground_power_cannot_plan(self, tmp_path, capsys):
        # at 0.5 m/s this fit draws -8.75 W: drive legs would cost less than 0 Wh
        spec = {**MINI_PLAN, "power_model": {"ground_calibration": {
            "0.0": [[1.0, 10.0], [2.0, 200.0]]}}}
        spec["planner"] = {**MINI_PLAN["planner"], "drive_speed_mps": 0.5}
        out = tmp_path / "out"
        assert main(["plan", write_scenario(tmp_path, spec), "--out", str(out)]) == EXIT_INPUT
        assert "scn.json: power_model.ground_calibration.0.0: fit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, line", [
        ("0.5,x,2\n1.0,18.08,300", 4),
        ("0.5,nan,200\n1.0,18.08,300", 4),
        ("0.5,9.0,inf\n1.0,18.08,300", 4),
        ("0.5,9.0,200\n1.0,inf,300", 5),
    ])
    def test_bad_rotor_table_names_file_key_and_line(self, tmp_path, capsys, rows, line):
        (tmp_path / "bad.csv").write_text(
            "command,thrust_n,power_w\n# bench\n0,0,0\n" + rows + "\n", encoding="utf-8")
        path = write_scenario(tmp_path, {**MINI_DRIVE, "rotor_table": "bad.csv"})
        with pytest.raises(ScenarioError, match="^scn.json: rotor_table: "):
            load_scenario(path)
        out = tmp_path / "out"
        assert main(["simulate", path, "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "scn.json: rotor_table: " in err and f"bad.csv: line {line}: " in err
        assert not out.exists()

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {**MINI_DRIVE, "payload_kg": 10**400})
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert "scn.json: payload_kg: integer too large" in capsys.readouterr().err


class TestSimulateCommand:
    def test_mini_drive_passes(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINI_DRIVE)
        out = tmp_path / "out"
        rc = main(["simulate", scenario, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "ledger.json").exists()
        result = json.loads((out / "result.json").read_text())
        assert result["ok"] is True
        assert result["seed"] == 7
        assert result["energy_total_wh"] > 0.0
        assert "[pass] min_distance" in captured.out

    def test_empty_script_stays_put(self, tmp_path):
        quiet = {"name": "idle", "duration_s": 1.0, "script": []}
        scenario = write_scenario(tmp_path, quiet)
        out = tmp_path / "out"
        rc = main(["simulate", scenario, "--out", str(out)])
        assert rc == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        x, y, z = result["final_state"]["position_m"]
        assert abs(x) < 1e-9 and abs(y) < 1e-9
        assert result["final_state"]["speed_mps"] == 0.0
        ledger = json.loads((out / "ledger.json").read_text())
        assert ledger["per_mode_wh"]["ground"] == 0.0
        assert ledger["per_battery_ah"]["prop_a"] == 0.0
        assert ledger["per_battery_ah"]["prop_b"] == 0.0

    def test_failed_validation_exits_1(self, tmp_path, capsys):
        # commands nothing, then demands a cruise speed
        lazy = {
            "name": "lazy",
            "duration_s": 1.0,
            "script": [],
            "validation": {"steady_speed_mps": 1.0},
        }
        scenario = write_scenario(tmp_path, lazy)
        rc = main(["simulate", scenario, "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert "[FAIL] steady_speed" in capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "no-such-scenario", "--out", str(tmp_path / "out")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "not a file and not a bundled scenario" in err

    def test_planning_scenario_rejected(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINI_PLAN)
        rc = main(["simulate", scenario, "--out", str(tmp_path / "out")])
        assert rc == EXIT_INPUT
        assert "use the plan subcommand" in capsys.readouterr().err

    def test_avionics_brownout_is_a_fault(self, tmp_path, capsys):
        tiny = dict(MINI_DRIVE)
        tiny["batteries"] = [
            {"battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0},
            {"battery_id": "prop_b", "cells_series": 4, "capacity_ah": 5.0},
            {"battery_id": "electronics", "cells_series": 2, "capacity_ah": 0.0001},
        ]
        out = tmp_path / "out"
        rc = main(["simulate", write_scenario(tmp_path, tiny), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        result = json.loads((out / "result.json").read_text())
        assert result["faulted"] is True
        assert result["fault_reason"] == "battery electronics protection tripped"
        assert [e["kind"] for e in result["events"]] == ["battery_protection"]
        assert result["final_state"]["time_s"] < 1.0  # the run stops at the trip
        assert "[FAIL] no_faults" in capsys.readouterr().out

    def test_non_finite_output_is_not_written(self, tmp_path, capsys, monkeypatch):
        # the first wall step reaches 1e200 m/s: the wall power does not
        # depend on the speed, the next step detaches, and the final state's
        # speed overflows to infinity
        _runaway(monkeypatch, Mode.WALL, (0.0, 0.0, 1e200), 1e200)
        spec = {
            **MINI_DRIVE, "validation": {"forbid_faults": False},
            "surface": {"kind": "wall"}, "initial": {"mode": "wall"},
            "script": [{"t_s": 0.0, "mode": "wall", "speed_mps": 0.2}],
        }
        out = tmp_path / "out"
        assert main(["simulate", write_scenario(tmp_path, spec), "--out", str(out)]) \
            == EXIT_VALIDATION
        assert f"error: {out / 'result.json'}: non-finite value in output" \
            in capsys.readouterr().err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("dt_s", ["0", "-0.001", "0.5"])  # nan: FLOAT_FLAGS
    def test_dt_outside_the_step_range_exits_2(self, tmp_path, capsys, dt_s):
        out = tmp_path / "out"
        rc = main(["simulate", write_scenario(tmp_path, MINI_DRIVE), "--dt-s", dt_s,
                   "--out", str(out)])
        assert rc == EXIT_INPUT
        assert "error: dt_s " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt_s", ["1e-300", "9.99e-06"])
    def test_dt_below_the_floor_exits_2_at_once(self, tmp_path, capsys, dt_s):
        # 1e-300 s is 3e301 steps of confined-space, a count a float holds:
        # before the floor on dt_s, the run went on until it was killed
        def late(signum, frame):
            raise TimeoutError("no exit within 5 s")

        out = tmp_path / "out"
        previous = signal.signal(signal.SIGALRM, late)
        signal.alarm(5)
        try:
            rc = main(["simulate", "confined-space", "--dt-s", dt_s, "--out", str(out)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert rc == EXIT_INPUT
        assert f"error: dt_s {float(dt_s)} outside [1e-05, 0.02] s" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt_s", ["0.001", "0.01", "0.02"])
    def test_overflowing_power_is_a_fault(self, tmp_path, capsys, monkeypatch, dt_s):
        """A first step whose speed overflows the ground power: the run ends
        with a fault, its outputs written, exit 1."""
        _runaway(monkeypatch, Mode.GROUND, (1e300, 0.0, 0.0), 1e300)
        out = tmp_path / "out"
        rc = main(["simulate", write_scenario(tmp_path, MINI_DRIVE), "--dt-s", dt_s,
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        result = json.loads((out / "result.json").read_text())
        assert result["fault_reason"] == "non-finite power inf W in ground mode"
        assert [e["kind"] for e in result["events"]] == ["simulationfault"]
        assert result["final_state"]["time_s"] == 0.0
        assert "[FAIL] no_faults: non-finite power" in capsys.readouterr().out

    @pytest.mark.parametrize("surface, mode, climbs", [
        ({"kind": "flat"}, "incline", False),
        ({"kind": "incline", "slope_deg": 20.0}, "ground", True),
    ], ids=["incline-mode-on-flat-ground", "ground-mode-on-an-incline"])
    def test_drive_power_follows_the_surface(self, tmp_path, surface, mode, climbs):
        """Driving in a mode that is not the surface's: the vehicle climbs
        as the surface does, and each step is priced as the surface is, the
        slope's rotor hold on an incline and none on flat ground."""
        spec = {"name": "mismatch", "surface": surface, "duration_s": 8.0,
                "script": [{"t_s": 0.0, "transition_to": mode},
                           {"t_s": 1.5, "mode": mode, "speed_mps": 1.0}]}
        path = write_scenario(tmp_path, spec)
        out = tmp_path / "out"
        assert main(["simulate", path, "--out", str(out)]) == EXIT_OK
        slope = surface["slope_deg"] if climbs else None
        price = load_scenario(path).power_model.drive_power_at(slope)
        psi = math.radians(surface.get("slope_deg", 0.0))
        rows = [row.split(",") for row in (out / "trace.csv").read_text().splitlines()[1:]]
        driven = [row for row in rows if row[17] == mode]
        assert len(driven) > 500
        for row in driven:
            vx, vz = float(row[4]), float(row[6])
            speed = vx * math.cos(psi) + vz * math.sin(psi) if climbs else vx
            assert float(row[18]) == pytest.approx(price(abs(speed)), rel=1e-12)
        assert (float(rows[-1][3]) - float(rows[0][3]) > 2.0) == climbs

    def test_reruns_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path, MINI_DRIVE)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", scenario, "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", scenario, "--out", str(out_b)]) == EXIT_OK
        for name in ("trace.csv", "ledger.json", "result.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestPlanCommand:
    def test_mini_plan(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINI_PLAN)
        out = tmp_path / "out"
        rc = main(["plan", scenario, "--out", str(out)])
        assert rc == EXIT_OK
        plan = json.loads((out / "plan.json").read_text())
        assert plan["seed"] == 3
        assert plan["feasible"] is True
        assert plan["total_energy_wh"] > 0.0
        assert all(leg["mode"] == "drive" for leg in plan["legs"])
        assert "feasible=True" in capsys.readouterr().out

    @pytest.mark.parametrize("packs, feasible", [
        ((("prop_a", 1.0), ("prop_b", 1.0)), True),
        ((("prop_a", 0.36), ("prop_b", 0.36)), False),
        ((("prop_a", 0.36), ("prop_b", 1.0)), False),
        ((("electronics", 1.0),), False),
    ], ids=["full", "both-low", "one-low", "electronics-only"])
    def test_plan_feasible_only_within_each_packs_charge(self, tmp_path, capsys, packs, feasible):
        # a run draws half the 1.95 Wh route from each propulsion pack; at
        # SoC 0.36 a pack is 0.22 Wh above its 0.357 floor, and with no
        # propulsion pack nothing can carry the route. --validate's
        # battery_ok applies the same rule.
        path = bundled_scenarios()["multimodal-obstacle"]
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        terrain = spec["planner"]["terrain"]
        spec["planner"]["terrain"] = os.path.join(os.path.dirname(path), terrain)
        spec["batteries"] = [{"battery_id": bid, "cells_series": 4, "capacity_ah": 5.0,
                              "soc": soc, "usable_fraction": 0.643}
                             for bid, soc in packs]
        out = tmp_path / "out"
        rc = main(["plan", write_scenario(tmp_path, spec), "--out", str(out), "--validate"])
        assert rc == (EXIT_OK if feasible else EXIT_VALIDATION)
        plan = json.loads((out / "plan.json").read_text())
        assert round(plan["total_energy_wh"], 4) == 1.9547
        assert plan["feasible"] is feasible
        assert json.loads((out / "validation.json").read_text())["battery_ok"] is feasible
        assert f"feasible={feasible}" in capsys.readouterr().out

    @pytest.mark.parametrize("soc, avionics_w, feasible", [
        (1.0, 5.0, True), (0.2001, 5.0, False), (0.2001, 0.5, True),
    ], ids=["full", "near-floor", "near-floor-low-draw"])
    def test_plan_feasible_only_if_the_electronics_pack_carries_the_avionics(
            self, tmp_path, capsys, soc, avionics_w, feasible):
        # the README's 3x5 fenced grid: the 15.5 s route draws 0.0215 Wh of
        # avionics at 5 W (0.00215 Wh at 0.5 W) from the electronics pack,
        # which at SoC 0.2001 holds 0.0024 Wh above its 0.2 floor; the
        # propulsion packs are full. --validate's battery_ok applies the
        # same rule, and a 0.2 leg bound passes every leg.
        spec = {
            "name": "fenced",
            "planner": {
                "terrain": {"width": 5, "height": 3, "cell_size_m": 3.0, "elevation_m": 0.0,
                            "obstacles": [[r, 2] for r in range(3)]},
                "start_cell": [1, 0],
                "goal_cell": [1, 4],
            },
            "batteries": [
                {"battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0,
                 "usable_fraction": 0.643},
                {"battery_id": "prop_b", "cells_series": 4, "capacity_ah": 5.0,
                 "usable_fraction": 0.643},
                {"battery_id": "electronics", "cells_series": 2, "capacity_ah": 3.2,
                 "usable_fraction": 0.8, "soc": soc},
            ],
            "avionics_power_w": avionics_w,
            "validation": {"max_leg_deviation_frac": 0.2},
        }
        out = tmp_path / "out"
        rc = main(["plan", write_scenario(tmp_path, spec), "--out", str(out), "--validate"])
        assert rc == (EXIT_OK if feasible else EXIT_VALIDATION)
        plan = json.loads((out / "plan.json").read_text())
        assert plan["total_duration_s"] == 15.5
        assert plan["feasible"] is feasible
        assert json.loads((out / "validation.json").read_text())["battery_ok"] is feasible
        assert f"feasible={feasible}" in capsys.readouterr().out

    def test_validate_writes_report(self, tmp_path):
        scenario = write_scenario(tmp_path, MINI_PLAN)
        out = tmp_path / "out"
        rc = main(["plan", scenario, "--out", str(out), "--validate"])
        assert rc == EXIT_OK
        report = json.loads((out / "validation.json").read_text())
        assert report["battery_ok"] is True
        assert report["ok"] is True
        assert all(leg["deviation"] <= 0.15 for leg in report["legs"])

    def test_faulted_leg_is_reported(self, tmp_path, capsys):
        # the 513 m fly leg over a 170-cell fence times out: its deviation
        # is infinite, written as null, and the report and the verdict of
        # every leg still come out
        spec = {**MINI_PLAN, "validation": {}, "planner": {
            "terrain": {"width": 172, "height": 1, "cell_size_m": 3.0, "elevation_m": 0.0,
                        "obstacles": [[0, c] for c in range(1, 171)]},
            "start_cell": [0, 0], "goal_cell": [0, 171]}}
        out = tmp_path / "out"
        rc = main(["plan", write_scenario(tmp_path, spec), "--out", str(out), "--validate"])
        assert rc == EXIT_VALIDATION
        report = json.loads((out / "validation.json").read_text())
        assert [(leg["mode"], leg["fault"], leg["deviation"]) for leg in report["legs"]] == [
            ("transition_to_fly", None, 0.0),
            ("fly", "simulation fault: fly leg timed out", None),
            ("transition_to_ground", None, 0.0)]
        assert report["ok"] is False
        printed = capsys.readouterr().out
        assert "[FAIL] leg 1 (fly): predicted 30.5748 Wh, simulated 0.0000 Wh" in printed
        assert printed.count("[pass] leg") == 2

    def test_fly_leg_count_enforced(self, tmp_path, capsys):
        wrong = json.loads(json.dumps(MINI_PLAN))
        wrong["validation"]["expect_fly_legs"] = 2  # open corridor has none
        scenario = write_scenario(tmp_path, wrong)
        rc = main(["plan", scenario, "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert "expected 2 fly leg(s), got 0" in capsys.readouterr().out

    def test_no_route_exits_1(self, tmp_path, capsys):
        blocked = json.loads(json.dumps(MINI_PLAN))
        blocked["planner"]["terrain"] = {
            "width": 3,
            "height": 1,
            "cell_size_m": 1.0,
            "elevation_m": 0.0,
            # middle cell is closed to both modes
            "no_fly": [[0, 1]],
        }
        blocked["planner"]["goal_cell"] = [0, 2]
        scenario = write_scenario(tmp_path, blocked)
        rc = main(["plan", scenario, "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert "no feasible route" in capsys.readouterr().err

    def test_simulation_scenario_rejected(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINI_DRIVE)
        rc = main(["plan", scenario, "--out", str(tmp_path / "out")])
        assert rc == EXIT_INPUT
        assert "use the simulate subcommand" in capsys.readouterr().err

    def test_plan_reruns_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path, MINI_PLAN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["plan", scenario, "--out", str(out_a), "--validate"]) == EXIT_OK
        assert main(["plan", scenario, "--out", str(out_b), "--validate"]) == EXIT_OK
        for name in ("plan.json", "validation.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _module_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, written", [
    (["analyze", "--tipping"], "analysis.json"),
    # validation.json is written after the first lines of output
    (["plan", "multimodal-obstacle", "--validate"], "validation.json"),
], ids=["analyze", "plan"])
def test_closed_stdout_is_a_normal_end(tmp_path, argv, written, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    env = {**_module_env(), "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run([sys.executable, "-m", "flydrive", *argv, "--out", str(tmp_path)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, check=False)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert (tmp_path / written).is_file()


class TestAnalyzeCommand:
    def test_runs_as_a_module(self):
        proc = subprocess.run([sys.executable, "-m", "flydrive", "analyze", "--tipping"],
                              capture_output=True, text=True, env=_module_env(), check=False)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "tipping_slope_deg" in json.loads(proc.stdout)["sections"][0]["result"]

    def test_tipping_report(self, capsys):
        rc = main(["analyze", "--tipping"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        angle = report["sections"][0]["result"]["tipping_slope_deg"]
        assert f"{angle:.2f}" == "60.93"

    def test_incline_and_wall_sections(self, capsys):
        rc = main(["analyze", "--incline", "33", "--wall", "135"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        kinds = [s["analysis"] for s in report["sections"]]
        assert kinds == ["incline_equilibrium", "wall_climb"]
        incline, wall = report["sections"]
        assert incline["result"]["feasible"] is True
        assert wall["result"]["climb_feasible"] is True
        assert wall["result"]["attached"] is True

    def test_optimal_tilt_section(self, capsys):
        rc = main(["analyze", "--optimal-tilt"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        best = report["sections"][0]["result"]["optimal_tilt_deg"]
        assert 90.0 < best < 135.0

    def test_decompose_section(self, capsys):
        rc = main(["analyze", "--decompose", "10", "30"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        result = report["sections"][0]["result"]
        assert result["f_parallel"] ** 2 + result["f_perpendicular"] ** 2 == pytest.approx(
            100.0, rel=1e-12
        )

    def test_no_flags_is_an_error(self, capsys):
        rc = main(["analyze"])
        assert rc == EXIT_INPUT
        assert "nothing to analyze" in capsys.readouterr().err

    def test_out_writes_report(self, tmp_path, capsys):
        rc = main(["analyze", "--tipping", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report == json.loads(capsys.readouterr().out)
        assert [section["analysis"] for section in report["sections"]] == ["tipping_slope"]


class TestCalibrateCommand:
    def test_reference_points(self, capsys):
        rc = main(["calibrate", "--points", "1.0=29.8", "--points", "4.1=171.4"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["c1_w_per_mps"] == pytest.approx(29.04, abs=0.01)
        assert report["c3_w_per_mps3"] == pytest.approx(0.759, abs=0.001)
        assert report["fit_power_w"]["1.0"] == pytest.approx(29.8, rel=1e-12)

    def test_points_file(self, tmp_path, capsys):
        path = tmp_path / "points.json"
        path.write_text(json.dumps([[1.0, 29.8], [4.1, 171.4]]), encoding="utf-8")
        rc = main(["calibrate", "--points-file", str(path)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["c1_w_per_mps"] == pytest.approx(29.04, abs=0.01)

    @pytest.mark.parametrize("points, message", [
        ([["1.0", 29.8], [4.1, 171.4]], "points.json: [0][0]: expected float"),
        ([[1.0, 29.8], [4.1, True]], "points.json: [1][1]: expected float"),
        ([[1.0, 29.8], [4.1]], "points.json: top level: expected a list of [speed_mps"),
        ([[1e308, 1.0], [2.0, 3.0]], "calibration overflows"),
    ])
    def test_bad_points_file(self, tmp_path, capsys, points, message):
        path = tmp_path / "points.json"
        path.write_text(json.dumps(points), encoding="utf-8")
        assert main(["calibrate", "--points-file", str(path)]) == EXIT_INPUT
        assert message in capsys.readouterr().err

    def test_fit_below_zero_power_rejected(self, capsys):
        rc = main(["calibrate", "--points", "1.0=10", "--points", "2.0=200"])
        assert rc == EXIT_INPUT
        assert ("error: fit P(v) = -20.0 v + 30.0 v^3 is not > 0 at every speed in "
                "(0, 4.1] m/s") in capsys.readouterr().err

    def test_no_points_is_an_error(self, capsys):
        rc = main(["calibrate"])
        assert rc == EXIT_INPUT
        assert "needs --points" in capsys.readouterr().err

    # 1=nan used to fail as "calibration overflows", naming no entry
    @pytest.mark.parametrize("entry", ["fast", "1=nan", "1=inf", "inf=3", "1e999=3"])
    def test_malformed_point(self, capsys, entry):
        assert main(["calibrate", "--points", entry, "--points", "2=3"]) == EXIT_INPUT
        assert f"bad --points entry {entry!r}: expected SPEED_MPS=POWER_W" in \
            capsys.readouterr().err

    def test_duplicate_speeds_rejected(self, capsys):
        rc = main(["calibrate", "--points", "1.0=29.8", "--points", "1.0=30.0"])
        assert rc == EXIT_INPUT


class TestDesignCommand:
    def test_headline_metrics(self, capsys):
        rc = main(["design"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["tw_ratio"] == pytest.approx(1.843, abs=1e-3)
        assert report["payload_capacity_kg"] == pytest.approx(1.3, abs=1e-3)
        assert report["gam_mass_fraction_pct"] == pytest.approx(8.22, abs=0.05)
        assert report["mass_budget_ok"] is True

    def test_missing_rotor_table(self, capsys):
        rc = main(["design", "--rotor-table", "/nonexistent.csv"])
        assert rc == EXIT_INPUT


# every float flag, in a command line that runs with a finite value in place of X
FLOAT_FLAGS = {
    "--dt-s": ["simulate", "confined-space", "--dt-s", "X"],
    "--incline": ["analyze", "--incline", "X"],
    "--wall": ["analyze", "--wall", "X"],
    "--decompose": ["analyze", "--decompose", "10", "X"],
    "--payload-kg": ["analyze", "--wall", "135", "--payload-kg", "X"],
    "--usable-wh": ["design", "--usable-wh", "X"],
}


def test_float_flags_are_every_float_flag():
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices.values()
    types = {a.option_strings[0]: a.type for sub in subcommands for a in sub._actions
             if a.type in (float, cli._finite_float)}
    assert types == dict.fromkeys(FLOAT_FLAGS, cli._finite_float)


@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
@pytest.mark.parametrize("flag", sorted(FLOAT_FLAGS))
def test_non_finite_float_flag_exits_2(tmp_path, capsys, flag, value):
    # --payload-kg, --decompose and --usable-wh used to exit 1 with "non-finite
    # value in output"
    out = tmp_path / "out"
    argv = [value if a == "X" else a for a in FLOAT_FLAGS[flag]]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == EXIT_INPUT
    assert f"argument {flag}: expected a finite number, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_resolve_prefers_existing_file(tmp_path):
    path = write_scenario(tmp_path, MINI_DRIVE, name="confined-space.json")
    assert cli._resolve_scenario(path) == path
    resolved = cli._resolve_scenario("confined-space")
    assert resolved != path and resolved.endswith("confined-space.json")


# Two scenarios that use every block, for the fuzz test below.
FUZZ_DRIVE = {
    "name": "fuzz-drive",
    "description": "every drive block",
    "payload_kg": 0.0,
    "vehicle_overrides": {"empty_mass": 2.7, "com_height": 0.1501, "yaw_inertia": 0.217},
    "batteries": [
        {"battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0, "soc": 1.0},
        {"battery_id": "electronics", "cells_series": 2, "capacity_ah": 3.2,
         "usable_fraction": 0.8},
    ],
    "avionics_power_w": 5.0,
    "power_model": {"ground_calibration": {"0.0": [[1.0, 29.8], [4.1, 171.4]]},
                    "flight_power_w": {"0.0": 858.24}, "hover_power_w": 571.2,
                    "wall_wake_factor": 1.8},
    "surface": {"kind": "flat", "rolling_resistance": 0.05},
    "initial": {"mode": "ground", "position_m": [0.0, 0.0], "heading_deg": 0.0},
    "script": [
        {"t_s": 0.0, "mode": "ground", "speed_mps": 1.0, "yaw_rate_radps": 0.0},
        {"t_s": 0.2, "transition_to": "flight", "mode": "flight",
         "target_position_m": [0.0, 0.0, 1.0]},
    ],
    "duration_s": 0.5,
    "validation": {"min_distance_m": 0.1, "forbid_faults": False},
    "seed": 1,
}
FUZZ_PLAN = {
    "name": "fuzz-plan",
    "planner": {
        "terrain": {"width": 4, "height": 2, "cell_size_m": 2.0,
                    "elevation_m": [0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0],
                    "obstacles": [[0, 2]], "no_fly": [[1, 0]]},
        "start_cell": [0, 0],
        "goal_cell": [0, 3],
        "drive_speed_mps": 1.0,
        "transition_time_s": 4.0,
    },
    "validation": {"expect_fly_legs": 1, "max_leg_deviation_frac": 0.15},
}
FUZZ_VALUES = ["x", math.nan, True, None, [], {}, 10**400, 1e308, 1e-300, 0, -1, 4.0,
               "flight"]
# keys to add: a typo, payload keys, and keys that belong to another block
# or that the bases leave out
FUZZ_KEYS = ["x", "0", "2.0", "mode", "tilt_deg", "slope_deg", "kind", "soc", "terrain",
             "com_height", "target_yaw_deg", "expect_wall_tilt_deg", "seed", "planner"]


FUZZ_NUMBERS = [v for v in FUZZ_VALUES if type(v) in (int, float)]


# the packs a run draws from, each numeric field of the first set in turn below
FUZZ_PACKS = [
    {"battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0, "usable_fraction": 0.643},
    {"battery_id": "prop_b", "cells_series": 4, "capacity_ah": 5.0, "usable_fraction": 0.643},
    {"battery_id": "electronics", "cells_series": 2, "capacity_ah": 3.2, "usable_fraction": 0.8},
]
PACK_NUMBERS = [f"batteries[0].{key}" for key, (kind, _) in BATTERY.items()
                if kind in (int, float)]


@pytest.mark.parametrize("key", list(VEHICLE) + PACK_NUMBERS)
def test_every_vehicle_override_exits_cleanly(tmp_path, capsys, key):
    """Each vehicle override, and each numeric field of the first pack, set
    to each numeric fuzz value, on a 1 s turning drive: main returns 0, 1
    or 2 without raising, and an input error names that override or
    field."""
    script = [{"t_s": 0.0, "mode": "ground", "speed_mps": 1.0, "yaw_rate_radps": 0.4}]
    field = key.removeprefix("batteries[0].")
    for n, value in enumerate(FUZZ_NUMBERS):
        spec = {**MINI_DRIVE, "duration_s": 1.0, "script": script}
        if field == key:
            spec["vehicle_overrides"] = {key: value}
            keypath = f"vehicle_overrides.{key}"
        else:
            spec["batteries"] = [{**FUZZ_PACKS[0], field: value}, *FUZZ_PACKS[1:]]
            keypath = key
        path = write_scenario(tmp_path, spec)
        rc = main(["simulate", path, "--dt-s", "0.01", "--out", str(tmp_path / f"out{n}")])
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_INPUT), (value, rc)
        if rc == EXIT_INPUT:
            assert f"scn.json: {keypath}: " in err, (value, err)


def _places(node, path=()):
    """(path, key) for every value in a JSON tree, and (path, None) for
    every object, where a key can be added."""
    if isinstance(node, dict):
        yield path, None
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path, key
        yield from _places(value, path + (key,))


@st.composite
def _mutated(draw):
    """One base scenario with one value changed or one key added."""
    base = draw(st.sampled_from([FUZZ_DRIVE, FUZZ_PLAN]))
    spec = copy.deepcopy(base)
    path, key = draw(st.sampled_from(list(_places(spec))))
    node = spec
    for step in path:
        node = node[step]
    if key is None:
        key = draw(st.sampled_from(FUZZ_KEYS))
    node[key] = draw(st.sampled_from(FUZZ_VALUES))
    return base is FUZZ_PLAN, spec


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=_mutated())
def test_malformed_scenario_exits_cleanly(case):
    """A mutated scenario loads or fails naming scn.json, and main returns
    0, 1 or 2 without raising."""
    planning, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scn.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        try:
            load_scenario(path)
        except (ScenarioError, TerrainError, RotorTableError) as exc:
            assert str(exc).startswith("scn.json: "), str(exc)
        if planning:
            command = ["plan", path, "--validate"]
        else:
            command = ["simulate", path, "--dt-s", "0.01"]
        assert main([*command, "--out", os.path.join(tmp, "out")]) in (0, 1, 2)


@st.composite
def _flight_scripts(draw):
    """A flight or ground start at a dt from 1 to 20 ms, and a script of
    take-offs, landings and setpoints with and without a target (some beyond
    the 200 m geofence); events often come about a tilt's time apart, so
    near the step where a take-off's tilt ends, and some within a step."""
    dt = draw(st.sampled_from([0.001, 0.005, 0.02]) | st.floats(0.001, 0.02))
    flying = draw(st.booleans())
    target = st.sampled_from([[0.0, 0.0, 2.0], [3.0, -1.0, 1.0], [500.0, 0.0, 5.0],
                              [0.0, 0.0, default_params().com_height], [-150.0, 150.0, 2.0]])
    script, t = [], draw(st.sampled_from([0.0, 0.0, 0.3]))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["take-off", "landing", "target", "no target", "drive"]))
        entry = {"t_s": t}
        if kind in ("take-off", "landing"):
            entry["transition_to"] = "flight" if kind == "take-off" else "ground"
            kind = draw(st.sampled_from([None, "target", "no target"]))
        if kind == "target":
            entry.update(mode="flight", target_position_m=draw(target))
        elif kind == "no target":
            entry.update(mode="flight", target_yaw_deg=90.0)
        elif kind == "drive":
            entry.update(mode="ground", speed_mps=draw(st.sampled_from([0.0, 1.0])))
        script.append(entry)
        t += draw(st.sampled_from([0.001, 0.99, 1.0, 1.001, 1.01, 1.02, 1.04])
                  | st.floats(0.001, 1.5))
    duration = draw(st.floats(0.5, 2.5))
    return dt, flying, script, duration


def _reference_error(scenario, dt):
    """Run `scenario` one full step at a time (`reference_run`). None if the
    run ends, else the flight law's error and the index of the script entry
    behind it: the last one consumed before the error that set the setpoint
    or started a transition (None if there is none)."""
    accepted, times = [], []
    real_transition, real_step = dynamics.mode_transition, reference_simulator.step

    def transition(*args, **kw):
        accepted.append(False)
        schedule = real_transition(*args, **kw)
        accepted[-1] = True
        return schedule

    def step(state, *args):
        times.append(state.time_s)
        return real_step(state, *args)

    try:
        with mock.patch.object(dynamics, "mode_transition", transition), \
                mock.patch.object(reference_simulator, "step", step):
            reference_run(build_simulator(scenario, dt_s=dt), initial_state_for(scenario),
                          scenario.surface, list(scenario.script), scenario.duration_s)
        return None
    except dynamics.FlightTargetError as exc:
        entry, started = None, iter(accepted)  # one outcome per transition consumed
        for i, ev in enumerate(scenario.script):
            if ev.t_s > times[-1] + 1e-12:  # due after the step that raised
                break
            if ev.setpoint is not None or ev.transition_to is not None and next(started):
                entry = i
        return exc, entry


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(case=_flight_scripts())
def test_flight_target_error_names_its_entry(case):
    """`simulate` exits 2 naming scn.json and the entry behind the flight
    exactly when a run one full step at a time raises the flight law's
    error, with that error's reason; it writes nothing then, and never
    prints the error bare."""
    dt, flying, script, duration = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scn.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": "fly", "duration_s": duration, "script": script,
                       "initial": {"mode": "flight", "height_m": 2.0} if flying else None}, fh)
        expected = _reference_error(load_scenario(path), dt)
        out, err = os.path.join(tmp, "out"), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["simulate", path, "--dt-s", repr(dt), "--out", out])
        wrote = os.path.exists(out)
    if expected is None:
        assert rc in (EXIT_OK, EXIT_VALIDATION) and not err.getvalue(), err.getvalue()
        return
    reason, entry = expected
    keypath = "initial.mode" if entry is None else f"script[{entry}].target_position_m"
    assert (rc, err.getvalue(), wrote) == (EXIT_INPUT, f"error: scn.json: {keypath}: {reason}\n",
                                           False)
