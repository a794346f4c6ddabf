"""The library's inputs are checked where they are held, like a scenario's.

Each value rule lives in the type or function that holds the value and
raises a `FieldError` (a ValueError) naming the field or argument, so a
caller building a setting in code meets the same rule, and the same key, as
a scenario file does. The sweep below builds each settings type with each
numeric field set to NaN, +-inf, -1, 0 and 1e308; the other tests pin each rule
that moved out of the scenario loader, and the NaN arguments that used to
run on.
"""

import dataclasses
import io
import math

import pytest

from flydrive import fields
from flydrive.defaults import default_power_model
from flydrive.dynamics import (
    ControllerGains,
    ControlSetpoint,
    Mode,
    SurfaceModel,
    initial_ground_state,
)
from flydrive.energy import Battery, calibrate_ground_power, mode_power, range_estimate
from flydrive.fields import FieldError
from flydrive.planner import PlannerConfig, plan, validate_plan
from flydrive.scenario import ValidationSpec
from flydrive.simulator import ScriptEvent, Simulator
from flydrive.statics import decompose_thrust
from flydrive.terrain import FREE, TerrainGrid, terrain_from_ascii, terrain_from_dict
from flydrive.vehicle import RotorTableError, VehicleParams, load_mass_budget, load_rotor_table

VALUES = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e308]


def _power_model(**changes):
    return dataclasses.replace(default_power_model(), **changes)


def _with_ground_fit(c1=None, c3=None):
    base_c1, base_c3 = default_power_model().ground_coeffs[0.0]
    fit = (base_c1 if c1 is None else c1, base_c3 if c3 is None else c3)
    return _power_model(ground_coeffs={0.0: fit})


def _grid(width=2, height=1, cell_size_m=1.0):
    return TerrainGrid(width=width, height=height, cell_size_m=cell_size_m,
                       elevation_m=((0.0, 0.0),), classes=((FREE, FREE),))


# (case, the field the error names, a builder from one value): every
# numeric field of the settings types whose rules live in them
BUILDERS = [
    *[(f"VehicleParams.{name}", name, lambda v, name=name: VehicleParams(**{name: v}))
      for name in ("empty_mass", "mtom", "wheel_contact_half_spacing_long",
                   "wheel_contact_half_spacing_lat", "com_height", "gravity",
                   "rolling_resistance_coeff", "wall_friction_coeff",
                   "lateral_friction_coeff", "yaw_inertia")],
    ("PowerModel.hover_power_w", "hover_power_w", lambda v: _power_model(hover_power_w=v)),
    ("PowerModel.wall_wake_factor", "wall_wake_factor",
     lambda v: _power_model(wall_wake_factor=v)),
    ("PowerModel.flight_power_w[0.0]", "flight_power_w",
     lambda v: _power_model(flight_power_w={0.0: v})),
    ("PowerModel.ground_coeffs[0.0].c1", "ground_coeffs", lambda v: _with_ground_fit(c1=v)),
    ("PowerModel.ground_coeffs[0.0].c3", "ground_coeffs", lambda v: _with_ground_fit(c3=v)),
    ("ScriptEvent.t_s", "t_s", lambda v: ScriptEvent(t_s=v)),
    *[(f"SurfaceModel({kind}).{name}", name,
       lambda v, name=name, kind=kind: SurfaceModel(kind, **{name: v}))
      for kind in ("flat", "incline")
      for name in ("slope_deg", "rolling_resistance", "lateral_friction")],
    *[(f"Battery.{name}", name, lambda v, name=name: Battery(**{
        "battery_id": "prop_a", "cells_series": 4, "capacity_ah": 5.0, name: v}))
      for name in ("cells_series", "capacity_ah", "nominal_cell_voltage", "soc",
                   "usable_fraction")],
    *[(f"PlannerConfig.{name}", name, lambda v, name=name: PlannerConfig(**{name: v}))
      for name in ("drive_speed_mps", "fly_speed_mps", "transition_energy_wh",
                   "transition_time_s", "slope_margin_deg")],
    *[(f"TerrainGrid.{name}", name, lambda v, name=name: _grid(**{name: v}))
      for name in ("width", "height", "cell_size_m")],
    *[(f"ControlSetpoint.{name}", name,
       lambda v, name=name: ControlSetpoint(Mode.FLIGHT, **{name: v}))
      for name in ("speed_mps", "yaw_rate_radps", "target_yaw_deg")],
    ("ControlSetpoint.target_position", "target_position",
     lambda v: ControlSetpoint(Mode.FLIGHT, target_position=(0.0, 0.0, v))),
    *[(f"ControllerGains.{f.name}", f.name,
       lambda v, name=f.name: ControllerGains(**{name: v}))
      for f in dataclasses.fields(ControllerGains)],
    *[(f"ValidationSpec.{name}", name, lambda v, name=name: ValidationSpec(**{name: v}))
      for name in ("steady_speed_mps", "max_speed_error_frac", "min_distance_m",
                   "expect_fly_legs", "max_leg_deviation_frac", "expect_wall_tilt_deg")],
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("case, name, build", BUILDERS, ids=[case for case, _, _ in BUILDERS])
def test_each_numeric_field_is_checked_where_it_is_held(case, name, build, value):
    """NaN raises a ValueError naming the field; every other value builds,
    or raises a ValueError naming the field, and nothing else. The cases
    are listed, not drawn, so every run tries the same ones."""
    try:
        build(value)
    except ValueError as exc:
        assert name in str(exc), f"{case} = {value!r}: {exc}"
        return
    assert not math.isnan(value), f"{case} = nan was accepted"


class TestMovedRules:
    """Each rule the scenario loader used to apply, now applied by its type."""

    @pytest.mark.parametrize("changes, key, message", [
        ({"gravity": 1e308}, "gravity",
         "empty_mass 2.7 kg weighs inf N at 1e+308 m/s^2; the weight must be finite"),
        ({"mtom": 1e308}, "mtom", "mtom 1e+308 kg weighs inf N at 9.81 m/s^2"),
        ({"empty_mass": math.nan}, "empty_mass", "must be > 0"),
        ({"com_height": math.nan}, "com_height", "must be > 0"),
        ({"wall_friction_coeff": math.nan}, "wall_friction_coeff", "must be >= 0"),
    ])
    def test_vehicle_weight_is_finite(self, changes, key, message):
        with pytest.raises(FieldError) as err:
            VehicleParams(**changes)
        assert err.value.key == key and err.value.message.startswith(message)

    def test_negative_payload_names_the_argument(self):
        with pytest.raises(FieldError) as err:
            VehicleParams().total_mass(-1.0)
        assert str(err.value) == "payload must be >= 0"

    @pytest.mark.parametrize("changes, key, message", [
        ({"hover_power_w": -1.0}, "hover_power_w", "must be finite and >= 0"),
        ({"hover_power_w": math.nan}, "hover_power_w", "must be finite and >= 0"),
        # inf passes both sign checks, and a run would price its first row at inf W
        ({"hover_power_w": math.inf}, "hover_power_w", "must be finite and >= 0"),
        ({"wall_wake_factor": -1.0}, "wall_wake_factor", "must be > 0"),
        ({"flight_power_w": {0.0: 0.0}}, "flight_power_w.0.0", "must be finite and > 0"),
        ({"flight_power_w": {0.0: math.inf}}, "flight_power_w.0.0", "must be finite and > 0"),
        ({"flight_power_w": {0.0: 858.24, 2.0: -5.0}}, "flight_power_w.2.0",
         "must be finite and > 0"),
    ])
    def test_power_model_values(self, changes, key, message):
        with pytest.raises(FieldError) as err:
            _power_model(**changes)
        assert (err.value.key, err.value.message) == (key, message)

    def test_power_model_applies_the_calibration_rule_to_its_fits(self):
        # c1 = -20, c3 = 30: negative power below 0.82 m/s
        with pytest.raises(ValueError) as fitted:
            calibrate_ground_power([(1.0, 10.0), (2.0, 200.0)])
        with pytest.raises(FieldError) as given:
            _with_ground_fit(-20.0, 30.0)
        assert given.value.key == "ground_coeffs.0.0"
        assert given.value.message == str(fitted.value)

    @pytest.mark.parametrize("c1, c3", [(math.inf, 0.0), (29.0, math.inf), (29.0, -math.inf)])
    def test_power_model_refuses_a_fit_that_is_not_finite(self, c1, c3):
        # inf passes both sign checks; at rest inf * 0.0 would price NaN W
        with pytest.raises(FieldError) as err:
            _with_ground_fit(c1, c3)
        assert (err.value.key, err.value.message) == (
            "ground_coeffs.0.0", "calibration overflows: the coefficients are not finite")

    @pytest.mark.parametrize("changes, key", [
        ({"width": 0}, "width"), ({"height": -1}, "height"), ({"cell_size_m": -2.0},
                                                              "cell_size_m"),
    ])
    def test_terrain_size_is_one_rule(self, changes, key):
        """The grid and the loader apply the same size rule; the loader
        reports it at the key's path."""
        with pytest.raises(FieldError) as built:
            _grid(**changes)
        assert built.value.key == key
        spec = {"width": 2, "height": 1, "cell_size_m": 1.0, **changes}
        with pytest.raises(ValueError) as loaded:
            terrain_from_dict(spec, source="t.json", keypath="planner.terrain")
        assert str(loaded.value) == f"t.json: planner.terrain.{key}: {built.value.message}"

    @pytest.mark.parametrize("t_s", [-1.0, math.nan, math.inf])
    def test_script_time(self, t_s):
        with pytest.raises(FieldError) as err:
            ScriptEvent(t_s)
        assert str(err.value) == "t_s must be finite and >= 0"

    def test_run_with_a_nan_script_time_is_refused(self, params, rotor, power_model, batteries):
        # a NaN time used to be sorted into the script and never fire
        sim = Simulator(params, rotor, power_model, batteries)
        with pytest.raises(FieldError, match="t_s"):
            sim.run(initial_ground_state(params), SurfaceModel(),
                    [ScriptEvent(math.nan, ControlSetpoint(Mode.GROUND, speed_mps=1.0))], 0.1)

    @pytest.mark.parametrize("changes, key", [
        ({"rolling_resistance": math.nan}, "rolling_resistance"),
        ({"lateral_friction": math.nan}, "lateral_friction"),
        ({"slope_deg": math.nan}, "slope_deg"),
        ({"kind": "incline", "slope_deg": 90.0}, "slope_deg"),
        # only an incline has a slope
        ({"slope_deg": 30.0}, "slope_deg"),
        ({"kind": "wall", "slope_deg": -1e308}, "slope_deg"),
        ({"kind": "wall", "slope_deg": 1e-300}, "slope_deg"),
    ])
    def test_surface_values(self, changes, key):
        with pytest.raises(FieldError) as err:
            SurfaceModel(**changes)
        assert err.value.key == key

    @pytest.mark.parametrize("name", ["max_speed_error_frac", "max_leg_deviation_frac",
                                      "steady_speed_mps", "min_distance_m",
                                      "expect_wall_tilt_deg"])
    def test_validation_thresholds(self, name):
        # a NaN threshold used to build, and then failed every check it bounds
        with pytest.raises(FieldError) as err:
            ValidationSpec(**{name: math.nan})
        assert err.value.key == name

    @pytest.mark.parametrize("yaw", [360.5, -1e8, 1e300])
    def test_yaw_target_is_bounded(self, yaw):
        # the heading wrap subtracts a turn at a time: 1e300 never ended
        with pytest.raises(FieldError) as err:
            ControlSetpoint(Mode.FLIGHT, target_yaw_deg=yaw)
        assert str(err.value) == "target_yaw_deg must be within +-360 deg"
        assert ControlSetpoint(Mode.FLIGHT, target_yaw_deg=-360.0).target_yaw_deg == -360.0

    @pytest.mark.parametrize("duration_s", [math.nan, math.inf, -1.0])
    def test_run_duration(self, params, rotor, power_model, batteries, duration_s):
        # NaN used to raise "cannot convert float NaN to integer"
        sim = Simulator(params, rotor, power_model, batteries)
        with pytest.raises(FieldError) as err:
            sim.run(initial_ground_state(params), SurfaceModel(), [], duration_s)
        assert str(err.value) == "duration_s must be finite and >= 0"

    def test_run_duration_of_too_many_steps(self, params, rotor, power_model, batteries):
        # used to raise a bare OverflowError from int(round(duration_s / dt))
        sim = Simulator(params, rotor, power_model, batteries)
        trace = io.StringIO()
        with pytest.raises(FieldError) as err:
            sim.run(initial_ground_state(params), SurfaceModel(), [], 1e308, trace=trace)
        assert str(err.value) == "duration_s 1e+308 s is too many steps of 0.001 s to count"
        assert trace.getvalue() == ""  # refused before the trace got its header

    def test_run_refuses_an_unstable_yaw_loop(self, rotor, power_model, batteries):
        # the rule `run_scenario` applied alone: a library run used to turn
        # at a yaw rate that ran away, unfaulted
        params = VehicleParams(yaw_inertia=0.05)
        sim = Simulator(params, rotor, power_model, batteries, dt_s=0.01)
        with pytest.raises(FieldError) as err:
            sim.run(initial_ground_state(params), SurfaceModel(), [], 1.0)
        assert str(err.value) == ("yaw_inertia 0.05 kg m^2 makes the yaw-rate loop unstable "
                                  "at dt_s 0.01 s; it must exceed 0.06 kg m^2")

    def test_a_loader_reports_a_positional_value_at_its_own_key(self):
        """A FieldError from a call given only positional arguments names the
        value at the path itself; from keyword arguments, one of its fields."""
        def fail(path, message):
            raise ValueError(f"{path}: {message}")

        with pytest.raises(ValueError, match=r"^payload_kg: must be >= 0$"):
            fields.call(VehicleParams().total_mass, fail, "payload_kg", -1.0)
        with pytest.raises(ValueError, match=r"^vehicle_overrides\.gravity: must be > 0$"):
            fields.call(VehicleParams, fail, "vehicle_overrides", gravity=-1.0)


class TestNanArguments:
    """Public numeric arguments that let NaN through, each now refused with
    an error naming the argument."""

    def test_decompose_thrust(self):
        for thrust in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="total_thrust"):
                decompose_thrust(thrust, 30.0)

    def test_mode_power_and_range_speed(self, power_model, batteries):
        with pytest.raises(ValueError, match="speed"):
            mode_power(power_model, "ground", speed=math.nan)
        with pytest.raises(ValueError, match="speed"):
            range_estimate(power_model, batteries, "ground", speed=math.nan)

    def test_validate_plan_max_deviation(self, power_model):
        terrain = terrain_from_ascii("...")
        cfg = PlannerConfig()
        mission = plan(terrain, (0, 0), (0, 2), cfg, power_model)
        for bound in (math.nan, -0.1):
            with pytest.raises(ValueError, match="max_deviation"):
                validate_plan(mission, terrain, power_model, cfg, max_deviation=bound)

    def test_plan_and_validate_plan_avionics_power(self, power_model, batteries):
        terrain = terrain_from_ascii("...")
        cfg = PlannerConfig()
        mission = plan(terrain, (0, 0), (0, 2), cfg, power_model)
        for watts in (math.nan, -1.0):
            with pytest.raises(ValueError, match="avionics_power_w"):
                plan(terrain, (0, 0), (0, 2), cfg, power_model, batteries=batteries,
                     avionics_power_w=watts)
            with pytest.raises(ValueError, match="avionics_power_w"):
                validate_plan(mission, terrain, power_model, cfg, batteries=batteries,
                              avionics_power_w=watts)


class TestRecords:
    def test_record_writes_fields_in_order_and_tuples_as_lists(self, power_model):
        mission = plan(terrain_from_ascii("...\n.#.\n..."), (0, 0), (2, 2), PlannerConfig(),
                       power_model)
        out = mission.to_json_dict()
        assert list(out) == [f.name for f in dataclasses.fields(mission)]
        assert out["start"] == [0, 0] and type(out["legs"]) is list
        assert out["legs"][0]["cells"][0] == [0, 0]
        assert out["legs"][0] == fields.record(mission.legs[0])

    def test_record_copies_only_what_it_converts(self):
        payload = {"kept": [1.0]}
        record = fields.record(ScriptEvent(1.0, setpoint=None, transition_to=Mode.FLIGHT))
        assert record == {"t_s": 1.0, "setpoint": None, "transition_to": Mode.FLIGHT}
        assert fields.record(payload) is payload


class TestCsvReader:
    """The rotor table and the mass budget share one line reader."""

    @pytest.mark.parametrize("load, header", [
        (load_rotor_table, "command,thrust_n,power_w"),
        (load_mass_budget, "name,mass_kg,category"),
    ])
    def test_shared_line_rules(self, load, header):
        with pytest.raises(ValueError, match=r"^line 2: expected header"):
            load(f"# bench\n{header},extra\n")
        with pytest.raises(ValueError, match=r"^line 3: expected 3 columns, got 2$"):
            load(f"{header}\n\n1,2\n")
        with pytest.raises(ValueError, match=r"^empty table: missing header$"):
            load("# only a comment\n\n")

    def test_rows_are_read_past_comments(self):
        budget = load_mass_budget("# kg\nname,mass_kg,category\n# frame\nframe, 1.5 ,structure\n")
        assert budget.components[0].mass_kg == 1.5
        with pytest.raises(RotorTableError, match="line 3: non-finite value in '0.5,nan,1'"):
            load_rotor_table("command,thrust_n,power_w\n0,0,0\n0.5, nan, 1\n")
