"""Replayable scenario configurations.

A scenario is one JSON file naming the vehicle setup, the surface or terrain,
and either a timed command script (simulation) or a start/goal query
(planning). All physical quantities carry unit suffixes in their key names.
Validation failures raise ScenarioError with the file and key path so a typo
is a one-line fix.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields as dataclass_fields, replace

from .defaults import (
    AVIONICS_POWER_W,
    default_batteries,
    default_params,
    default_power_model,
    default_rotor,
)
from .dynamics import ControlSetpoint, Mode, SurfaceModel
from .energy import (
    BATTERY_IDS,
    Battery,
    PowerModel,
    UnknownPayloadError,
    calibrate_ground_power,
)
from .planner import PlannerConfig
from .simulator import ScriptEvent, SimResult, Simulator
from .terrain import TerrainGrid, load_terrain_file, terrain_from_dict
from .vehicle import RotorModel, VehicleParams, load_rotor_table_file

_TOP_LEVEL_KEYS = {
    "name", "description", "payload_kg", "rotor_table", "vehicle_overrides",
    "batteries", "avionics_power_w", "power_model", "surface", "initial",
    "script", "duration_s", "planner", "validation", "seed",
}


class ScenarioError(ValueError):
    """Bad scenario config; message carries file and key path."""


@dataclass(frozen=True)
class ValidationSpec:
    """Pass/fail thresholds a scenario run is judged against."""

    steady_speed_mps: float | None = None
    max_speed_error_frac: float = 0.05
    forbid_faults: bool = True
    min_distance_m: float | None = None
    expect_fly_legs: int | None = None
    max_leg_deviation_frac: float = 0.15
    expect_wall_tilt_deg: float | None = None


@dataclass(frozen=True)
class PlannerQuery:
    terrain: TerrainGrid
    start: tuple[int, int]
    goal: tuple[int, int]
    config: PlannerConfig


@dataclass(frozen=True)
class InitialSpec:
    mode: Mode = Mode.GROUND
    position_m: tuple[float, float] = (0.0, 0.0)
    heading_deg: float = 0.0
    height_m: float = 0.0
    tilt_deg: float = 135.0  # wall starts only


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    payload_kg: float
    params: VehicleParams
    rotor: RotorModel
    power_model: PowerModel
    batteries: tuple[Battery, ...]
    avionics_power_w: float
    surface: SurfaceModel
    initial: InitialSpec
    script: tuple[ScriptEvent, ...]
    duration_s: float
    planner_query: PlannerQuery | None
    validation: ValidationSpec
    seed: int | None
    source: str

    @property
    def is_planning(self) -> bool:
        return self.planner_query is not None


def _fail(source: str, keypath: str, message: str):
    raise ScenarioError(f"{source}: {keypath}: {message}")


def _expect(data: dict, key: str, types, source: str, default=None, required=False):
    if key not in data:
        if required:
            _fail(source, key, "missing required key")
        return default
    return _checked(data[key], types, source, key)


def _checked(value, types, source: str, keypath: str):
    """value, if it is one of types; a bool passes only as bool, a float only
    when finite, an int only when it converts to a float."""
    types = types if isinstance(types, tuple) else (types,)
    if (not isinstance(value, types) or (isinstance(value, bool) and bool not in types)
            or (isinstance(value, float) and not math.isfinite(value))):
        names = " or ".join(t.__name__ for t in types)
        _fail(source, keypath, f"expected {names}, got {value!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            float(value)
        except OverflowError:
            _fail(source, keypath, "integer too large for a float")
    return value


def load_scenario(path: str) -> Scenario:
    source = os.path.basename(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: top level must be an object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        _fail(source, ", ".join(sorted(unknown)), "unknown key(s)")
    return scenario_from_dict(data, source=source, base_dir=base_dir)


def scenario_from_dict(data: dict, source: str = "<scenario>", base_dir: str = ".") -> Scenario:
    name = _expect(data, "name", str, source, required=True)
    description = _expect(data, "description", str, source, default="")
    payload = float(_expect(data, "payload_kg", (int, float), source, default=0.0))
    if payload < 0:
        _fail(source, "payload_kg", "must be >= 0")

    params = default_params()
    overrides = _expect(data, "vehicle_overrides", dict, source, default={})
    if overrides:
        valid = {f.name for f in dataclass_fields(VehicleParams)}
        for key in overrides:
            if key not in valid:
                _fail(source, f"vehicle_overrides.{key}", "unknown vehicle parameter")
        try:
            params = replace(params, **overrides)
        except ValueError as exc:
            _fail(source, "vehicle_overrides", str(exc))

    rotor_ref = _expect(data, "rotor_table", str, source, default="default")
    if rotor_ref == "default":
        rotor = default_rotor()
    else:
        rotor_path = os.path.join(base_dir, rotor_ref)
        if not os.path.exists(rotor_path):
            _fail(source, "rotor_table", f"file not found: {rotor_ref}")
        rotor = load_rotor_table_file(rotor_path)

    batteries = _load_batteries(data, source)
    avionics = float(_expect(data, "avionics_power_w", (int, float), source,
                             default=AVIONICS_POWER_W))
    model = _load_power_model(data, params, rotor, source)
    try:  # a payload the ground calibration lacks fails here, not mid-run
        model.ground_power(0.0, payload)
    except UnknownPayloadError as exc:
        _fail(source, "payload_kg", str(exc))
    surface = _load_surface(data, source)
    initial = _load_initial(data, source)
    script = _load_script(data, source)
    duration = float(_expect(data, "duration_s", (int, float), source, default=0.0))
    if duration < 0:
        _fail(source, "duration_s", "must be >= 0")
    planner_query = _load_planner_query(data, source, base_dir)
    validation = _load_validation(data, source)
    seed = _expect(data, "seed", int, source, default=None)
    return Scenario(
        name=name,
        description=description,
        payload_kg=payload,
        params=params,
        rotor=rotor,
        power_model=model,
        batteries=tuple(batteries),
        avionics_power_w=avionics,
        surface=surface,
        initial=initial,
        script=tuple(script),
        duration_s=duration,
        planner_query=planner_query,
        validation=validation,
        seed=seed,
        source=source,
    )


def _load_batteries(data, source) -> list[Battery]:
    spec = data.get("batteries", "default")
    if spec == "default":
        return default_batteries()
    if not isinstance(spec, list):
        _fail(source, "batteries", "expected 'default' or a list")
    out = []
    for i, entry in enumerate(spec):
        kp = f"batteries[{i}]"
        if not isinstance(entry, dict):
            _fail(source, kp, "expected an object")
        bid = _expect(entry, "battery_id", str, source, required=True)
        if bid not in BATTERY_IDS:
            _fail(source, f"{kp}.battery_id", f"must be one of {BATTERY_IDS}")
        for key in ("cells_series", "capacity_ah"):
            if key not in entry:
                _fail(source, f"{kp}.{key}", "missing required key")
        cells = _checked(entry["cells_series"], int, source, f"{kp}.cells_series")
        numbers = {key: float(_checked(entry[key], (int, float), source, f"{kp}.{key}"))
                   for key in ("capacity_ah", "nominal_cell_voltage", "cutoff_cell_voltage",
                               "soc", "usable_fraction") if key in entry}
        try:
            out.append(Battery(bid, cells, **numbers))
        except ValueError as exc:
            _fail(source, kp, str(exc))
    return out


def _load_power_model(data, params, rotor, source) -> PowerModel:
    spec = data.get("power_model")
    base = default_power_model(params, rotor)
    if spec is None:
        return base
    if not isinstance(spec, dict):
        _fail(source, "power_model", "expected an object")
    ground = dict(base.ground_coeffs)
    cal = spec.get("ground_calibration")
    if cal is not None:
        if not isinstance(cal, dict):
            _fail(source, "power_model.ground_calibration", "expected an object")
        ground = {}
        for key, points in cal.items():
            kp = f"power_model.ground_calibration.{key}"
            try:
                payload = float(key)
            except ValueError:
                _fail(source, kp, "payload keys must be numeric")
            if not isinstance(points, list) or not all(
                    isinstance(pt, list) and len(pt) == 2 for pt in points):
                _fail(source, kp, "expected a list of [speed_mps, power_w] pairs")
            pairs = [tuple(float(_checked(v, (int, float), source, f"{kp}[{j}][{m}]"))
                           for m, v in enumerate(pt)) for j, pt in enumerate(points)]
            try:
                ground[payload] = calibrate_ground_power(pairs)
            except ValueError as exc:
                _fail(source, kp, str(exc))
    flight = dict(base.flight_power_w)
    fp = spec.get("flight_power_w")
    if fp is not None:
        if not isinstance(fp, dict):
            _fail(source, "power_model.flight_power_w", "expected an object")
        flight = {}
        for key, watts in fp.items():
            kp = f"power_model.flight_power_w.{key}"
            try:
                payload = float(key)
            except ValueError:
                _fail(source, kp, "payload keys must be numeric")
            flight[payload] = float(_checked(watts, (int, float), source, kp))
            if flight[payload] <= 0.0:  # every planned move must cost energy
                _fail(source, kp, "must be > 0")
    hover = float(_checked(spec.get("hover_power_w", base.hover_power_w), (int, float),
                           source, "power_model.hover_power_w"))
    wake = float(_checked(spec.get("wall_wake_factor", base.wall_wake_factor), (int, float),
                          source, "power_model.wall_wake_factor"))
    if hover < 0.0:
        _fail(source, "power_model.hover_power_w", "must be >= 0")
    if wake <= 0.0:
        _fail(source, "power_model.wall_wake_factor", "must be > 0")
    return PowerModel(
        params=params, rotor=rotor, ground_coeffs=ground,
        flight_power_w=flight, hover_power_w=hover, wall_wake_factor=wake,
    )


def _load_surface(data, source) -> SurfaceModel:
    spec = data.get("surface")
    if spec is None:
        return SurfaceModel()
    if not isinstance(spec, dict):
        _fail(source, "surface", "expected an object")
    kind = spec.get("kind", "flat")
    numbers = {key: float(_checked(spec[key], (int, float), source, f"surface.{key}"))
               for key in ("slope_deg", "rolling_resistance", "lateral_friction")
               if spec.get(key) is not None}
    try:
        return SurfaceModel(kind=kind, **numbers)
    except ValueError as exc:
        _fail(source, "surface", str(exc))


def _load_initial(data, source) -> InitialSpec:
    spec = data.get("initial")
    if spec is None:
        return InitialSpec()
    if not isinstance(spec, dict):
        _fail(source, "initial", "expected an object")
    mode_name = spec.get("mode", "ground")
    try:
        mode = Mode(mode_name)
    except ValueError:
        _fail(source, "initial.mode", f"unknown mode {mode_name!r}")
    pos = spec.get("position_m", [0.0, 0.0])
    if not isinstance(pos, list) or len(pos) != 2:
        _fail(source, "initial.position_m", "expected [x, y]")
    numbers = {key: float(_checked(spec[key], (int, float), source, f"initial.{key}"))
               for key in ("heading_deg", "height_m", "tilt_deg") if key in spec}
    return InitialSpec(
        mode=mode,
        position_m=tuple(float(_checked(v, (int, float), source, f"initial.position_m[{i}]"))
                         for i, v in enumerate(pos)),
        **numbers,
    )


def _load_script(data, source) -> list[ScriptEvent]:
    entries = data.get("script", [])
    if not isinstance(entries, list):
        _fail(source, "script", "expected a list")
    events: list[ScriptEvent] = []
    last_t = -math.inf
    for i, entry in enumerate(entries):
        kp = f"script[{i}]"
        if not isinstance(entry, dict):
            _fail(source, kp, "expected an object")
        t = _expect(entry, "t_s", (int, float), source, required=True)
        t = float(t)
        if t < 0:
            _fail(source, f"{kp}.t_s", "must be >= 0")
        if t <= last_t:
            _fail(source, f"{kp}.t_s", "script times must be strictly increasing")
        last_t = t
        transition = None
        if "transition_to" in entry:
            try:
                transition = Mode(entry["transition_to"])
            except ValueError:
                _fail(source, f"{kp}.transition_to", f"unknown mode {entry['transition_to']!r}")
        setpoint = None
        sp_keys = {"mode", "speed_mps", "yaw_rate_radps", "target_position_m", "target_yaw_deg"}
        if sp_keys & set(entry):
            mode_name = entry.get("mode")
            if mode_name is None:
                _fail(source, f"{kp}.mode", "setpoint entries must name their mode")
            try:
                mode = Mode(mode_name)
            except ValueError:
                _fail(source, f"{kp}.mode", f"unknown mode {mode_name!r}")
            target = entry.get("target_position_m")
            if target is not None:
                if not isinstance(target, list) or len(target) != 3:
                    _fail(source, f"{kp}.target_position_m", "expected [x, y, z]")
                target = tuple(
                    float(_checked(v, (int, float), source, f"{kp}.target_position_m[{j}]"))
                    for j, v in enumerate(target)
                )
            numbers = {key: float(_checked(entry[key], (int, float), source, f"{kp}.{key}"))
                       for key in ("speed_mps", "yaw_rate_radps", "target_yaw_deg")
                       if key in entry}
            try:
                setpoint = ControlSetpoint(mode=mode, target_position=target, **numbers)
            except ValueError as exc:
                _fail(source, kp, str(exc))
        unknown = set(entry) - sp_keys - {"t_s", "transition_to"}
        if unknown:
            _fail(source, kp, f"unknown key(s): {sorted(unknown)}")
        events.append(ScriptEvent(t_s=t, setpoint=setpoint, transition_to=transition))
    return events


def _load_planner_query(data, source, base_dir) -> PlannerQuery | None:
    spec = data.get("planner")
    if spec is None:
        return None
    if not isinstance(spec, dict):
        _fail(source, "planner", "expected an object")
    terrain_ref = _expect(spec, "terrain", (str, dict), source, required=True)
    if isinstance(terrain_ref, str):
        terrain_path = os.path.join(base_dir, terrain_ref)
        if not os.path.exists(terrain_path):
            _fail(source, "planner.terrain", f"file not found: {terrain_ref}")
        terrain = load_terrain_file(terrain_path)
    else:
        terrain = terrain_from_dict(terrain_ref, source=source, keypath="planner.terrain.")
    cells = {}
    for key in ("start_cell", "goal_cell"):
        cell = spec.get(key)
        if not isinstance(cell, list) or len(cell) != 2:
            _fail(source, f"planner.{key}", "expected [row, col]")
        cell = tuple(_checked(v, int, source, f"planner.{key}[{i}]") for i, v in enumerate(cell))
        if not terrain.in_bounds(cell):
            _fail(source, f"planner.{key}", f"cell {cell} out of bounds")
        cells[key] = cell
    cfg_kwargs = {
        key: float(_checked(spec[key], (int, float), source, f"planner.{key}"))
        for key in ("drive_speed_mps", "fly_speed_mps", "transition_energy_wh",
                    "transition_time_s", "slope_margin_deg")
        if key in spec
    }
    unknown = set(spec) - {"terrain", "start_cell", "goal_cell"} - set(cfg_kwargs)
    if unknown:
        _fail(source, "planner", f"unknown key(s): {sorted(unknown)}")
    try:
        cfg = PlannerConfig(**cfg_kwargs)
    except ValueError as exc:
        _fail(source, "planner", str(exc))
    return PlannerQuery(terrain=terrain, start=cells["start_cell"],
                        goal=cells["goal_cell"], config=cfg)


def _load_validation(data, source) -> ValidationSpec:
    spec = data.get("validation")
    if spec is None:
        return ValidationSpec()
    if not isinstance(spec, dict):
        _fail(source, "validation", "expected an object")
    valid = {f.name for f in dataclass_fields(ValidationSpec)}
    unknown = set(spec) - valid
    if unknown:
        _fail(source, "validation", f"unknown key(s): {sorted(unknown)}")
    # a field whose default is None also takes null
    for f in dataclass_fields(ValidationSpec):
        if f.name in spec and not (spec[f.name] is None and f.default is None):
            kind = {"forbid_faults": bool, "expect_fly_legs": int}.get(f.name, (int, float))
            _checked(spec[f.name], kind, source, f"validation.{f.name}")
    return ValidationSpec(**spec)


def build_simulator(scenario: Scenario, dt_s: float = 0.001,
                    trace_decimation: int = 10) -> Simulator:
    return Simulator(
        params=scenario.params,
        rotor=scenario.rotor,
        power_model=scenario.power_model,
        batteries=[replace_soc(b) for b in scenario.batteries],
        payload=scenario.payload_kg,
        avionics_power_w=scenario.avionics_power_w,
        dt_s=dt_s,
        trace_decimation=trace_decimation,
    )


def replace_soc(battery: Battery) -> Battery:
    """Fresh copy of a battery spec (mutability stays inside one run)."""
    return Battery(
        battery_id=battery.battery_id,
        cells_series=battery.cells_series,
        capacity_ah=battery.capacity_ah,
        nominal_cell_voltage=battery.nominal_cell_voltage,
        cutoff_cell_voltage=battery.cutoff_cell_voltage,
        soc=battery.soc,
        usable_fraction=battery.usable_fraction,
    )


def initial_state_for(scenario: Scenario):
    from . import dynamics

    init = scenario.initial
    if init.mode == Mode.WALL:
        return dynamics.initial_wall_state(
            scenario.params, height_m=init.height_m, tilt_deg=init.tilt_deg
        )
    if init.mode == Mode.FLIGHT:
        return dynamics.initial_flight_state(
            (init.position_m[0], init.position_m[1], init.height_m),
            yaw_deg=init.heading_deg,
        )
    return dynamics.initial_ground_state(
        scenario.params, scenario.surface,
        position_xy=init.position_m, heading_deg=init.heading_deg,
    )


def run_scenario(scenario: Scenario, dt_s: float = 0.001,
                 trace_decimation: int = 10) -> SimResult:
    if scenario.is_planning:
        raise ScenarioError(f"{scenario.source}: planning scenario has no script to run")
    sim = build_simulator(scenario, dt_s=dt_s, trace_decimation=trace_decimation)
    state = initial_state_for(scenario)
    return sim.run(state, scenario.surface, list(scenario.script), scenario.duration_s)


def evaluate_simulation(scenario: Scenario, result: SimResult) -> tuple[bool, list[dict]]:
    """Judge a run against the scenario's validation thresholds."""
    spec = scenario.validation
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: str):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    if spec.forbid_faults:
        check("no_faults", not result.faulted,
              result.fault_reason or "clean run")
    if spec.steady_speed_mps is not None:
        v = result.final_state.speed
        target = spec.steady_speed_mps
        err = abs(v - target) / target if target > 0 else abs(v)
        check(
            "steady_speed",
            err <= spec.max_speed_error_frac,
            f"final speed {v:.4f} m/s vs target {target} m/s "
            f"({100 * err:.2f}% error)",
        )
    if spec.min_distance_m is not None:
        first = initial_state_for(scenario).position
        dist = math.dist(first, result.final_state.position)
        check(
            "min_distance",
            dist >= spec.min_distance_m,
            f"displacement {dist:.3f} m vs required {spec.min_distance_m} m",
        )
    if spec.expect_wall_tilt_deg is not None:
        tilt = 0.5 * (result.final_state.tilt_front_deg
                      + result.final_state.tilt_rear_deg)
        check(
            "wall_tilt",
            abs(tilt - spec.expect_wall_tilt_deg) <= 0.5,
            f"final tilt {tilt:.1f} deg vs expected {spec.expect_wall_tilt_deg} deg",
        )
    ok = all(c["ok"] for c in checks)
    return ok, checks
