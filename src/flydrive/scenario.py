"""Replayable scenario configurations.

A scenario is one JSON file naming the vehicle setup, the surface or terrain,
and either a timed command script (simulation) or a start/goal query
(planning). All physical quantities carry unit suffixes in their key names.
Validation failures raise ScenarioError with the file and key path so a typo
is a one-line fix.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import TextIO

from . import dynamics, fields
from .defaults import (
    AVIONICS_POWER_W,
    HOVER_POWER_W,
    WALL_WAKE_FACTOR,
    default_batteries,
    default_power_model,
    default_rotor,
)
from .dynamics import ControlSetpoint, FlightTargetError, Mode, SurfaceModel
from .energy import BATTERY_IDS, Battery, PowerModel, UnknownPayloadError, calibrate_ground_power
from .fields import REQUIRED, FieldError
from .planner import PlannerConfig
from .simulator import ScriptEvent, SimResult, Simulator
from .terrain import TerrainGrid, load_terrain_file, terrain_from_dict
from .vehicle import RotorModel, VehicleParams, load_rotor_table_file


class ScenarioError(ValueError):
    """Bad scenario config; message carries file and key path."""


# The most thrust the four rotors may give per unit of the vehicle's empty
# weight. A multirotor's thrust-to-weight ratio is typically 2 to 10 (the
# bundled vehicle's, empty, is 2.7); one far lighter than its rotors would
# leave the speed envelope within a step and overflow the outputs.
MAX_THRUST_TO_EMPTY_WEIGHT = 20.0


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

    def __post_init__(self):
        # each check is written so that NaN fails it; None leaves a check out
        for name in ("max_speed_error_frac", "expect_fly_legs", "max_leg_deviation_frac"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise FieldError(name, "must be >= 0")
        for name in ("steady_speed_mps", "min_distance_m", "expect_wall_tilt_deg"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise FieldError(name, "must be finite")


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


# The schema of a scenario file: one table per JSON object (see fields.py). A
# block that fills a dataclass takes its keys, kinds and defaults from its fields.
SCENARIO = {
    "name": (str, REQUIRED),
    "description": (str, ""),  # free text for the reader; the program ignores it
    "payload_kg": (float, 0.0),
    "rotor_table": (str, "default"),  # "default" or a CSV file beside the scenario
    "vehicle_overrides": (dict, {}),  # VEHICLE
    "batteries": ((str, list), "default"),  # "default" or a list of BATTERY
    "avionics_power_w": (float, AVIONICS_POWER_W),
    "power_model": (dict, None),  # POWER_MODEL
    "surface": (dict, None),  # SURFACE
    "initial": (dict, None),  # INITIAL
    "script": (list, []),  # SCRIPT_EVENT entries
    "duration_s": (float, 0.0),
    "planner": (dict, None),  # PLANNER
    "validation": (dict, None),  # VALIDATION
    "seed": (int, None),
}
VEHICLE = fields.table_of(VehicleParams)
BATTERY = {**fields.table_of(Battery), "battery_id": (frozenset(BATTERY_IDS), REQUIRED)}
POWER_MODEL = {
    "ground_calibration": (dict, None),  # payload kg -> [[speed_mps, power_w], ...]
    "flight_power_w": (dict, None),  # payload kg -> W
    "hover_power_w": (float, HOVER_POWER_W),
    "wall_wake_factor": (float, WALL_WAKE_FACTOR),
}
SURFACE = fields.table_of(SurfaceModel)
INITIAL = fields.table_of(InitialSpec)
SCRIPT_EVENT = {
    "t_s": (float, REQUIRED),
    "transition_to": (Mode, None),
    # any of the keys below makes a setpoint, which must name its mode
    "mode": (Mode, None),
    "speed_mps": (float, 0.0),
    "yaw_rate_radps": (float, 0.0),
    "target_position_m": ([float, float, float], None),
    "target_yaw_deg": (float, 0.0),
}
PLANNER = {
    "terrain": ((str, dict), REQUIRED),  # a JSON file beside the scenario, or inline
    "start_cell": ([int, int], REQUIRED),  # [row, col]
    "goal_cell": ([int, int], REQUIRED),
    **fields.table_of(PlannerConfig),
}
VALIDATION = fields.table_of(ValidationSpec)


def load_scenario(path: str) -> Scenario:
    source = os.path.basename(path)
    return scenario_from_dict(fields.load_json(path, source, ScenarioError), source=source,
                              base_dir=os.path.dirname(os.path.abspath(path)))


def scenario_from_dict(data: dict, source: str = "<scenario>", base_dir: str = ".") -> Scenario:
    def fail(keypath: str, message: str):
        raise ScenarioError(f"{source}: {keypath}: {message}")

    top = fields.read(data, SCENARIO, fail)

    def block(key: str, table: dict) -> dict:  # a null or missing block reads as {}
        return fields.read(top[key] or {}, table, fail, key)

    for key in ("duration_s", "avionics_power_w"):
        if top[key] < 0:
            fail(key, "must be >= 0")
    params = fields.call(VehicleParams, fail, "vehicle_overrides",
                         **block("vehicle_overrides", VEHICLE))
    if top["rotor_table"] == "default":
        rotor = default_rotor()
    else:
        rotor = fields.call(load_rotor_table_file, fail, "rotor_table",
                            _file_beside(base_dir, top["rotor_table"], fail, "rotor_table"))
    weight, thrust = params.empty_mass * params.gravity, 4.0 * rotor.max_thrust
    if not thrust <= MAX_THRUST_TO_EMPTY_WEIGHT * weight:
        # named by the setting that moved: a lowered gravity, else empty_mass
        key = ("gravity" if params.gravity != VehicleParams.gravity
               and params.empty_mass == VehicleParams.empty_mass else "empty_mass")
        fail(f"vehicle_overrides.{key}",
             f"{params.empty_mass} kg weighs {weight:.3g} N at {params.gravity} m/s^2; the "
             f"rotors' full thrust {thrust:.3g} N may be at most {MAX_THRUST_TO_EMPTY_WEIGHT:g} "
             f"times the empty weight")
    fields.call(params.total_mass, fail, "payload_kg", top["payload_kg"])
    model = _load_power_model(block("power_model", POWER_MODEL), params, rotor, fail)
    # a payload the ground calibration lacks fails here, not mid-run
    fields.call(model.ground_power, fail, "payload_kg", 0.0, top["payload_kg"])
    return Scenario(
        name=top["name"],
        payload_kg=top["payload_kg"],
        params=params,
        rotor=rotor,
        power_model=model,
        batteries=tuple(_load_batteries(top["batteries"], fail)),
        avionics_power_w=top["avionics_power_w"],
        surface=fields.call(SurfaceModel, fail, "surface", **block("surface", SURFACE)),
        initial=_load_initial(block("initial", INITIAL), model, top["payload_kg"], fail),
        script=tuple(_load_script(top["script"], fail)),
        duration_s=top["duration_s"],
        planner_query=None if top["planner"] is None else _load_planner_query(
            block("planner", PLANNER), fail, source, base_dir),
        validation=fields.call(ValidationSpec, fail, "validation",
                               **block("validation", VALIDATION)),
        seed=top["seed"],
        source=source,
    )


def _load_initial(spec: dict, model: PowerModel, payload: float, fail) -> InitialSpec:
    """The initial state's spec. A wall start's tilt must be one the
    vehicle can climb at, since the run prices its first row there."""
    initial = InitialSpec(**spec)
    if initial.mode == Mode.WALL:
        fields.call(model.wall_power, fail, "initial.tilt_deg", initial.tilt_deg, payload)
    return initial


def _file_beside(base_dir: str, ref: str, fail, keypath: str) -> str:
    path = os.path.join(base_dir, ref)
    if not os.path.isfile(path):
        fail(keypath, f"file not found: {ref!r}")
    return path


def _load_batteries(spec, fail) -> list[Battery]:
    if spec == "default":
        return default_batteries()
    if isinstance(spec, str):
        fail("batteries", "expected 'default' or a list")
    packs = []
    for i, entry in enumerate(spec):
        kp = f"batteries[{i}]"
        pack = fields.read(entry, BATTERY, fail, kp)
        if any(p.battery_id == pack["battery_id"] for p in packs):
            fail(f"{kp}.battery_id", f"duplicate {pack['battery_id']!r}")
        packs.append(fields.call(Battery, fail, kp, **pack))
    return packs


def read_calibration_points(value, fail, keypath: str) -> list[tuple[float, float]]:
    """[[speed_mps, power_w], ...] as float pairs, or fail(keypath, ...)."""
    if type(value) is not list or not all(type(pt) is list and len(pt) == 2 for pt in value):
        fail(keypath, "expected a list of [speed_mps, power_w] pairs")
    return [fields.check(pt, [float, float], fail, f"{keypath}[{j}]")
            for j, pt in enumerate(value)]


def _by_payload(spec: dict, fail, keypath: str, read_value) -> dict:
    """{payload kg: read_value(value, keypath)} from an object keyed by
    payload: each key a finite number, no two naming the same payload."""
    out = {}
    for key, value in spec.items():
        kp = f"{keypath}.{key}"
        try:
            payload = float(key)
        except ValueError:
            payload = math.nan
        if not math.isfinite(payload):
            fail(kp, "payload keys must be finite numbers")
        if payload in out:
            fail(kp, f"payload {payload} kg given twice")
        out[payload] = read_value(value, kp)
    return out


def _load_power_model(pm: dict, params, rotor, fail) -> PowerModel:
    base = default_power_model(params, rotor)

    def fitted(points, kp):
        return fields.call(calibrate_ground_power, fail, kp,
                           read_calibration_points(points, fail, kp))

    def watts(value, kp):  # the model checks that each is > 0
        return fields.check(value, float, fail, kp)

    ground, flight = pm["ground_calibration"], pm["flight_power_w"]
    return fields.call(
        PowerModel, fail, "power_model",
        params=params,
        rotor=rotor,
        ground_coeffs=dict(base.ground_coeffs) if ground is None else _by_payload(
            ground, fail, "power_model.ground_calibration", fitted),
        flight_power_w=dict(base.flight_power_w) if flight is None else _by_payload(
            flight, fail, "power_model.flight_power_w", watts),
        hover_power_w=pm["hover_power_w"],
        wall_wake_factor=pm["wall_wake_factor"],
    )


def _load_script(entries: list, fail) -> list[ScriptEvent]:
    """The script's events. Whether a flight has a usable target is left to
    the run, which names the entry behind it (`run_scenario`)."""
    events: list[ScriptEvent] = []
    for i, entry in enumerate(entries):
        kp = f"script[{i}]"
        ev = fields.read(entry, SCRIPT_EVENT, fail, kp)
        setpoint = None
        if entry.keys() - {"t_s", "transition_to"}:
            if ev["mode"] is None:
                fail(f"{kp}.mode", "setpoint entries must name their mode")
            setpoint = fields.call(
                ControlSetpoint, fail, kp, mode=ev["mode"], speed_mps=ev["speed_mps"],
                yaw_rate_radps=ev["yaw_rate_radps"], target_position=ev["target_position_m"],
                target_yaw_deg=ev["target_yaw_deg"],
            )
        events.append(fields.call(ScriptEvent, fail, kp, t_s=ev["t_s"], setpoint=setpoint,
                                  transition_to=ev["transition_to"]))
        if len(events) > 1 and events[-1].t_s <= events[-2].t_s:
            fail(f"{kp}.t_s", "script times must be strictly increasing")
    return events


def _load_planner_query(query: dict, fail, source: str, base_dir: str) -> PlannerQuery:
    ref = query.pop("terrain")
    if isinstance(ref, dict):
        terrain = terrain_from_dict(ref, source=source, keypath="planner.terrain")
    else:
        terrain = load_terrain_file(_file_beside(base_dir, ref, fail, "planner.terrain"))
    start, goal = query.pop("start_cell"), query.pop("goal_cell")
    for key, cell in (("start_cell", start), ("goal_cell", goal)):
        if not terrain.in_bounds(cell):
            fail(f"planner.{key}", f"cell {cell} out of bounds")
    return PlannerQuery(terrain=terrain, start=start, goal=goal,
                        config=fields.call(PlannerConfig, fail, "planner", **query))


def build_simulator(scenario: Scenario, dt_s: float = 0.001,
                    trace_decimation: int = 10) -> Simulator:
    return Simulator(
        params=scenario.params,
        rotor=scenario.rotor,
        power_model=scenario.power_model,
        batteries=[replace(b) for b in scenario.batteries],  # packs change within a run
        payload=scenario.payload_kg,
        avionics_power_w=scenario.avionics_power_w,
        dt_s=dt_s,
        trace_decimation=trace_decimation,
    )


def initial_state_for(scenario: Scenario):
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
                 trace_decimation: int = 10, trace: TextIO | None = None) -> SimResult:
    """Run the scenario's script; `trace` is `Simulator.run`'s."""
    if scenario.is_planning:
        raise ScenarioError(f"{scenario.source}: planning scenario has no script to run")
    sim = build_simulator(scenario, dt_s=dt_s, trace_decimation=trace_decimation)
    state = initial_state_for(scenario)
    try:
        return sim.run(state, scenario.surface, list(scenario.script), scenario.duration_s,
                       trace=trace)
    except FieldError as exc:  # the run's checks of duration_s and yaw_inertia
        keypath = "vehicle_overrides.yaw_inertia" if exc.key == "yaw_inertia" else exc.key
        raise ScenarioError(f"{scenario.source}: {keypath}: {exc.message}") from None
    except FlightTargetError as exc:  # named by the entry behind the flight
        keypath = "initial.mode" if exc.event is None else next(
            f"script[{i}].target_position_m" for i, ev in enumerate(scenario.script)
            if ev is exc.event)
        raise ScenarioError(f"{scenario.source}: {keypath}: {exc}") from None
    except UnknownPayloadError as exc:  # a calibration only a cruise needs
        raise ScenarioError(f"{scenario.source}: payload_kg: {exc}") from None


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
