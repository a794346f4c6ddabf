"""Command-line front end.

Five subcommands: simulate (run a scripted scenario, emit trace + ledger),
plan (route query on a terrain grid), analyze (static feasibility reports),
calibrate (fit ground power coefficients), design (headline sizing metrics).

Exit status: 0 success, 1 a validation threshold failed or an output would
hold a non-finite number (that file is not written), 2 bad input; a
reader that closes stdout early changes neither the status nor the files.
Outputs are plain JSON and CSV under --out; payloads carry no timestamps so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from importlib import resources

from . import fields, statics
from .defaults import (
    default_batteries,
    default_mass_budget,
    default_params,
    default_rotor,
)
from .dynamics import Mode
from .energy import UnknownPayloadError, calibrate_ground_power, usable_propulsion_energy_wh
from .planner import NoPathError, plan as plan_route, validate_plan
from .scenario import (
    Scenario,
    ScenarioError,
    evaluate_simulation,
    load_scenario,
    read_calibration_points,
    run_scenario,
)
from .vehicle import design_metrics, load_rotor_table_file

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2


def bundled_scenarios() -> dict:
    """Name -> path for the scenarios shipped inside the package."""
    root = resources.files("flydrive.data").joinpath("scenarios")
    found = {}
    for entry in root.iterdir():
        if entry.name.endswith(".json"):
            found[entry.name[:-5]] = os.fspath(entry)
    return dict(sorted(found.items()))


def _resolve_scenario(ref: str) -> str:
    if os.path.isfile(ref):
        return ref
    bundled = bundled_scenarios()
    if ref in bundled:
        return bundled[ref]
    names = ", ".join(bundled)
    raise ScenarioError(f"{ref}: not a file and not a bundled scenario ({names})")


class NonFiniteOutputError(RuntimeError):
    """An output would hold NaN or infinity, which JSON cannot represent."""


def _write_json(out_dir: str, name: str, payload) -> str:
    path = os.path.join(out_dir, name)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteOutputError(f"{path}: non-finite value in output") from None
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return path


@contextlib.contextmanager
def _staged(path: str):
    """A text file open at a temporary name beside path, which the block
    renames to path; its directory is made if missing. If the block raises,
    the temporary file and every directory made for it are removed, so a
    failed command leaves nothing behind."""
    made, parent = [], os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    staged = path + ".tmp"
    try:
        with open(staged, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except BaseException:
        if os.path.exists(staged):
            os.remove(staged)
        for directory in made:  # the deepest first
            os.rmdir(directory)
        raise


def _state_dict(state) -> dict:
    return {
        "time_s": state.time_s,
        "position_m": list(state.position),
        "velocity_mps": list(state.velocity),
        "speed_mps": state.speed,
        "tilt_front_deg": state.tilt_front_deg,
        "tilt_rear_deg": state.tilt_rear_deg,
        "mode": state.mode.value,
        "contact": state.contact,
    }


def _cmd_simulate(args) -> int:
    scenario = load_scenario(_resolve_scenario(args.scenario))
    if scenario.is_planning:
        raise ScenarioError(
            f"{scenario.source}: scenario defines a planner query; use the plan subcommand"
        )
    trace_path = os.path.join(args.out, "trace.csv")
    with _staged(trace_path) as trace:  # the rows stream to it as the run goes
        result = run_scenario(scenario, dt_s=args.dt_s, trace_decimation=args.decimation,
                              trace=trace)
        ok, checks = evaluate_simulation(scenario, result)
        result.write_trace(trace_path)
    ledger_path = _write_json(args.out, "ledger.json", result.ledger.to_dict())

    payload = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "ok": ok,
        "faulted": result.faulted,
        "fault_reason": result.fault_reason,
        "checks": checks,
        "events": result.events,
        "final_state": _state_dict(result.final_state),
        "energy_total_wh": result.ledger.total_wh,
    }
    if scenario.initial.mode == Mode.WALL:
        wall = statics.wall_climb_analysis(
            scenario.power_model.params,
            scenario.initial.tilt_deg,
            climbing=True,
            rotor=scenario.power_model.rotor,
            payload=scenario.payload_kg,
        )
        payload["wall_climb"] = statics.analysis_record(
            "wall_climb",
            {"tilt_deg": scenario.initial.tilt_deg, "payload_kg": scenario.payload_kg},
            wall,
        )
    result_path = _write_json(args.out, "result.json", payload)

    for path in (trace_path, ledger_path, result_path):
        print(f"wrote {path}")
    for check in checks:
        print(f"[{'pass' if check['ok'] else 'FAIL'}] {check['name']}: {check['detail']}")
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_plan(args) -> int:
    scenario = load_scenario(_resolve_scenario(args.scenario))
    query = scenario.planner_query
    if query is None:
        raise ScenarioError(
            f"{scenario.source}: scenario has no planner query; use the simulate subcommand"
        )
    batteries = list(scenario.batteries)
    try:
        mission = plan_route(
            query.terrain, query.start, query.goal, query.config,
            scenario.power_model, batteries=batteries, payload=scenario.payload_kg,
            avionics_power_w=scenario.avionics_power_w,
        )
    except NoPathError as exc:
        print(f"no feasible route: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnknownPayloadError as exc:  # a calibration only a fly edge needs
        raise ScenarioError(f"{scenario.source}: payload_kg: {exc}") from None

    payload = mission.to_json_dict()
    payload["scenario"] = scenario.name
    payload["seed"] = scenario.seed
    plan_path = _write_json(args.out, "plan.json", payload)
    print(f"wrote {plan_path}")
    n_fly = sum(1 for leg in mission.legs if leg.mode == "fly")
    print(
        f"route: {len(mission.legs)} legs ({n_fly} fly), "
        f"{mission.total_energy_wh:.4f} Wh, feasible={mission.feasible}"
    )

    ok = mission.feasible
    expected_fly = scenario.validation.expect_fly_legs
    if expected_fly is not None and n_fly != expected_fly:
        print(f"[FAIL] expected {expected_fly} fly leg(s), got {n_fly}")
        ok = False

    if args.validate:
        report = validate_plan(
            mission, query.terrain, scenario.power_model, query.config,
            batteries=batteries, payload=scenario.payload_kg,
            max_deviation=scenario.validation.max_leg_deviation_frac,
            avionics_power_w=scenario.avionics_power_w,
        )
        report_payload = report.to_json_dict()
        report_payload["scenario"] = scenario.name
        report_payload["seed"] = scenario.seed
        report_path = _write_json(args.out, "validation.json", report_payload)
        print(f"wrote {report_path}")
        for leg in report.legs:
            status = "pass" if leg.ok else "FAIL"
            print(
                f"[{status}] leg {leg.index} ({leg.mode}): predicted "
                f"{leg.predicted_wh:.4f} Wh, simulated {leg.simulated_wh:.4f} Wh"
            )
        if not report.ok:
            ok = False
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_analyze(args) -> int:
    params = default_params()
    rotor = default_rotor()
    payload = args.payload_kg
    sections = []
    if args.tipping:
        angle = statics.tipping_slope(params)
        sections.append({
            "analysis": "tipping_slope",
            "inputs": {
                "com_height_m": params.com_height,
                "wheel_half_spacing_m": params.wheel_contact_half_spacing_long,
            },
            "result": {"tipping_slope_deg": angle},
        })
    if args.incline is not None:
        analysis = statics.incline_equilibrium(
            params, args.incline, moving=not args.static, rotor=rotor, payload=payload,
        )
        sections.append(statics.analysis_record(
            "incline_equilibrium",
            {"slope_deg": args.incline, "moving": not args.static, "payload_kg": payload},
            analysis,
        ))
    if args.wall is not None:
        analysis = statics.wall_climb_analysis(
            params, args.wall, climbing=not args.static, rotor=rotor, payload=payload,
        )
        sections.append(statics.analysis_record(
            "wall_climb",
            {"tilt_deg": args.wall, "climbing": not args.static, "payload_kg": payload},
            analysis,
        ))
    if args.optimal_tilt:
        best = statics.optimal_wall_tilt(params, rotor, payload=payload)
        at_best = statics.wall_climb_analysis(
            params, best, climbing=True, rotor=rotor, payload=payload,
        )
        sections.append({
            "analysis": "optimal_wall_tilt",
            "inputs": {"payload_kg": payload},
            "result": {
                "optimal_tilt_deg": best,
                "required_thrust_n": at_best.required_thrust,
            },
        })
    if args.decompose is not None:
        thrust, pitch = args.decompose
        decomp = statics.decompose_thrust(thrust, pitch)
        sections.append(statics.analysis_record(
            "thrust_decomposition", {"total_thrust_n": thrust, "pitch_deg": pitch}, decomp,
        ))
    if not sections:
        raise ScenarioError(
            "nothing to analyze: pass --tipping, --incline, --wall, "
            "--optimal-tilt, or --decompose"
        )
    report = {"sections": sections}
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out is not None:
        path = _write_json(args.out, "analysis.json", report)
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: a bad number exits 2 naming
    the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_point(text: str) -> tuple:
    try:
        speed, power = map(_finite_float, text.split("="))
    except (ValueError, argparse.ArgumentTypeError):
        raise ScenarioError(
            f"bad --points entry {text!r}: expected SPEED_MPS=POWER_W, each a finite number"
        ) from None
    return speed, power


def _cmd_calibrate(args) -> int:
    if args.points:
        points = [_parse_point(p) for p in args.points]
    elif args.points_file is not None:
        def fail(keypath: str, message: str):
            raise ScenarioError(f"{args.points_file}: {keypath or 'top level'}: {message}")

        raw = fields.load_json(args.points_file, args.points_file, ScenarioError)
        points = read_calibration_points(raw, fail, "")
    else:
        raise ScenarioError("calibrate needs --points or --points-file")
    try:
        c1, c3 = calibrate_ground_power(points)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    fitted = {
        "c1_w_per_mps": c1,
        "c3_w_per_mps3": c3,
        "points": [{"speed_mps": v, "power_w": p} for v, p in points],
        "fit_power_w": {
            str(v): c1 * v + c3 * v ** 3 for v, _ in points
        },
    }
    print(json.dumps(fitted, indent=2, sort_keys=True))
    if args.out is not None:
        path = _write_json(args.out, "calibration.json", fitted)
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_design(args) -> int:
    params = default_params()
    if args.rotor_table is not None:
        if not os.path.isfile(args.rotor_table):
            raise ScenarioError(f"{args.rotor_table}: no such file")
        rotor = load_rotor_table_file(args.rotor_table)
    else:
        rotor = default_rotor()
    usable = args.usable_wh
    if usable is None:
        usable = usable_propulsion_energy_wh(default_batteries())
    metrics = design_metrics(params, rotor, usable)
    budget = default_mass_budget()
    try:
        budget.validate_against(params)
        budget_ok, budget_note = True, "consistent with vehicle parameters"
    except ValueError as exc:
        budget_ok, budget_note = False, str(exc)
    report = {
        "tw_ratio": metrics.tw_ratio,
        "payload_capacity_kg": metrics.payload_capacity,
        "gam_mass_fraction": metrics.gam_mass_fraction,
        "gam_mass_fraction_pct": 100.0 * metrics.gam_mass_fraction,
        "hover_power_estimate_w": metrics.hover_power_estimate,
        "hover_endurance_estimate_s": metrics.hover_endurance_estimate,
        "empty_mass_kg": params.empty_mass,
        "mtom_kg": params.mtom,
        "usable_energy_wh": usable,
        "mass_budget_ok": budget_ok,
        "mass_budget_note": budget_note,
        "rotor_table": rotor.name,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out is not None:
        path = _write_json(args.out, "design.json", report)
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK if budget_ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flydrive",
        description="Simulation and analysis toolkit for a tilt-axle flying-driving vehicle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scripted scenario")
    p_sim.add_argument("scenario", help="scenario file or bundled scenario name")
    p_sim.add_argument("--out", default="out", help="output directory")
    p_sim.add_argument("--dt-s", type=_finite_float, default=0.001, help="integrator step")
    p_sim.add_argument("--decimation", type=int, default=10,
                       help="trace every Nth step")
    p_sim.set_defaults(func=_cmd_simulate)

    p_plan = sub.add_parser("plan", help="plan a route on a terrain grid")
    p_plan.add_argument("scenario", help="scenario file or bundled scenario name")
    p_plan.add_argument("--out", default="out", help="output directory")
    p_plan.add_argument("--validate", action="store_true",
                        help="re-simulate each leg and compare energies")
    p_plan.set_defaults(func=_cmd_plan)

    p_an = sub.add_parser("analyze", help="static feasibility reports")
    p_an.add_argument("--tipping", action="store_true",
                      help="tipping slope of the default geometry")
    p_an.add_argument("--incline", type=_finite_float, default=None, metavar="SLOPE_DEG")
    p_an.add_argument("--wall", type=_finite_float, default=None, metavar="TILT_DEG")
    p_an.add_argument("--optimal-tilt", action="store_true")
    p_an.add_argument("--decompose", type=_finite_float, nargs=2, default=None,
                      metavar=("THRUST_N", "PITCH_DEG"))
    p_an.add_argument("--payload-kg", type=_finite_float, default=0.0)
    p_an.add_argument("--static", action="store_true",
                      help="analyze holding instead of moving")
    p_an.add_argument("--out", default=None, help="also write analysis.json here")
    p_an.set_defaults(func=_cmd_analyze)

    p_cal = sub.add_parser("calibrate", help="fit ground power coefficients")
    p_cal.add_argument("--points", action="append", default=[],
                       metavar="SPEED_MPS=POWER_W")
    p_cal.add_argument("--points-file", default=None,
                       help="JSON [[speed_mps, power_w], ...]")
    p_cal.add_argument("--out", default=None, help="also write calibration.json here")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_des = sub.add_parser("design", help="headline sizing metrics")
    p_des.add_argument("--rotor-table", default=None, help="CSV performance table")
    p_des.add_argument("--usable-wh", type=_finite_float, default=None,
                       help="usable propulsion energy override")
    p_des.add_argument("--out", default=None, help="also write design.json here")
    p_des.set_defaults(func=_cmd_design)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with contextlib.redirect_stdout(_ReaderMayLeave(sys.stdout)):
            return args.func(args)
    except NonFiniteOutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # ScenarioError, TerrainError and RotorTableError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


class _ReaderMayLeave:
    """stdout for a command. Once its reader has closed it, output is
    dropped and the command runs on: its files and its exit code are its
    results, and stdout only reports them."""

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def write(self, text):
        try:
            self._stream.write(text)
            self._stream.flush()  # a closed stdout shows here, not at exit
        except BrokenPipeError:
            # what is still buffered, and all later output, go to devnull
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), self._stream.fileno())
        return len(text)


if __name__ == "__main__":
    sys.exit(main())
