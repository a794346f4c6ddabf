"""Acceptance suite: the nine headline checks, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (visible under
pytest -s or in the captured output) and asserts the stated tolerance.
Criterion 7 compares the planner against an independent branch-and-bound
enumeration over all simple mode-annotated paths.
"""

import hashlib
import json
import math
import random
import time

import pytest

from flydrive import cli, planner, statics
from flydrive.defaults import (
    USABLE_PROPULSION_ENERGY_WH,
    default_batteries,
    default_mass_budget,
    default_params,
    default_power_model,
    default_rotor,
)
from flydrive.energy import endurance_ratio, mode_power, range_estimate
from flydrive.planner import PlannerConfig
from flydrive.scenario import (
    evaluate_simulation,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)
from flydrive.statics import (
    conventional_pitch_for_slope,
    decompose_thrust,
    tipping_slope,
)
from flydrive.terrain import terrain_from_dict
from flydrive.vehicle import design_metrics
from terrain_helpers import neighbors4


def _report(criterion: int, problems: list, detail: str):
    status = "FAIL" if problems else "PASS"
    print(f"criterion {criterion}: {status} ({detail})")
    assert not problems, "; ".join(problems)


def test_criterion_1_thrust_decomposition_identities():
    rng = random.Random(101)
    problems = []
    t0 = time.perf_counter()
    for _ in range(1000):
        thrust = rng.uniform(0.0, 80.0)
        pitch = rng.uniform(0.0, 90.0)
        d = decompose_thrust(thrust, pitch)
        lhs = d.f_parallel ** 2 + d.f_perpendicular ** 2
        rhs = thrust ** 2
        if rhs > 0 and abs(lhs - rhs) / rhs >= 1e-9:
            problems.append(f"magnitude broken at F={thrust}, pitch={pitch}")
        slope = rng.uniform(0.0, 90.0)
        if conventional_pitch_for_slope(slope) != 90.0 - slope:
            problems.append(f"complement broken at slope={slope}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f} s, budget 1 s")
    _report(1, problems, f"1000 cases in {elapsed * 1000:.0f} ms")


def test_criterion_2_tipping_slope():
    angle = tipping_slope(default_params())
    problems = []
    if abs(angle - 60.93) > 0.02:
        problems.append(f"tipping slope {angle:.4f} deg, expected 60.93 +/- 0.02")
    _report(2, problems, f"tipping slope {angle:.4f} deg")


def test_criterion_3_design_metrics():
    budget = default_mass_budget()
    metrics = design_metrics(
        default_params(),
        default_rotor(),
        USABLE_PROPULSION_ENERGY_WH,
        gam_mass_kg=budget.gam_mass,
    )
    problems = []
    if abs(metrics.tw_ratio - 1.843) > 0.001:
        problems.append(f"tw_ratio {metrics.tw_ratio:.4f}")
    if abs(metrics.payload_capacity - 1.3) > 0.001:
        problems.append(f"payload {metrics.payload_capacity:.4f} kg")
    if abs(100.0 * metrics.gam_mass_fraction - 8.22) > 0.05:
        problems.append(f"gam fraction {100 * metrics.gam_mass_fraction:.3f}%")
    _report(
        3,
        problems,
        f"tw {metrics.tw_ratio:.3f}, payload {metrics.payload_capacity:.3f} kg, "
        f"gam {100 * metrics.gam_mass_fraction:.2f}%",
    )


def test_criterion_4_power_model_reproduction():
    model = default_power_model()
    batteries = default_batteries()
    problems = []
    p_unloaded = mode_power(model, "ground", speed=1.0, payload=0.0)
    p_loaded = mode_power(model, "ground", speed=1.0, payload=2.0)
    if p_unloaded != 29.8:
        problems.append(f"ground 1 m/s unloaded {p_unloaded!r} W, expected 29.8 exactly")
    if p_loaded != 58.6:
        problems.append(f"ground 1 m/s loaded {p_loaded!r} W, expected 58.6 exactly")
    r_unloaded = endurance_ratio(model, 0.0, 1.0)
    r_loaded = endurance_ratio(model, 2.0, 1.0)
    if abs(r_unloaded - 28.8) > 0.1:
        problems.append(f"endurance ratio unloaded {r_unloaded:.3f}, expected 28.8")
    if abs(r_loaded - 25.5) > 0.1:
        problems.append(f"endurance ratio loaded {r_loaded:.3f}, expected 25.5")
    slow = range_estimate(model, batteries, "ground", 1.0)
    fast = range_estimate(model, batteries, "ground", 4.1)
    if abs(slow - 11500.0) / 11500.0 > 0.05:
        problems.append(f"range at 1 m/s {slow:.0f} m, expected 11500 +/- 5%")
    if abs(fast - 8200.0) / 8200.0 > 0.05:
        problems.append(f"range at 4.1 m/s {fast:.0f} m, expected 8200 +/- 5%")
    _report(
        4,
        problems,
        f"powers {p_unloaded}/{p_loaded} W, ratios {r_unloaded:.1f}/{r_loaded:.1f}, "
        f"ranges {slow / 1000:.2f}/{fast / 1000:.2f} km",
    )


def test_criterion_5_mode_power_ordering():
    model = default_power_model()
    g0 = mode_power(model, "ground", speed=0.0)
    g1 = mode_power(model, "ground", speed=1.0)
    incline = mode_power(model, "incline", speed=1.0, slope_deg=33.0)
    hover = mode_power(model, "hover")
    wall = mode_power(model, "wall", tilt_deg=135.0)
    flight = mode_power(model, "flight")
    problems = []
    if g0 != 0.0:
        problems.append(f"stationary ground power {g0} W, expected 0")
    if not (g0 < g1 < incline < hover < wall):
        problems.append(
            f"ordering broken: 0={g0}, ground={g1}, incline={incline}, "
            f"hover={hover}, wall={wall}"
        )
    if not wall > flight:
        problems.append(f"wall {wall} W not above flight {flight} W")
    _report(
        5,
        problems,
        f"0 < {g1:.1f} < {incline:.1f} < {hover:.1f} < {wall:.1f} W, "
        f"flight {flight:.1f} W",
    )


def test_criterion_6_wall_climb_feasibility():
    params = default_params()
    rotor = default_rotor()
    problems = []
    at_135 = statics.wall_climb_analysis(params, 135.0, climbing=True, rotor=rotor)
    available = 4.0 * rotor.max_thrust
    if not at_135.climb_feasible or at_135.required_thrust > 72.3:
        problems.append(
            f"135 deg climb needs {at_135.required_thrust:.2f} N of {available:.1f} N"
        )
    best = statics.optimal_wall_tilt(params, rotor)
    if not best < 135.0:
        problems.append(f"optimal tilt {best:.2f} deg not below 135")
    # independent fine-grid search
    oracle_tilt, oracle_req = None, math.inf
    for i in range(1, 9000):
        tilt = 90.0 + 0.01 * i
        result = statics.wall_climb_analysis(params, tilt, climbing=True, rotor=rotor)
        if result.attached and result.climb_feasible and result.required_thrust < oracle_req:
            oracle_tilt, oracle_req = tilt, result.required_thrust
    if oracle_tilt is None or abs(best - oracle_tilt) > 0.1:
        problems.append(f"optimal tilt {best} deg vs fine-grid {oracle_tilt} deg")
    _report(
        6,
        problems,
        f"135 deg needs {at_135.required_thrust:.1f} N <= 72.3 N, "
        f"optimum {best:.1f} deg (fine grid {oracle_tilt:.2f} deg)",
    )


def _oracle_min_energy(grid, start, goal, cfg, model, payload=0.0):
    """Minimum route energy by exhaustive enumeration of simple paths.

    Depth-first branch and bound over (cell, mode) nodes, sharing only the
    edge energy functions with the planner (`planner._edge_pricer`, bound
    once per instance). Pruning uses an admissible
    remaining-cost bound (cheapest conceivable move times the Manhattan cell
    distance, shaved by 1e-9 against float rounding), so the returned value
    is the exact enumeration minimum. Returns None when the goal is
    unreachable.
    """
    trav = planner.classify_traversability(grid, model.params, cfg)
    if not trav.drivable_at(start) or not trav.drivable_at(goal):
        return None
    if start == goal:
        return 0.0
    flat_drive = (
        model.ground_power(cfg.drive_speed_mps, payload)
        * grid.cell_size_m / cfg.drive_speed_mps / 3600.0
    )
    flat_fly = (
        model.flight_power(payload)
        * grid.cell_size_m / cfg.fly_speed_mps / 3600.0
    )
    min_edge = min(flat_drive, flat_fly) * (1.0 - 1e-9)
    drive_wh = planner._edge_pricer(planner.DRIVE, grid.cell_size_m, cfg, model, payload)
    fly_wh = planner._edge_pricer(planner.FLY, grid.cell_size_m, cfg, model, payload)
    goal_node = (goal, planner.DRIVE)
    best = math.inf
    on_path = set()

    def manhattan(cell):
        return abs(cell[0] - goal[0]) + abs(cell[1] - goal[1])

    def visit(cell, mode, energy):
        nonlocal best
        if (cell, mode) == goal_node:
            if energy < best:
                best = energy
            return
        on_path.add((cell, mode))
        moves = []
        if mode == planner.DRIVE:
            for n in neighbors4(grid, cell):
                if trav.drivable_at(n) and (n, planner.DRIVE) not in on_path:
                    e = energy + drive_wh(grid.elevation_at(n) - grid.elevation_at(cell))
                    moves.append((manhattan(n), e, n, planner.DRIVE))
            if trav.flyable_at(cell) and (cell, planner.FLY) not in on_path:
                moves.append(
                    (manhattan(cell), energy + cfg.transition_energy_wh, cell, planner.FLY)
                )
        else:
            for n in neighbors4(grid, cell):
                if trav.flyable_at(n) and (n, planner.FLY) not in on_path:
                    e = energy + fly_wh(grid.elevation_at(n) - grid.elevation_at(cell))
                    moves.append((manhattan(n), e, n, planner.FLY))
            if trav.drivable_at(cell) and (cell, planner.DRIVE) not in on_path:
                moves.append(
                    (manhattan(cell), energy + cfg.transition_energy_wh, cell, planner.DRIVE)
                )
        moves.sort(key=lambda m: (m[0], m[1]))
        for dist, e, n, nmode in moves:
            if e + dist * min_edge > best:
                continue
            visit(n, nmode, e)
        on_path.discard((cell, mode))

    visit(start, planner.DRIVE, 0.0)
    return None if math.isinf(best) else best


def _planner_instance_suite():
    """Fifty fixed 6x6 instances: flat grids with up to two obstacles,
    gentle random relief, and a steep ridge that forces a fly-over."""
    rng = random.Random(431926)
    cells = [(r, c) for r in range(6) for c in range(6)]
    instances = []
    for i in range(50):
        kind = i % 5
        elev = [[0.0] * 6 for _ in range(6)]
        n_obstacles = 0
        if kind in (0, 1):
            n_obstacles = rng.randrange(3)
        elif kind in (2, 3):
            for r in range(6):
                for c in range(6):
                    elev[r][c] = round(rng.uniform(0.0, 0.5), 3)
            n_obstacles = rng.randrange(3)
        else:
            for c in range(6):
                elev[3][c] = 5.0
        if kind == 4:
            start = (rng.randrange(2), rng.randrange(6))
            goal = (5, rng.randrange(6))
        else:
            start, goal = rng.sample(cells, 2)
        candidates = [c for c in cells if c not in (start, goal)]
        obstacles = rng.sample(candidates, n_obstacles) if n_obstacles else []
        grid = terrain_from_dict(
            {
                "width": 6,
                "height": 6,
                "cell_size_m": 2.0,
                "elevation_m": [elev[r][c] for r in range(6) for c in range(6)],
                "obstacles": [list(o) for o in obstacles],
            }
        )
        instances.append((grid, start, goal))
    return instances


def test_criterion_7_planner_matches_exhaustive_search():
    model = default_power_model()
    cfg = PlannerConfig()
    problems = []
    n_flown = 0
    t0 = time.perf_counter()
    for idx, (grid, start, goal) in enumerate(_planner_instance_suite()):
        oracle = _oracle_min_energy(grid, start, goal, cfg, model)
        try:
            mission = planner.plan(grid, start, goal, cfg, model)
        except planner.NoPathError:
            if oracle is not None:
                problems.append(f"instance {idx}: planner found no route, oracle did")
            continue
        if oracle is None:
            problems.append(f"instance {idx}: planner routed where oracle found none")
        elif mission.total_energy_wh != oracle:
            problems.append(
                f"instance {idx}: planner {mission.total_energy_wh!r} Wh != "
                f"oracle {oracle!r} Wh"
            )
        if mission.n_transitions:
            n_flown += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"suite took {elapsed:.1f} s, budget 30 s")
    if n_flown == 0:
        problems.append("suite never exercised a mode switch")
    _report(
        7,
        problems,
        f"50 instances bit-exact in {elapsed:.1f} s, {n_flown} with mode switches",
    )


def test_criterion_8_closed_loop_fidelity():
    problems = []
    bundled = cli.bundled_scenarios()
    for name in ("confined-space", "rocky-soil", "incline-33", "wall-climb"):
        scenario = load_scenario(bundled[name])
        result = run_scenario(scenario)
        ok, checks = evaluate_simulation(scenario, result)
        if not ok:
            failed = [c["name"] for c in checks if not c["ok"]]
            problems.append(f"{name}: failed {failed}")
        for check in checks:
            if check["name"] == "steady_speed" and not check["ok"]:
                problems.append(f"{name}: {check['detail']}")

    scenario = load_scenario(bundled["multimodal-obstacle"])
    query = scenario.planner_query
    mission = planner.plan(
        query.terrain, query.start, query.goal, query.config,
        scenario.power_model, batteries=list(scenario.batteries),
        payload=scenario.payload_kg,
    )
    report = planner.validate_plan(
        mission, query.terrain, scenario.power_model, query.config,
        batteries=list(scenario.batteries), payload=scenario.payload_kg,
        max_deviation=0.15,
    )
    if not report.ok:
        bad = [(leg.index, leg.mode, leg.deviation) for leg in report.legs if not leg.ok]
        problems.append(f"multimodal-obstacle validation: {bad}")

    idle = scenario_from_dict({"name": "idle", "duration_s": 2.0})
    result = run_scenario(idle)
    drift = math.dist((0.0, 0.0, result.final_state.position[2]),
                      result.final_state.position)
    if drift > 1e-9 or result.final_state.speed != 0.0:
        problems.append(
            f"zero-command drift {drift} m, speed {result.final_state.speed}"
        )
    _report(8, problems, "4 scenarios at speed, plan validated, idle is a fixed point")


# sha256 of every bundled output. Regenerate this table only in a change that
# states on purpose that it alters behaviour, and record why in CHANGES.md.
GOLDEN_SHA256 = {
    ("confined-space", "ledger.json"): "f184744fc04cf2effed0d691187ed2f54042e57f5b5ee3d6b52ccb08e40848f8",
    ("confined-space", "result.json"): "6be6e695e3c4f5701cfe4e67b078c5ea9e87084ca381b37eb6ea952656b0f28a",
    ("confined-space", "trace.csv"): "a655edebab073806ec23ebe3264586de3cf4f40e85456a249a1e84863a4f58d6",
    ("incline-33", "ledger.json"): "4057404b87739af4a70352c89b7356b8247c6d8f4df4032e0b9f91adb9aba246",
    ("incline-33", "result.json"): "36669d88657277ab60ad0e659b1d48e283b54a2a9eaa66fae6b30c45172855dc",
    ("incline-33", "trace.csv"): "b440d0f3cf6fba233ef808a69e67658366f4cb91a5dfd589bb8cf1996cbce4c2",
    ("multimodal-obstacle", "plan.json"): "36e657206fe6cabb433b2c5e11718d3b82a55faf894b025d9226f28948c544c1",
    ("multimodal-obstacle", "validation.json"): "d4aae5bb33583574bcfc9bfb0ad69555259cdde2f17566d4620d2da90b43dbd2",
    ("rocky-soil", "ledger.json"): "f184744fc04cf2effed0d691187ed2f54042e57f5b5ee3d6b52ccb08e40848f8",
    ("rocky-soil", "result.json"): "9c57fdcd0836790a23a797199477e6d57634531727504a17416aa4482f672ba0",
    ("rocky-soil", "trace.csv"): "85bdfdaf71c2c6b7edea81fd8c73d97ea46387aad5d088e63456f14f2c5fc11f",
    ("wall-climb", "ledger.json"): "4f70331eef9553dacc330922d06365dd1db6668ac9229a74a7b55c5c1e8c4650",
    ("wall-climb", "result.json"): "01767b1d93a1a3fab03ec364d05f144b02ab89547a8b983a87ee50b08e1baf95",
    ("wall-climb", "trace.csv"): "0036b7a37de41a9b1f4325044c7f5beb99f4d1bff4e1bc5883be8cd8c08296a3",
}


def test_criterion_9_bundled_scenarios_deterministic(tmp_path):
    problems = []
    unchecked = set(GOLDEN_SHA256)
    for name, path in cli.bundled_scenarios().items():
        scenario = load_scenario(path)
        out_a = tmp_path / name / "a"
        out_b = tmp_path / name / "b"
        if scenario.is_planning:
            argv = ["plan", path, "--validate"]
            files = ("plan.json", "validation.json")
        else:
            argv = ["simulate", path]
            files = ("trace.csv", "ledger.json", "result.json")
        rc_a = cli.main(argv + ["--out", str(out_a)])
        rc_b = cli.main(argv + ["--out", str(out_b)])
        if rc_a != 0 or rc_b != 0:
            problems.append(f"{name}: exit codes {rc_a}/{rc_b}")
            continue
        for fname in files:
            data = (out_a / fname).read_bytes()
            if data != (out_b / fname).read_bytes():
                problems.append(f"{name}: {fname} differs between runs")
            unchecked.discard((name, fname))
            if hashlib.sha256(data).hexdigest() != GOLDEN_SHA256.get((name, fname)):
                problems.append(f"{name}: {fname} differs from its golden digest")
    if unchecked:
        problems.append(f"golden outputs not produced: {sorted(unchecked)}")
    _report(9, problems, "all 5 scenarios byte-identical across reruns and to golden")
