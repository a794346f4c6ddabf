"""The three benchmark workloads: seeded inputs, operations and output checks.

Each workload function writes its generated inputs as scenario or terrain JSON into the
work directory and returns a `Workload`: the operations of one pass, the
input files the set-up probe parses, and a function that reads the
workload's own figures (integrator steps, grid cells, validated legs) off the
outputs.  An operation is timed around
`call` only; `collect` turns its return value into an outcome that must be
identical on every pass, and `check` lists what is wrong with that outcome.

Every program entry point is looked up at call time (`cli.main`,
`flydrive.plan`), so the traced run sees calls through its wrappers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import flydrive
from flydrive import cli

from reference import leg_problems, reference_route

HERE = os.path.dirname(os.path.abspath(__file__))
BUNDLED_MISSIONS = ("confined-space", "rocky-soil", "incline-33", "wall-climb")
SIM_OUTPUTS = ("trace.csv", "ledger.json", "result.json")
PLAN_OUTPUTS = ("plan.json", "validation.json")


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    collect: Callable[[object], dict]
    check: Callable[[dict], list]


@dataclass
class Workload:
    ops: list
    manifest: dict  # {"scenarios": [...], "terrains": [...]} for the set-up probe
    figures: Callable[[], dict]  # workload figures read from the last pass


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_op(name: str, argv: list, out: str, outputs: tuple, check) -> Op:
    def collect(rc):
        found = [f for f in outputs if os.path.exists(os.path.join(out, f))]
        return {"rc": rc, "digests": {f: sha256_file(os.path.join(out, f)) for f in found}}

    return Op(name, lambda: cli.main([*argv, "--out", out]), collect, check)


def _expect_rc(outcome: dict, allowed=(0,)) -> list:
    if outcome["rc"] not in allowed:
        return [f"exit code {outcome['rc']}, expected {' or '.join(map(str, allowed))}"]
    return []


def _golden_problems(outcome: dict, golden: dict) -> list:
    return [
        f"{f}: sha256 {outcome['digests'].get(f)} differs from golden {want}"
        for f, want in sorted(golden.items())
        if outcome["digests"].get(f) != want
    ]


def _scenario_path(ref: str) -> str:
    """A bundled scenario name or a file path, as `flydrive` accepts them."""
    return cli.bundled_scenarios().get(ref, ref)


def _sim_steps(out: str, dt_s: float) -> int:
    return round(_read_json(os.path.join(out, "result.json"))["final_state"]["time_s"] / dt_s)


def planner_problems(plan: dict, terrain, start, goal, cfg, model, payload=0.0) -> list:
    """A plan's leg invariants, and its energy against the reference optimum:
    equal bit for bit, with no more transitions than the reference route."""
    trav = flydrive.classify_traversability(terrain, model.params, cfg)
    problems = leg_problems(plan, trav)
    energy, switches = reference_route(terrain, start, goal, cfg, model, trav, payload)
    if plan["total_energy_wh"] != energy:
        problems.append(f"total_energy_wh {plan['total_energy_wh']!r}, "
                        f"reference optimum {energy!r}")
    elif plan["n_transitions"] > switches:
        problems.append(f"{plan['n_transitions']} transitions where an optimal "
                        f"route with {switches} exists")
    return problems


# -- missions -----------------------------------------------------------------

def missions(seed: int, work: str, small: bool = False) -> Workload:
    """Scripted simulations through `flydrive simulate`, never the planner."""
    rng = random.Random(seed)
    golden = load_golden()["simulate"]
    params = flydrive.default_params()
    ops, steps_of = [], []

    bundled = BUNDLED_MISSIONS[-1:] if small else BUNDLED_MISSIONS
    for name in bundled:
        out = os.path.join(work, name)

        def check(outcome, name=name):
            return _expect_rc(outcome) + _golden_problems(outcome, golden[name])

        ops.append(_cli_op(f"simulate {name}", ["simulate", name], out, SIM_OUTPUTS, check))
        steps_of.append((out, 0.001))

    # Mixed-mode: drive, stop, take off to a seeded waypoint, land, drive on.
    waypoint = [round(rng.uniform(12.0, 24.0), 3), round(rng.uniform(-6.0, 6.0), 3),
                round(rng.uniform(3.0, 8.0), 3)]
    landing = [waypoint[0], waypoint[1], params.com_height]
    mixed = _write_json(os.path.join(work, "mixed-mode.json"), {
        "name": "mixed-mode",
        "description": "Drive, stop, fly to a waypoint at altitude, land and drive on.",
        "surface": {"kind": "flat"},
        "script": [
            {"t_s": 0.0, "mode": "ground", "speed_mps": 1.0},
            {"t_s": 8.0, "mode": "ground", "speed_mps": 0.0},
            {"t_s": 12.0, "transition_to": "flight", "mode": "flight",
             "target_position_m": waypoint},
            {"t_s": 22.0, "mode": "flight", "target_position_m": landing},
            {"t_s": 30.0, "transition_to": "ground"},
            {"t_s": 32.0, "mode": "ground", "speed_mps": 1.0},
        ],
        "duration_s": 40.0,
        "validation": {"forbid_faults": True},
        "seed": seed,
    })
    mixed_out = os.path.join(work, "mixed-mode")

    def check_mixed(outcome):
        problems = _expect_rc(outcome)
        if problems:
            return problems
        result = _read_json(os.path.join(mixed_out, "result.json"))
        kinds = [(e["kind"], e["detail"]) for e in result["events"]]
        want = [("transition_started", "flight"), ("transition_complete", "flight"),
                ("transition_started", "ground"), ("transition_complete", "ground")]
        if kinds != want:
            problems.append(f"mixed-mode events {kinds}, expected {want}")
        if result["final_state"]["mode"] != "ground":
            problems.append(f"mixed-mode ends in {result['final_state']['mode']} mode")
        with open(os.path.join(mixed_out, "trace.csv"), encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            z_col = header.index("z_m")
            top = max(float(line.split(",")[z_col]) for line in fh)
        if top < 0.95 * waypoint[2]:
            problems.append(f"mixed-mode peaks at {top:.3f} m, waypoint is at {waypoint[2]} m")
        return problems

    ops.append(_cli_op("simulate mixed-mode", ["simulate", mixed], mixed_out,
                       SIM_OUTPUTS, check_mixed))
    steps_of.append((mixed_out, 0.001))

    # Endurance: drive at 1 m/s until the propulsion packs hit their floor.
    # The script runs for twice the time the margin lasts at 29.8 W.
    usable = flydrive.defaults.USABLE_FRACTION
    margin = rng.uniform(0.0015, 0.0025) if small else rng.uniform(0.024, 0.026)
    packs = [{"battery_id": pid, "cells_series": 4, "capacity_ah": 5.0,
              "usable_fraction": usable, "soc": (1.0 - usable) + margin}
             for pid in ("prop_a", "prop_b")]
    packs.append({"battery_id": "electronics", "cells_series": 2, "capacity_ah": 3.2,
                  "usable_fraction": 0.8})
    endurance = _write_json(os.path.join(work, "endurance.json"), {
        "name": "endurance",
        "description": "Drive at 1 m/s until propulsion protection trips.",
        "surface": {"kind": "flat"},
        "batteries": packs,
        "script": [{"t_s": 0.0, "mode": "ground", "speed_mps": 1.0}],
        "duration_s": 2.0 * margin * (2 * 4 * 3.7 * 5.0) / 29.8 * 3600.0,
        "validation": {"forbid_faults": False},
        "seed": seed,
    })
    endurance_out = os.path.join(work, "endurance")

    def check_endurance(outcome):
        problems = _expect_rc(outcome)
        if problems:
            return problems
        result = _read_json(os.path.join(endurance_out, "result.json"))
        tripped = sorted(e["detail"] for e in result["events"]
                         if e["kind"] == "battery_protection")
        if tripped != ["prop_a", "prop_b"]:
            problems.append(f"battery_protection events for {tripped}, expected prop_a and prop_b")
        scenario = flydrive.load_scenario(endurance)
        energy = sum(b.remaining_usable_wh for b in scenario.batteries if b.is_propulsion)
        expected = energy / scenario.power_model.ground_power(1.0) * 3600.0 * 1.0
        x, y = result["final_state"]["position_m"][:2]
        driven = math.hypot(x, y)
        if abs(driven - expected) > 0.01 * expected:
            problems.append(f"drove {driven:.2f} m before the trip, energy range is "
                            f"{expected:.2f} m (more than 1 % apart)")
        return problems

    ops.append(_cli_op("simulate endurance", ["simulate", endurance, "--dt-s", "0.02"],
                       endurance_out, SIM_OUTPUTS, check_endurance))
    steps_of.append((endurance_out, 0.02))

    def figures():
        return {"sim_steps": sum(_sim_steps(out, dt) for out, dt in steps_of)}

    return Workload(ops, {"scenarios": [*bundled, mixed, endurance], "terrains": []}, figures)


# -- plan-grid ----------------------------------------------------------------

def relief_grid(rng: random.Random, n: int) -> dict:
    """n x n relief, 3 m cells, elevation uniform in 0-0.5 m, split by a
    one-cell fence of obstacles at a seeded column in the middle third."""
    fence = rng.randrange(n // 3, 2 * n // 3)
    return {
        "width": n, "height": n, "cell_size_m": 3.0,
        "elevation_m": [rng.uniform(0.0, 0.5) for _ in range(n * n)],
        "obstacles": [[r, fence] for r in range(n)],
        "no_fly": [],
    }


def random_query(rng: random.Random, n: int, fence: int) -> tuple:
    """A start cell at a seeded place and a goal n/4 rows up or down and n/2
    columns right of it, on the far side of the fence."""
    rows, cols = n // 4, n // 2
    r = rng.randrange(n - rows)
    dr = rows
    if rng.random() < 0.5:
        r, dr = r + rows, -rows
    c = rng.randrange(max(0, fence - cols + 1), min(fence, n - cols))
    return (r, c), (r + dr, c + cols)


def plan_grid(seed: int, work: str, small: bool = False) -> Workload:
    """`flydrive.plan` on relief grids: both diagonals corner to corner on
    every grid, plus random queries across the fence on the smallest grid.

    A corner-to-corner search settles nearly every node, so its work is the
    same for every seed; a random query's work varies by a sixth from seed
    to seed, so random queries run only where they are cheap."""
    from flydrive.terrain import terrain_from_dict

    rng = random.Random(seed)
    sizes = (20,) if small else (50, 100, 150)
    model = flydrive.default_power_model()
    cfg = flydrive.PlannerConfig()
    ops, cells, terrains, queries_of = [], [], [], []
    for n in sizes:
        grid = relief_grid(rng, n)
        path = _write_json(os.path.join(work, f"terrain-{n}.json"), grid)
        terrains.append(path)
        terrain = terrain_from_dict(_read_json(path), source=path)
        queries = [((0, 0), (n - 1, n - 1)), ((n - 1, 0), (0, n - 1))]
        if n == sizes[0]:
            queries += [random_query(rng, n, grid["obstacles"][0][1])
                        for _ in range(1 if small else 6)]
        queries_of += [{"terrain": path, "start": list(s), "goal": list(g)} for s, g in queries]
        for start, goal in queries:
            def call(terrain=terrain, start=start, goal=goal):
                return flydrive.plan(terrain, start, goal, cfg, model)

            def collect(mission):
                return {"plan": mission.to_json_dict()}

            def check(outcome, terrain=terrain, start=start, goal=goal):
                return planner_problems(outcome["plan"], terrain, start, goal, cfg, model)

            ops.append(Op(f"plan {n}x{n} {list(start)}->{list(goal)}", call, collect, check))
            cells.append(n * n)

    _write_json(os.path.join(work, "queries.json"), queries_of)
    return Workload(ops, {"scenarios": [], "terrains": terrains},
                    lambda: {"cells": sum(cells)})


# -- plan-validate ------------------------------------------------------------

def fence_scenario(rng: random.Random, fence_width: int, sloped: bool, seed: int) -> dict:
    """10 x 5 field, 3 m cells, a full-height fence of the given width; the
    route runs along one seeded row from the first to the last column."""
    width, height = 10, 5
    column = rng.randrange(3, width - 3 - fence_width + 1)
    grade = rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.06) if sloped else 0.0
    row = rng.randrange(height)
    return {
        "name": f"fence-{fence_width}",
        "description": f"{'Sloped' if sloped else 'Flat'} field split by a "
                       f"{fence_width}-cell fence.",
        "planner": {
            "terrain": {
                "width": width, "height": height, "cell_size_m": 3.0,
                "elevation_m": [1.0 + grade * 3.0 * c for r in range(height) for c in range(width)],
                "obstacles": [[r, c] for r in range(height)
                              for c in range(column, column + fence_width)],
                "no_fly": [],
            },
            "start_cell": [row, 0],
            "goal_cell": [row, width - 1],
            "drive_speed_mps": 1.0,
            "fly_speed_mps": 4.0,
        },
        "validation": {"expect_fly_legs": 1, "max_leg_deviation_frac": 0.15},
        "seed": seed,
    }


def plan_validate(seed: int, work: str, small: bool = False) -> Workload:
    """`flydrive plan --validate` on small fields: validation steps the
    dynamics directly, with no Simulator, ledger or trace."""
    rng = random.Random(seed)
    golden = load_golden()["plan"]
    specs = ((1, False),) if small else ((1, False), (2, True), (3, True))
    refs = ["multimodal-obstacle"] + [
        _write_json(os.path.join(work, f"fence-{w}.json"), fence_scenario(rng, w, sloped, seed))
        for w, sloped in specs
    ]
    ops, outs = [], []
    for ref in refs:
        name = os.path.basename(ref).removesuffix(".json")
        out = os.path.join(work, name)

        def check(outcome, ref=ref, name=name, out=out):
            # Exit 1 is allowed when the only failed verdict is a leg over the
            # deviation bound; validation.json is otherwise not pinned.
            problems = _expect_rc(outcome, (0, 1)) + _golden_problems(outcome, golden.get(name, {}))
            if problems:
                return problems
            scenario = flydrive.load_scenario(_scenario_path(ref))
            query = scenario.planner_query
            plan = _read_json(os.path.join(out, "plan.json"))
            report = _read_json(os.path.join(out, "validation.json"))
            n_fly = sum(1 for leg in plan["legs"] if leg["mode"] == "fly")
            if not plan["feasible"] or n_fly != scenario.validation.expect_fly_legs:
                problems.append(f"plan feasible={plan['feasible']} with {n_fly} fly legs")
            faults = [leg["index"] for leg in report["legs"] if leg["fault"] is not None]
            if faults or not report["battery_ok"]:
                problems.append(f"validation faults on legs {faults}, "
                                f"battery_ok={report['battery_ok']}")
            over = [leg for leg in report["legs"] if not leg["ok"]]
            if (outcome["rc"] == 1) != bool(over):
                problems.append(f"exit {outcome['rc']} with {len(over)} legs over the bound")
            return problems + planner_problems(plan, query.terrain, query.start, query.goal,
                                               query.config, scenario.power_model,
                                               scenario.payload_kg)

        ops.append(_cli_op(f"plan --validate {name}", ["plan", ref, "--validate"], out,
                           PLAN_OUTPUTS, check))
        outs.append((ref, out))

    def figures():
        over = total = 0
        for ref, out in outs:
            bound = flydrive.load_scenario(
                _scenario_path(ref)).validation.max_leg_deviation_frac
            legs = _read_json(os.path.join(out, "validation.json"))["legs"]
            total += len(legs)
            over += sum(1 for leg in legs if leg["deviation"] > bound)
        return {"legs_validated": total, "legs_over_bound": over}

    return Workload(ops, {"scenarios": refs, "terrains": []}, figures)


WORKLOADS = {"missions": missions, "plan-grid": plan_grid, "plan-validate": plan_validate}
