"""Every `while` loop in the package, with what bounds its trip count.

A loop whose trip count a value sets runs as long as that value says: a
tiny `step_deg` once made `optimal_wall_tilt`'s scan run for hours, and a
huge yaw target made `_wrap_angle` never return. Each `while` loop is
listed below, keyed by its module, its enclosing function and its test,
with the bound it has. Adding or removing a loop fails this test until
the list names it and says what bounds it.
"""

import ast
import pathlib

import flydrive

PACKAGE = pathlib.Path(flydrive.__file__).parent

LOOPS = {
    ("cli", "_staged", "not os.path.exists(parent)"):
        "the directories of the output path: the root exists",
    ("dynamics", "_wrap_angle", "a > math.pi"):
        "twice: a yaw target within ±360 deg (ControlSetpoint) less a yaw in [-pi, pi]",
    ("dynamics", "_wrap_angle", "a < -math.pi"):
        "twice: a yaw target within ±360 deg (ControlSetpoint) less a yaw in [-pi, pi]",
    ("planner", "_search", "True"):
        "the queued keys: five per (cell, mode) node, four moves and a switch in",
    ("planner", "_search", "route[-1] != source"):
        "the (cell, mode) nodes: a parent's (energy, transitions) is below its child's",
    ("planner", "_precedes", "depth[x] > depth[y]"): "the ancestor depth of u",
    ("planner", "_precedes", "depth[y] > depth[x]"): "the ancestor depth of parent[v]",
    ("planner", "_precedes", "x != y"): "the ancestor depth of u",
    ("planner", "_simulate_drive_leg", "covered < cell"):
        "60 s per drive edge, then SimulationFault: a pass takes one step and at most one jump",
    ("planner", "_simulate_fly_leg", "s < total_len"):
        "120 s per fly leg, then SimulationFault",
    ("simulator", "Simulator.run", "i < n_steps"):
        "n_steps, from a duration_s that Simulator.run refuses when it is too many steps",
    ("simulator", "Simulator.run",
     "next_event < len(script) and script[next_event].t_s <= state.time_s + 1e-12"):
        "the script's events: a pass takes one",
    ("simulator", "Simulator._stretch", "True"):
        "the stretch's end step: a pass takes one step and at most one jump, or returns",
}


def _while_loops(node, module, scope=()):
    """(module, enclosing function's qualified name, the loop's test) for
    each `while` loop under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        if isinstance(child, ast.While):
            yield module, ".".join(scope), ast.unparse(child.test)
        yield from _while_loops(child, module, inner)


def test_every_while_loop_has_a_named_bound():
    found = [loop for path in sorted(PACKAGE.glob("*.py"))
             for loop in _while_loops(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert len(found) == len(set(found)), "two loops share a key; tell them apart in LOOPS"
    assert sorted(found) == sorted(LOOPS)
    assert all(LOOPS.values())
