"""Every setting a scenario or caller can give is read by the program.

A dataclass field that only its own `__post_init__` reads is a setting that
does nothing: setting it raises no error and has no effect. This test parses
the package's source and finds, for each settings class below, the fields
that no code outside a `__post_init__` reads as an attribute.
"""

import ast
import pathlib

import flydrive

SETTINGS_CLASSES = ("VehicleParams", "Battery", "SurfaceModel", "ControllerGains",
                    "ControlSetpoint", "InitialSpec", "ValidationSpec", "PlannerConfig",
                    "PowerModel")
PACKAGE = pathlib.Path(flydrive.__file__).parent


def _trees():
    return [ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))]


def _fields(trees) -> dict:
    """Class name -> the names of its annotated fields, for SETTINGS_CLASSES."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in SETTINGS_CLASSES:
                found[node.name] = [stmt.target.id for stmt in node.body
                                    if isinstance(stmt, ast.AnnAssign)
                                    and isinstance(stmt.target, ast.Name)]
    return found


def _add_attributes_read(node, into: set) -> None:
    """Add to into the attribute names node loads, outside any `__post_init__`."""
    if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
        return
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        into.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _add_attributes_read(child, into)


def test_every_settings_class_is_found():
    assert sorted(_fields(_trees())) == sorted(SETTINGS_CLASSES)


def test_every_setting_is_read():
    trees = _trees()
    read = set()
    for tree in trees:
        _add_attributes_read(tree, read)
    unread = [f"{cls}.{name}" for cls, names in sorted(_fields(trees).items())
              for name in names if name not in read]
    assert unread == [], f"settings that nothing reads: {unread}"
