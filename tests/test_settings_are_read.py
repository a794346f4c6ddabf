"""Every setting a scenario or caller can give is read by the program, and
every definition is used or is library API.

A dataclass field that only its own `__post_init__` reads is a setting that
does nothing: setting it raises no error and has no effect. This test parses
the package's source and finds, for each settings class below, the fields
that no code outside a `__post_init__` reads as an attribute.

The same parse keeps the package's surface decided: `flydrive.__all__` is
the library API and lists, once each, the public names the package imports;
every other top-level function and class is read somewhere in the package,
every method is read there as an attribute, and no module reads another's
private (`_`-prefixed) names.
"""

import ast
import pathlib
from collections import Counter

import flydrive

SETTINGS_CLASSES = ("VehicleParams", "Battery", "SurfaceModel", "ControlSetpoint",
                    "InitialSpec", "ValidationSpec", "PlannerConfig", "PowerModel")
PACKAGE = pathlib.Path(flydrive.__file__).parent


def _trees() -> dict:
    """Module name -> its parsed source, for each module of the package."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _fields(trees) -> dict:
    """Class name -> the names of its annotated fields, for SETTINGS_CLASSES."""
    found = {}
    for tree in trees.values():
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
    for tree in trees.values():
        _add_attributes_read(tree, read)
    unread = [f"{cls}.{name}" for cls, names in sorted(_fields(trees).items())
              for name in names if name not in read]
    assert unread == [], f"settings that nothing reads: {unread}"


def _names_read(node, kinds=(ast.Name, ast.Attribute)) -> Counter:
    """How often node loads each name, as a variable or as an attribute
    (kinds narrows that to either)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, kinds) and isinstance(n.ctx, ast.Load))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(trees):
    """(dotted name, node) of each top-level function and class, and
    (dotted name, node) of each non-dunder method, of every module."""
    top, methods = [], []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                methods += [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)]
    return top, methods


def _private_reads(module: str, tree) -> set:
    """`module <- other._name` for each private name of another package
    module that `module` imports or reads through a module alias."""
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add(f"{module} <- {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and not _is_dunder(node.attr)):
            found.add(f"{module} <- {aliases[node.value.id]}.{node.attr}")
    return found


def test_every_definition_is_used_or_exported():
    """Each top-level function and class not in `__all__` is read, by name,
    somewhere in the package outside its own body, and each method is read
    there as an attribute: a variable or parameter of the same name does
    not count for a method."""
    trees = _trees()
    by_name, as_attribute = (ast.Name, ast.Attribute), ast.Attribute
    read = {kinds: sum((_names_read(tree, kinds) for tree in trees.values()), Counter())
            for kinds in (by_name, as_attribute)}

    def read_elsewhere(node, kinds):
        return read[kinds][node.name] > _names_read(node, kinds)[node.name]

    top, methods = _definitions(trees)
    unused = [name for name, node in top
              if node.name not in flydrive.__all__ and not read_elsewhere(node, by_name)]
    unused += [name for name, node in methods if not read_elsewhere(node, as_attribute)]
    assert unused == [], f"neither read in the package nor in flydrive.__all__: {unused}"


def test_all_lists_each_public_import_once():
    """Every name in `flydrive.__all__` resolves and is listed once, and
    every public name `flydrive/__init__.py` imports is listed, so an
    import dropped without its entry, or the reverse, fails."""
    missing = [name for name in flydrive.__all__ if not hasattr(flydrive, name)]
    assert missing == [], f"listed in flydrive.__all__ but not defined: {missing}"
    repeated = [name for name, n in Counter(flydrive.__all__).items() if n > 1]
    assert repeated == [], f"listed more than once in flydrive.__all__: {repeated}"
    imported = [alias.asname or alias.name for node in ast.walk(_trees()["__init__"])
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    unlisted = [name for name in imported
                if not name.startswith("_") and name not in flydrive.__all__]
    assert unlisted == [], f"imported by flydrive but not in flydrive.__all__: {unlisted}"


def test_no_module_reads_another_modules_private_names():
    found = sorted(set().union(*(_private_reads(m, tree) for m, tree in _trees().items())))
    assert found == [], f"private names read across modules: {found}"


def test_readme_library_use_runs_on_the_api(capsys):
    """The README's "Library use" block runs, importing only names in
    `flydrive.__all__`, so the documented use cannot drift from the API."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(block)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(isinstance(node, ast.ImportFrom) and node.module == "flydrive"
                           and node.level == 0 for node in imports)
    names = [alias.name for node in imports for alias in node.names]
    assert [name for name in names if name not in flydrive.__all__] == []
    exec(compile(tree, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0].startswith("drive ")
