"""Slope-annotated occupancy grids for route planning.

A grid cell carries an elevation and a class: free, obstacle (blocks driving
but can be overflown), or no_fly (blocks flying; drivable if free of
obstacles it is not, the class is exclusive). Cells are addressed (row, col)
with row 0 at the first line of the ASCII form.
"""

from __future__ import annotations

import json
import math
import textwrap
from dataclasses import dataclass

FREE = "free"
OBSTACLE = "obstacle"
NO_FLY = "no_fly"
CELL_CLASSES = (FREE, OBSTACLE, NO_FLY)

_ASCII_CLASSES = {".": FREE, "#": OBSTACLE, "~": NO_FLY}


class TerrainError(ValueError):
    """Malformed terrain description."""


@dataclass(frozen=True)
class TerrainGrid:
    width: int  # columns
    height: int  # rows
    cell_size_m: float
    elevation_m: tuple[tuple[float, ...], ...]  # [row][col]
    classes: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise TerrainError("grid dimensions must be >= 1")
        if self.cell_size_m <= 0:
            raise TerrainError("cell_size_m must be > 0")
        if len(self.elevation_m) != self.height or len(self.classes) != self.height:
            raise TerrainError("row count mismatch")
        for r in range(self.height):
            if len(self.elevation_m[r]) != self.width or len(self.classes[r]) != self.width:
                raise TerrainError(f"row {r}: column count mismatch")
            for c in range(self.width):
                if not math.isfinite(self.elevation_m[r][c]):
                    raise TerrainError(f"cell ({r}, {c}): elevation must be finite")
                if self.classes[r][c] not in CELL_CLASSES:
                    raise TerrainError(
                        f"cell ({r}, {c}): unknown class {self.classes[r][c]!r}"
                    )

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        r, c = cell
        return 0 <= r < self.height and 0 <= c < self.width

    def elevation_at(self, cell: tuple[int, int]) -> float:
        return self.elevation_m[cell[0]][cell[1]]

    def to_json_dict(self) -> dict:
        flat = [self.elevation_m[r][c] for r in range(self.height) for c in range(self.width)]
        obstacles = sorted(
            [r, c]
            for r in range(self.height)
            for c in range(self.width)
            if self.classes[r][c] == OBSTACLE
        )
        no_fly = sorted(
            [r, c]
            for r in range(self.height)
            for c in range(self.width)
            if self.classes[r][c] == NO_FLY
        )
        return {
            "width": self.width,
            "height": self.height,
            "cell_size_m": self.cell_size_m,
            "elevation_m": flat,
            "obstacles": obstacles,
            "no_fly": no_fly,
        }


def _is_number(value) -> bool:
    """A finite JSON number: not a bool, and an int only within float range."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _is_cell(entry) -> bool:
    return (isinstance(entry, (list, tuple)) and len(entry) == 2
            and all(type(v) is int for v in entry))


def terrain_from_dict(data: dict, source: str = "<terrain>", keypath: str = "") -> TerrainGrid:
    """Build a grid from the JSON form: dimensions, row-major elevations,
    obstacle and no-fly cell lists. Errors name the source and the key,
    with keypath in front of it (the terrain's place in a larger file)."""

    def fail(key: str, message: str):
        raise TerrainError(f"{source}: {keypath}{key}: {message}")

    if not isinstance(data, dict):
        raise TerrainError(f"{source}: {keypath.rstrip('.') or 'top level'}: expected an object")
    for key in ("width", "height", "cell_size_m"):
        if key not in data:
            fail(key, "missing required key")
    width, height = data["width"], data["height"]
    for key, value in (("width", width), ("height", height)):
        if type(value) is not int or value < 1:
            fail(key, f"expected an int >= 1, got {value!r}")
    cell_size = data["cell_size_m"]
    if not _is_number(cell_size) or cell_size <= 0:
        fail("cell_size_m", f"expected a finite number > 0, got {cell_size!r}")
    elev_flat = data.get("elevation_m", 0.0)
    if not isinstance(elev_flat, (list, tuple)):
        if not _is_number(elev_flat):
            fail("elevation_m", f"expected a finite number or a list, got {elev_flat!r}")
        elev_flat = [elev_flat] * (width * height)
    if len(elev_flat) != width * height:
        fail("elevation_m", f"has {len(elev_flat)} entries, expected {width * height}")
    try:  # one pass in C; the slow scan below only finds the culprit
        ok = {int, float}.issuperset(map(type, elev_flat)) and all(map(math.isfinite, elev_flat))
    except OverflowError:
        ok = False
    if not ok:
        i, value = next((i, v) for i, v in enumerate(elev_flat) if not _is_number(v))
        fail(f"elevation_m[{i}]", f"expected a finite number, got {value!r}")
    rows = tuple(
        tuple(map(float, elev_flat[r * width:(r + 1) * width])) for r in range(height)
    )
    classes = [[FREE] * width for _ in range(height)]
    for key, label in (("obstacles", OBSTACLE), ("no_fly", NO_FLY)):
        entries = data.get(key, [])
        if not isinstance(entries, (list, tuple)):
            fail(key, f"expected a list of [row, col] cells, got {entries!r}")
        for i, entry in enumerate(entries):
            if not _is_cell(entry):
                fail(f"{key}[{i}]", f"expected [row, col] ints, got {entry!r}")
            r, c = entry
            if not (0 <= r < height and 0 <= c < width):
                fail(f"{key}[{i}]", f"cell ({r}, {c}) out of bounds")
            classes[r][c] = label
    return TerrainGrid(
        width=width,
        height=height,
        cell_size_m=float(cell_size),
        elevation_m=rows,
        classes=tuple(tuple(row) for row in classes),
    )


def terrain_from_json(text: str, source: str = "<terrain>") -> TerrainGrid:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TerrainError(f"{source}:{exc.lineno}: {exc.msg}") from None
    return terrain_from_dict(data, source)


def load_terrain_file(path) -> TerrainGrid:
    with open(path, "r", encoding="utf-8") as fh:
        return terrain_from_json(fh.read(), source=str(path))


def terrain_from_ascii(
    art: str, cell_size_m: float = 1.0, elevations: dict[str, float] | None = None
) -> TerrainGrid:
    """Small-grid helper for tests: '.' free, '#' obstacle, '~' no-fly,
    digits are free cells at that many meters of elevation."""
    lines = [ln for ln in (s.rstrip() for s in textwrap.dedent(art).splitlines()) if ln]
    if not lines:
        raise TerrainError("empty ASCII terrain")
    width = max(len(ln) for ln in lines)
    elev_rows, class_rows = [], []
    for ln in lines:
        ln = ln.ljust(width, ".")
        erow, crow = [], []
        for ch in ln:
            if ch in _ASCII_CLASSES:
                crow.append(_ASCII_CLASSES[ch])
                erow.append(0.0)
            elif ch.isdigit():
                crow.append(FREE)
                erow.append(float(ch))
            elif elevations and ch in elevations:
                crow.append(FREE)
                erow.append(elevations[ch])
            else:
                raise TerrainError(f"unknown terrain character {ch!r}")
        elev_rows.append(tuple(erow))
        class_rows.append(tuple(crow))
    return TerrainGrid(
        width=width,
        height=len(lines),
        cell_size_m=cell_size_m,
        elevation_m=tuple(elev_rows),
        classes=tuple(class_rows),
    )
