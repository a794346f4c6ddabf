"""Slope-annotated occupancy grids for route planning.

A grid cell carries an elevation and a class: free, obstacle (blocks driving
but can be overflown), or no_fly (blocks flying; drivable if free of
obstacles it is not, the class is exclusive). Cells are addressed (row, col)
with row 0 at the first line of the ASCII form.
"""

from __future__ import annotations

import math
import textwrap
from dataclasses import dataclass

from . import fields
from .fields import REQUIRED, FieldError

FREE = "free"
OBSTACLE = "obstacle"
NO_FLY = "no_fly"
CELL_CLASSES = (FREE, OBSTACLE, NO_FLY)

_CLASS_SET = frozenset(CELL_CLASSES)
_ASCII_CLASSES = {".": FREE, "#": OBSTACLE, "~": NO_FLY}


class TerrainError(ValueError):
    """Malformed terrain description."""


class TerrainFieldError(TerrainError, FieldError):
    """A grid field that breaks its own rule; `.key` names the field."""


def _check_size(width: int, height: int, cell_size_m: float) -> None:
    """The grid's size rule, applied by `TerrainGrid` and by
    `terrain_from_dict` before it lays out the rows."""
    for name, value in (("width", width), ("height", height)):
        if type(value) is not int or value < 1:  # NaN and +inf are floats, so fail too
            raise TerrainFieldError(name, f"must be an integer >= 1, got {value!r}")
    if not 0.0 < cell_size_m < math.inf:  # NaN and +inf fail too
        raise TerrainFieldError("cell_size_m", f"must be finite and > 0, got {cell_size_m!r}")


@dataclass(frozen=True)
class TerrainGrid:
    width: int  # columns
    height: int  # rows
    cell_size_m: float
    elevation_m: tuple[tuple[float, ...], ...]  # [row][col]
    classes: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        _check_size(self.width, self.height, self.cell_size_m)
        if len(self.elevation_m) != self.height or len(self.classes) != self.height:
            raise TerrainError("row count mismatch")
        for r in range(self.height):
            if len(self.elevation_m[r]) != self.width or len(self.classes[r]) != self.width:
                raise TerrainError(f"row {r}: column count mismatch")
            try:  # one pass in C; the scan below only names the cell at fault
                if all(map(math.isfinite, self.elevation_m[r])) \
                        and _CLASS_SET.issuperset(self.classes[r]):
                    continue
            except (TypeError, OverflowError):
                pass
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
        marked = {OBSTACLE: [], NO_FLY: []}  # each in row-major order, so sorted
        for r, row in enumerate(self.classes):
            for c, kind in enumerate(row):
                if kind in marked:
                    marked[kind].append([r, c])
        return {
            "width": self.width,
            "height": self.height,
            "cell_size_m": self.cell_size_m,
            "elevation_m": [h for row in self.elevation_m for h in row],
            "obstacles": marked[OBSTACLE],
            "no_fly": marked[NO_FLY],
        }


# The schema of a terrain object (see fields.py).
TERRAIN = {
    "width": (int, REQUIRED),  # columns
    "height": (int, REQUIRED),  # rows
    "cell_size_m": (float, REQUIRED),
    "elevation_m": ((float, list), 0.0),  # one for every cell, or row-major per cell
    "obstacles": (list, []),  # [row, col] cells
    "no_fly": (list, []),
}


def terrain_from_dict(data: dict, source: str = "<terrain>", keypath: str = "") -> TerrainGrid:
    """Build a grid from the JSON form. Errors name the source and the key
    path, which starts at keypath (the terrain's place in a larger file)."""

    def fail(path: str, message: str):
        raise TerrainError(f"{source}: {path}: {message}")

    spec = fields.read(data, TERRAIN, fail, keypath)
    at = f"{keypath}." if keypath else ""
    width, height, cell_size = spec["width"], spec["height"], spec["cell_size_m"]
    try:
        _check_size(width, height, cell_size)
    except FieldError as exc:
        fail(at + exc.key, exc.message)
    elev_flat = spec["elevation_m"]
    if type(elev_flat) is float:
        elev_flat = [elev_flat] * (width * height)
    if len(elev_flat) != width * height:
        fail(at + "elevation_m", f"has {len(elev_flat)} entries, expected {width * height}")
    try:  # one pass in C; the slow scan below only finds the culprit
        ok = {int, float}.issuperset(map(type, elev_flat)) and all(map(math.isfinite, elev_flat))
    except OverflowError:
        ok = False
    if not ok:
        for i, value in enumerate(elev_flat):
            fields.check(value, float, fail, f"{at}elevation_m[{i}]")
    rows = tuple(
        tuple(map(float, elev_flat[r * width:(r + 1) * width])) for r in range(height)
    )
    classes = [[FREE] * width for _ in range(height)]
    for key, label in (("obstacles", OBSTACLE), ("no_fly", NO_FLY)):
        for i, cell in enumerate(spec[key]):
            if not (type(cell) is list and len(cell) == 2
                    and type(cell[0]) is type(cell[1]) is int):  # the common case, fast
                fields.check(cell, [int, int], fail, f"{at}{key}[{i}]")  # names the fault
            r, c = cell
            if not (0 <= r < height and 0 <= c < width):
                fail(f"{at}{key}[{i}]", f"cell ({r}, {c}) out of bounds")
            classes[r][c] = label
    return TerrainGrid(
        width=width,
        height=height,
        cell_size_m=cell_size,
        elevation_m=rows,
        classes=tuple(tuple(row) for row in classes),
    )


def load_terrain_file(path) -> TerrainGrid:
    return terrain_from_dict(fields.load_json(path, str(path), TerrainError), str(path))


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
