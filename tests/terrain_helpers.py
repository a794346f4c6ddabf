"""Per-cell terrain queries that only tests use.

The planner reads `TerrainGrid.classes` and `elevation_m` through its own
arrays; these per-cell forms serve the reference planner, the criterion-7
oracle and the terrain tests.
"""

from __future__ import annotations

import math

from flydrive.terrain import TerrainGrid


def class_at(grid: TerrainGrid, cell: tuple[int, int]) -> str:
    return grid.classes[cell[0]][cell[1]]


def neighbors4(grid: TerrainGrid, cell: tuple[int, int]) -> list[tuple[int, int]]:
    """In-bounds 4-neighbours, in the order up, left, right, down."""
    r, c = cell
    return [
        (nr, nc)
        for nr, nc in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c))
        if grid.in_bounds((nr, nc))
    ]


def max_neighbor_slope_deg(grid: TerrainGrid, cell: tuple[int, int]) -> float:
    """Steepest elevation gradient to any 4-neighbour, in degrees."""
    e = grid.elevation_at(cell)
    worst = 0.0
    for n in neighbors4(grid, cell):
        rise = abs(grid.elevation_at(n) - e)
        worst = max(worst, math.degrees(math.atan2(rise, grid.cell_size_m)))
    return worst


def mirrored(grid: TerrainGrid) -> TerrainGrid:
    """Left-right mirror (columns reversed), for symmetry checks."""
    return TerrainGrid(
        width=grid.width,
        height=grid.height,
        cell_size_m=grid.cell_size_m,
        elevation_m=tuple(tuple(reversed(row)) for row in grid.elevation_m),
        classes=tuple(tuple(reversed(row)) for row in grid.classes),
    )
