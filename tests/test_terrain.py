import math

import pytest

from flydrive.terrain import (
    FREE,
    NO_FLY,
    OBSTACLE,
    TerrainError,
    TerrainGrid,
    load_terrain_file,
    terrain_from_ascii,
    terrain_from_dict,
)
from terrain_helpers import class_at, max_neighbor_slope_deg, mirrored, neighbors4


def test_ascii_grid_classes():
    grid = terrain_from_ascii(".#.\n.~.\n...")
    assert grid.width == 3 and grid.height == 3
    assert class_at(grid, (0, 1)) == OBSTACLE
    assert class_at(grid, (1, 1)) == NO_FLY
    assert class_at(grid, (2, 2)) == FREE


def test_ascii_digit_elevations():
    grid = terrain_from_ascii("012\n000", cell_size_m=2.0)
    assert grid.elevation_at((0, 2)) == 2.0
    assert grid.elevation_at((1, 0)) == 0.0


def test_ascii_custom_elevation_map():
    grid = terrain_from_ascii("ab\nba", elevations={"a": 0.0, "b": 1.5})
    assert grid.elevation_at((0, 1)) == 1.5


def test_dict_scalar_elevation():
    grid = terrain_from_dict(
        {"width": 2, "height": 2, "cell_size_m": 1.0, "elevation_m": 0.5}
    )
    assert all(
        grid.elevation_at((r, c)) == 0.5 for r in range(2) for c in range(2)
    )


def test_dict_row_major_order():
    grid = terrain_from_dict({
        "width": 3, "height": 2, "cell_size_m": 1.0,
        "elevation_m": [0, 1, 2, 3, 4, 5],
    })
    assert grid.elevation_at((0, 2)) == 2.0
    assert grid.elevation_at((1, 0)) == 3.0


def test_dict_missing_key():
    with pytest.raises(TerrainError) as err:
        terrain_from_dict({"width": 2, "height": 2}, source="cfg.json")
    assert "cfg.json" in str(err.value)


def test_dict_wrong_elevation_count():
    with pytest.raises(TerrainError):
        terrain_from_dict({
            "width": 2, "height": 2, "cell_size_m": 1.0, "elevation_m": [0, 1, 2],
        })


def test_dict_out_of_bounds_obstacle():
    with pytest.raises(TerrainError):
        terrain_from_dict({
            "width": 2, "height": 2, "cell_size_m": 1.0, "obstacles": [[2, 0]],
        })


def test_json_error_carries_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "width": 2,\n  oops\n}', encoding="utf-8")
    with pytest.raises(TerrainError) as err:
        load_terrain_file(path)
    assert "bad.json:3:3: " in str(err.value)


def test_bundled_terrain_loads():
    from importlib import resources

    path = resources.files("flydrive.data").joinpath("terrains/obstacle_fence.json")
    grid = load_terrain_file(str(path))
    assert grid.width == 10 and grid.height == 5
    assert class_at(grid, (2, 4)) == OBSTACLE


def test_neighbors4_order_and_bounds():
    grid = terrain_from_ascii("...\n...\n...")
    assert neighbors4(grid, (1, 1)) == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert neighbors4(grid, (0, 0)) == [(0, 1), (1, 0)]


def test_max_neighbor_slope():
    grid = terrain_from_dict({
        "width": 2, "height": 1, "cell_size_m": 1.0, "elevation_m": [0.0, 1.0],
    })
    assert max_neighbor_slope_deg(grid, (0, 0)) == pytest.approx(45.0)
    assert max_neighbor_slope_deg(grid, (0, 1)) == pytest.approx(45.0)


def test_mirror_involution():
    grid = terrain_from_ascii(".#.\n..~\n0..", elevations=None)
    twice = mirrored(mirrored(grid))
    assert twice == grid


def test_mirror_flips_columns():
    grid = terrain_from_ascii("#..")
    assert class_at(mirrored(grid), (0, 2)) == OBSTACLE


def test_to_json_round_trip():
    grid = terrain_from_ascii(".#\n~.")
    doc = grid.to_json_dict()
    again = terrain_from_dict(doc)
    assert again == grid


def test_elevations_must_be_finite():
    with pytest.raises(TerrainError):
        terrain_from_dict({
            "width": 1, "height": 1, "cell_size_m": 1.0,
            "elevation_m": [math.inf],
        })


def test_dimensions_must_be_positive():
    with pytest.raises(TerrainError):
        terrain_from_dict({"width": 0, "height": 2, "cell_size_m": 1.0})


@pytest.mark.parametrize("cell_size_m", [math.nan, math.inf, 0.0, -1.0])
def test_a_built_grid_needs_a_finite_positive_cell_size(cell_size_m):
    """A cell size that is not finite and > 0 is refused where the grid is
    built, naming the field, before a plan can read it."""
    with pytest.raises(TerrainError) as err:
        TerrainGrid(width=3, height=1, cell_size_m=cell_size_m,
                    elevation_m=((0.0, 0.0, 0.0),), classes=((FREE,) * 3,))
    assert str(err.value) == f"cell_size_m must be finite and > 0, got {cell_size_m!r}"


@pytest.mark.parametrize("elevation, classes, message", [
    (((0.0, 1.0), (2.0, math.nan)), ((FREE, FREE), (FREE, OBSTACLE)),
     "cell (1, 1): elevation must be finite"),
    (((0.0, 1.0), (2.0, 3.0)), ((FREE, FREE), (NO_FLY, "rock")),
     "cell (1, 1): unknown class 'rock'"),
    # cell by cell, the first fault of a row is named, the elevation first
    (((0.0, -math.inf), (2.0, 3.0)), (("rock", FREE), (FREE, FREE)),
     "cell (0, 0): unknown class 'rock'"),
    (((math.inf, 1.0), (2.0, 3.0)), (("rock", FREE), (FREE, FREE)),
     "cell (0, 0): elevation must be finite"),
    (((0.0, 1.0), (2.0, 3.0)), ((FREE, ["free"]), (FREE, FREE)),
     "cell (0, 1): unknown class ['free']"),
])
def test_a_built_grid_names_its_first_bad_cell(elevation, classes, message):
    with pytest.raises(TerrainError) as err:
        TerrainGrid(width=2, height=2, cell_size_m=1.0, elevation_m=elevation, classes=classes)
    assert str(err.value) == message
