"""The heap-of-paths planner, kept as the reference for `flydrive.plan`.

Every heap entry carries the whole route so far, so the documented order
(least energy, then fewest transitions, then the smallest cell sequence,
then mode, then steps) is plain tuple comparison. It is slow, and obviously
right; `flydrive.plan` must return exactly what it returns: equal
`MissionPlan`s, and `NoPathError`s with equal message and `explored`.

Pricing and traversability are repeated here in their original per-cell
form so the reference shares no search or pricing code with the planner.
"""

from __future__ import annotations

import heapq
import math

from flydrive.planner import (
    DRIVE,
    FLY,
    TRANSITION_TO_FLY,
    TRANSITION_TO_GROUND,
    MissionLeg,
    MissionPlan,
    NoPathError,
)
from flydrive.statics import tipping_slope
from flydrive.terrain import FREE, NO_FLY
from terrain_helpers import max_neighbor_slope_deg, neighbors4


def classify(terrain, params, cfg):
    """(drivable, flyable) boolean grids, one cell at a time."""
    limit = tipping_slope(params) - cfg.slope_margin_deg
    drivable = tuple(
        tuple(
            terrain.classes[r][c] == FREE
            and max_neighbor_slope_deg(terrain, (r, c)) <= limit
            for c in range(terrain.width)
        )
        for r in range(terrain.height)
    )
    flyable = tuple(
        tuple(terrain.classes[r][c] != NO_FLY for c in range(terrain.width))
        for r in range(terrain.height)
    )
    return drivable, flyable


def drive_edge_energy_wh(terrain, a, b, cfg, model, payload=0.0):
    dh = terrain.elevation_at(b) - terrain.elevation_at(a)
    slope = math.degrees(math.atan2(abs(dh), terrain.cell_size_m))
    time_s = terrain.cell_size_m / cfg.drive_speed_mps
    if slope == 0.0:
        power = model.ground_power(cfg.drive_speed_mps, payload)
    else:
        power = model.incline_power(slope, cfg.drive_speed_mps, payload)
    return power * time_s / 3600.0


def fly_edge_energy_wh(terrain, a, b, cfg, model, payload=0.0):
    dh = terrain.elevation_at(b) - terrain.elevation_at(a)
    time_s = terrain.cell_size_m / cfg.fly_speed_mps
    energy = model.flight_power(payload) * time_s / 3600.0
    if dh > 0.0:
        m = model.params.total_mass(payload)
        energy += m * model.params.gravity * dh / 3600.0
    return energy


def plan(terrain, start, goal, cfg, model, batteries=None, payload=0.0) -> MissionPlan:
    start = tuple(start)
    goal = tuple(goal)
    for name, cell in (("start", start), ("goal", goal)):
        if not terrain.in_bounds(cell):
            raise ValueError(f"{name} cell {cell} out of bounds")
    drivable, flyable = classify(terrain, model.params, cfg)

    def drivable_at(cell):
        return drivable[cell[0]][cell[1]]

    def flyable_at(cell):
        return flyable[cell[0]][cell[1]]

    if not drivable_at(start) or not drivable_at(goal):
        blocked = [c for c in (start, goal) if not drivable_at(c)]
        raise NoPathError(f"endpoint(s) not drivable: {blocked}", explored=[])

    if start == goal:
        return MissionPlan(
            start=start, goal=goal, legs=(), total_energy_wh=0.0,
            total_duration_s=0.0, n_transitions=0, feasible=True,
        )

    goal_node = (goal, DRIVE)
    # heap entries: (energy, n_transitions, cells, mode, steps)
    heap = [(0.0, 0, (start,), DRIVE, ((start, DRIVE),))]
    settled: dict = {}
    result = None
    while heap:
        energy, ntrans, cells, mode, steps = heapq.heappop(heap)
        node = (cells[-1], mode)
        if node in settled:
            continue
        settled[node] = energy
        if node == goal_node:
            result = (energy, ntrans, steps)
            break
        cell = cells[-1]
        if mode == DRIVE:
            for n in neighbors4(terrain, cell):
                if drivable_at(n) and (n, DRIVE) not in settled:
                    e = energy + drive_edge_energy_wh(terrain, cell, n, cfg, model, payload)
                    heapq.heappush(
                        heap, (e, ntrans, cells + (n,), DRIVE, steps + ((n, DRIVE),))
                    )
            if flyable_at(cell) and (cell, FLY) not in settled:
                e = energy + cfg.transition_energy_wh
                heapq.heappush(heap, (e, ntrans + 1, cells, FLY, steps + ((cell, FLY),)))
        else:
            for n in neighbors4(terrain, cell):
                if flyable_at(n) and (n, FLY) not in settled:
                    e = energy + fly_edge_energy_wh(terrain, cell, n, cfg, model, payload)
                    heapq.heappush(
                        heap, (e, ntrans, cells + (n,), FLY, steps + ((n, FLY),))
                    )
            if drivable_at(cell) and (cell, DRIVE) not in settled:
                e = energy + cfg.transition_energy_wh
                heapq.heappush(
                    heap, (e, ntrans + 1, cells, DRIVE, steps + ((cell, DRIVE),))
                )
    if result is None:
        raise NoPathError(
            f"no route from {start} to {goal}: explored "
            f"{len(settled)} (cell, mode) states",
            explored=sorted(settled),
        )
    total_energy, n_transitions, steps = result
    legs = _legs_from_steps(steps, terrain, cfg, model, payload)
    feasible = True
    if batteries is not None:
        # a run draws an equal share from each propulsion pack
        packs = [b for b in batteries if b.is_propulsion]
        share = total_energy / max(1, len(packs))
        feasible = share <= min((b.remaining_usable_wh for b in packs), default=0.0)
    return MissionPlan(
        start=start,
        goal=goal,
        legs=tuple(legs),
        total_energy_wh=total_energy,
        total_duration_s=sum(leg.duration_s for leg in legs),
        n_transitions=n_transitions,
        feasible=feasible,
    )


def _legs_from_steps(steps, terrain, cfg, model, payload) -> list[MissionLeg]:
    edge_fn = {DRIVE: drive_edge_energy_wh, FLY: fly_edge_energy_wh}
    speed = {DRIVE: cfg.drive_speed_mps, FLY: cfg.fly_speed_mps}
    legs: list[MissionLeg] = []
    group_cells = [steps[0][0]]
    group_mode = steps[0][1]
    group_energy = 0.0

    def close_group():
        if len(group_cells) >= 2:
            n_edges = len(group_cells) - 1
            legs.append(
                MissionLeg(
                    mode=group_mode,
                    cells=tuple(group_cells),
                    speed_mps=speed[group_mode],
                    energy_wh=group_energy,
                    duration_s=n_edges * terrain.cell_size_m / speed[group_mode],
                )
            )

    for (prev_cell, prev_mode), (cell, mode) in zip(steps, steps[1:]):
        if mode != prev_mode:
            close_group()
            kind = TRANSITION_TO_FLY if mode == FLY else TRANSITION_TO_GROUND
            legs.append(
                MissionLeg(
                    mode=kind,
                    cells=(cell,),
                    speed_mps=0.0,
                    energy_wh=cfg.transition_energy_wh,
                    duration_s=cfg.transition_time_s,
                )
            )
            group_cells = [cell]
            group_mode = mode
            group_energy = 0.0
        else:
            group_energy += edge_fn[mode](terrain, prev_cell, cell, cfg, model, payload)
            group_cells.append(cell)
    close_group()
    return legs
