"""Energy-optimal multi-modal routing over a terrain grid.

Search runs over (cell, mode) nodes with mode in {drive, fly}; edge weights
are electrical energy in Wh (mode power times traversal time, plus potential
energy for climbs in flight), and switching mode costs a fixed transition
energy. Uniform-cost search with a deterministic tie-break: least energy,
then fewest transitions, then lexicographically smallest cell sequence.

The returned plan is exactly optimal under this cost model; correctness is
pinned by a brute-force oracle over all simple mode-annotated paths in the
test suite.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass, replace as _replace

from . import dynamics
from .defaults import TRANSITION_ENERGY_WH, TRANSITION_TIME_S
from .energy import PowerModel, usable_propulsion_energy_wh
from .simulator import instantaneous_power
from .statics import tipping_slope
from .terrain import NO_FLY, FREE, TerrainGrid
from .vehicle import VehicleParams

DRIVE = "drive"
FLY = "fly"
TRANSITION_TO_FLY = "transition_to_fly"
TRANSITION_TO_GROUND = "transition_to_ground"


class NoPathError(RuntimeError):
    """Goal unreachable; carries the explored frontier for diagnostics."""

    def __init__(self, message: str, explored: list):
        super().__init__(message)
        self.explored = explored


@dataclass(frozen=True)
class PlannerConfig:
    drive_speed_mps: float = 1.0
    fly_speed_mps: float = 4.0
    transition_energy_wh: float = TRANSITION_ENERGY_WH
    transition_time_s: float = TRANSITION_TIME_S
    slope_margin_deg: float = 5.0

    def __post_init__(self):
        if self.drive_speed_mps <= 0 or self.fly_speed_mps <= 0:
            raise ValueError("speeds must be > 0")
        if self.slope_margin_deg < 0:
            raise ValueError("slope_margin_deg must be >= 0")
        if self.transition_energy_wh < 0 or self.transition_time_s < 0:
            raise ValueError("transition cost must be >= 0")


@dataclass(frozen=True)
class Traversability:
    drivable: tuple[tuple[bool, ...], ...]
    flyable: tuple[tuple[bool, ...], ...]

    def drivable_at(self, cell: tuple[int, int]) -> bool:
        return self.drivable[cell[0]][cell[1]]

    def flyable_at(self, cell: tuple[int, int]) -> bool:
        return self.flyable[cell[0]][cell[1]]


def classify_traversability(
    terrain: TerrainGrid, params: VehicleParams, cfg: PlannerConfig
) -> Traversability:
    """Drivable: free cell whose steepest neighbor gradient stays below the
    tip limit minus the safety margin. Flyable: anything but a no-fly cell."""
    limit = tipping_slope(params) - cfg.slope_margin_deg
    drivable = tuple(
        tuple(
            terrain.classes[r][c] == FREE
            and terrain.max_neighbor_slope_deg((r, c)) <= limit
            for c in range(terrain.width)
        )
        for r in range(terrain.height)
    )
    flyable = tuple(
        tuple(terrain.classes[r][c] != NO_FLY for c in range(terrain.width))
        for r in range(terrain.height)
    )
    return Traversability(drivable=drivable, flyable=flyable)


def drive_edge_energy_wh(
    terrain: TerrainGrid,
    a: tuple[int, int],
    b: tuple[int, int],
    cfg: PlannerConfig,
    model: PowerModel,
    payload: float = 0.0,
) -> float:
    """Energy to drive one cell edge. Grade resistance is symmetric in
    direction: descending still needs the rotors to hold against gravity."""
    dh = terrain.elevation_at(b) - terrain.elevation_at(a)
    slope = math.degrees(math.atan2(abs(dh), terrain.cell_size_m))
    time_s = terrain.cell_size_m / cfg.drive_speed_mps
    if slope == 0.0:
        power = model.ground_power(cfg.drive_speed_mps, payload)
    else:
        power = model.incline_power(slope, cfg.drive_speed_mps, payload)
    return power * time_s / 3600.0


def fly_edge_energy_wh(
    terrain: TerrainGrid,
    a: tuple[int, int],
    b: tuple[int, int],
    cfg: PlannerConfig,
    model: PowerModel,
    payload: float = 0.0,
) -> float:
    """Energy to fly one cell edge: cruise power plus potential energy for
    any elevation gained (descents give nothing back)."""
    dh = terrain.elevation_at(b) - terrain.elevation_at(a)
    time_s = terrain.cell_size_m / cfg.fly_speed_mps
    energy = model.flight_power(payload) * time_s / 3600.0
    if dh > 0.0:
        m = model.params.total_mass(payload)
        energy += m * model.params.gravity * dh / 3600.0
    return energy


@dataclass(frozen=True)
class MissionLeg:
    mode: str  # drive | fly | transition_to_fly | transition_to_ground
    cells: tuple[tuple[int, int], ...]
    speed_mps: float
    energy_wh: float
    duration_s: float

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "cells": [list(c) for c in self.cells],
            "speed_mps": self.speed_mps,
            "energy_wh": self.energy_wh,
            "duration_s": self.duration_s,
        }


@dataclass(frozen=True)
class MissionPlan:
    start: tuple[int, int]
    goal: tuple[int, int]
    legs: tuple[MissionLeg, ...]
    total_energy_wh: float
    total_duration_s: float
    n_transitions: int
    feasible: bool

    def to_json_dict(self) -> dict:
        return {
            "start": list(self.start),
            "goal": list(self.goal),
            "legs": [leg.to_json_dict() for leg in self.legs],
            "total_energy_wh": self.total_energy_wh,
            "total_duration_s": self.total_duration_s,
            "n_transitions": self.n_transitions,
            "feasible": self.feasible,
        }


def plan(
    terrain: TerrainGrid,
    start: tuple[int, int],
    goal: tuple[int, int],
    cfg: PlannerConfig,
    model: PowerModel,
    batteries: list | None = None,
    payload: float = 0.0,
) -> MissionPlan:
    """Least-energy mission between two drivable cells.

    The vehicle starts and ends grounded. Raises NoPathError when the
    mode-augmented graph has no route.
    """
    start = tuple(start)
    goal = tuple(goal)
    for name, cell in (("start", start), ("goal", goal)):
        if not terrain.in_bounds(cell):
            raise ValueError(f"{name} cell {cell} out of bounds")
    trav = classify_traversability(terrain, model.params, cfg)
    if not trav.drivable_at(start) or not trav.drivable_at(goal):
        blocked = [c for c in (start, goal) if not trav.drivable_at(c)]
        raise NoPathError(f"endpoint(s) not drivable: {blocked}", explored=[])

    if start == goal:
        return MissionPlan(
            start=start, goal=goal, legs=(), total_energy_wh=0.0,
            total_duration_s=0.0, n_transitions=0,
            feasible=True,
        )

    goal_node = (goal, DRIVE)
    # heap entries: (energy, n_transitions, cells, mode, steps)
    # cells is the tie-breaking cell sequence; steps carries modes for
    # reconstruction.
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
            for n in terrain.neighbors4(cell):
                if trav.drivable_at(n) and (n, DRIVE) not in settled:
                    e = energy + drive_edge_energy_wh(terrain, cell, n, cfg, model, payload)
                    heapq.heappush(
                        heap, (e, ntrans, cells + (n,), DRIVE, steps + ((n, DRIVE),))
                    )
            if trav.flyable_at(cell) and (cell, FLY) not in settled:
                e = energy + cfg.transition_energy_wh
                heapq.heappush(
                    heap, (e, ntrans + 1, cells, FLY, steps + ((cell, FLY),))
                )
        else:
            for n in terrain.neighbors4(cell):
                if trav.flyable_at(n) and (n, FLY) not in settled:
                    e = energy + fly_edge_energy_wh(terrain, cell, n, cfg, model, payload)
                    heapq.heappush(
                        heap, (e, ntrans, cells + (n,), FLY, steps + ((n, FLY),))
                    )
            if trav.drivable_at(cell) and (cell, DRIVE) not in settled:
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
    total_duration = sum(leg.duration_s for leg in legs)
    feasible = True
    if batteries is not None:
        feasible = total_energy <= usable_propulsion_energy_wh(batteries)
    return MissionPlan(
        start=start,
        goal=goal,
        legs=tuple(legs),
        total_energy_wh=total_energy,
        total_duration_s=total_duration,
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
        nonlocal group_cells, group_energy
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


@dataclass(frozen=True)
class LegValidation:
    index: int
    mode: str
    predicted_wh: float
    simulated_wh: float
    deviation: float
    ok: bool
    fault: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "mode": self.mode,
            "predicted_wh": self.predicted_wh,
            "simulated_wh": self.simulated_wh,
            "deviation": self.deviation,
            "ok": self.ok,
            "fault": self.fault,
        }


@dataclass(frozen=True)
class PlanValidationReport:
    legs: tuple[LegValidation, ...]
    predicted_total_wh: float
    simulated_total_wh: float
    battery_ok: bool
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "legs": [leg.to_json_dict() for leg in self.legs],
            "predicted_total_wh": self.predicted_total_wh,
            "simulated_total_wh": self.simulated_total_wh,
            "battery_ok": self.battery_ok,
            "ok": self.ok,
        }


def validate_plan(
    mission: MissionPlan,
    terrain: TerrainGrid,
    model: PowerModel,
    cfg: PlannerConfig,
    batteries: list | None = None,
    payload: float = 0.0,
    dt_s: float = 0.001,
    max_deviation: float = 0.15,
) -> PlanValidationReport:
    """Re-fly the plan leg by leg with the mode controllers and compare
    simulated energy against the planner's prediction.

    Speed carries across consecutive drive edges; transition legs are
    simulated as a hover of the configured duration; fly legs accelerate
    with the flight controller's authority and cruise through. A tip event,
    a simulation fault or a leg that times out marks the leg failed instead
    of aborting the report.
    """
    results: list[LegValidation] = []
    sim_total = 0.0
    v_carry = 0.0
    for i, leg in enumerate(mission.legs):
        fault = None
        try:
            if leg.mode == DRIVE:
                sim_wh, v_carry = _simulate_drive_leg(
                    leg, terrain, cfg, model, payload, dt_s
                )
            elif leg.mode == FLY:
                sim_wh = _simulate_fly_leg(leg, terrain, cfg, model, payload, dt_s)
                v_carry = 0.0
            else:
                sim_wh = model.hover_power_w * cfg.transition_time_s / 3600.0
                v_carry = 0.0
        except dynamics.TipEvent as exc:
            sim_wh, fault = 0.0, f"tip event: {exc}"
        except dynamics.SimulationFault as exc:
            sim_wh, fault = 0.0, f"simulation fault: {exc}"
        sim_total += sim_wh
        if fault is not None:
            ok = False
            deviation = math.inf
        else:
            if leg.energy_wh > 0.0:
                deviation = abs(sim_wh - leg.energy_wh) / leg.energy_wh
            else:
                deviation = 0.0 if sim_wh == 0.0 else math.inf
            ok = deviation <= max_deviation
        results.append(
            LegValidation(
                index=i,
                mode=leg.mode,
                predicted_wh=leg.energy_wh,
                simulated_wh=sim_wh,
                deviation=deviation,
                ok=ok,
                fault=fault,
            )
        )
    battery_ok = True
    if batteries is not None:
        battery_ok = _drain_under_predicted(mission, copy.deepcopy(batteries))
    ok = all(r.ok for r in results) and battery_ok
    return PlanValidationReport(
        legs=tuple(results),
        predicted_total_wh=mission.total_energy_wh,
        simulated_total_wh=sim_total,
        battery_ok=battery_ok,
        ok=ok,
    )


def _drain_under_predicted(mission: MissionPlan, batteries: list) -> bool:
    from .energy import BatteryProtectionError, drain

    packs = [b for b in batteries if b.is_propulsion]
    if not packs:
        return True
    for leg in mission.legs:
        if leg.duration_s <= 0.0 or leg.energy_wh <= 0.0:
            continue
        power = leg.energy_wh * 3600.0 / leg.duration_s
        for pack in packs:
            try:
                events = drain(pack, power / len(packs), leg.duration_s)
            except BatteryProtectionError:
                return False
            if events:
                return False
    return True


def _simulate_drive_leg(leg, terrain, cfg, model, payload, dt_s):
    params = model.params
    rotor = model.rotor
    gains = dynamics.ControllerGains()
    energy = 0.0
    v = 0.0
    max_steps_per_edge = int(60.0 / dt_s)
    for a, b in zip(leg.cells, leg.cells[1:]):
        dh = terrain.elevation_at(b) - terrain.elevation_at(a)
        slope = math.degrees(math.atan2(abs(dh), terrain.cell_size_m))
        if slope == 0.0:
            surface = dynamics.SurfaceModel("flat")
            direction = (1.0, 0.0, 0.0)
        else:
            surface = dynamics.SurfaceModel("incline", slope_deg=slope)
            psi = math.radians(slope)
            direction = (math.cos(psi), 0.0, math.sin(psi))
        state = dynamics.initial_ground_state(params, surface)
        state = _replace(state, velocity=tuple(v * d for d in direction))
        setpoint = dynamics.ControlSetpoint(
            mode=state.mode, speed_mps=cfg.drive_speed_mps
        )
        covered = 0.0
        steps = 0
        while covered < terrain.cell_size_m:
            state = dynamics.step(
                state, setpoint, surface, dt_s, params=params, rotor=rotor,
                gains=gains, payload=payload,
            )
            v = dynamics.along_track_speed(state, surface)
            covered += v * dt_s
            power = instantaneous_power(model, state, surface, payload)
            energy += power * dt_s / 3600.0
            steps += 1
            if steps > max_steps_per_edge:
                raise dynamics.SimulationFault("drive edge timed out", state)
    return energy, v


def _simulate_fly_leg(leg, terrain, cfg, model, payload, dt_s):
    gains = dynamics.ControllerGains()
    m = model.params.total_mass(payload)
    g = model.params.gravity
    cell = terrain.cell_size_m
    n_edges = len(leg.cells) - 1
    total_len = n_edges * cell
    rises = [
        terrain.elevation_at(b) - terrain.elevation_at(a)
        for a, b in zip(leg.cells, leg.cells[1:])
    ]
    v = 0.0
    s = 0.0
    energy = 0.0
    steps = 0
    max_steps = int(120.0 / dt_s)
    p_cruise = model.flight_power(payload)
    while s < total_len:
        accel = gains.kp_pos * (cfg.fly_speed_mps - v)
        accel = max(-gains.max_flight_accel_mps2, min(gains.max_flight_accel_mps2, accel))
        v += accel * dt_s
        s += v * dt_s
        edge = min(int(s / cell), n_edges - 1)
        vz = v * rises[edge] / cell
        power = p_cruise + m * g * max(0.0, vz)
        energy += power * dt_s / 3600.0
        steps += 1
        if steps > max_steps:
            raise dynamics.SimulationFault("fly leg timed out", None)
    return energy
