"""Energy-optimal multi-modal routing over a terrain grid.

Search runs over (cell, mode) nodes with mode in {drive, fly}; edge weights
are electrical energy in Wh (mode power times traversal time, plus potential
energy for climbs in flight), and switching mode costs a fixed transition
energy.

The search is Dijkstra over flat arrays: node 2 * cell + mode (cells
numbered row by row, drive 0, fly 1) has a `dist`, `trans`, `parent`,
`depth` and `closed` entry (closed: settled, or a mode the cell forbids),
and each key is (energy, n_transitions, node). Routes are ordered by least
energy, then fewest transitions, then the smallest cell sequence (cells in
route order, a mode switch adding none), then the mode of the last step,
then the smallest sequence of (cell, mode) steps, with drive before fly. A
move costs more than 0 Wh and a switch adds a transition, so a parent's
(energy, transitions) is strictly below its child's, and the keys after the
first two only decide between two candidates for the same node (so the same
last mode) that tie on both: the parent chains of the two are walked up to
their common ancestor and the parts below it compared.

A move's key goes on a heap. Every mode switch adds the same energy to a
key that settles in order, so switch keys arrive sorted and go on a
first-in first-out queue, bar two energies an ulp apart that round to the
same sum, inserted in place (see `_search`). Each step settles the smaller
front, as one heap of every key would. A drive node's fly twin (the fly
node its switch reaches) is not queued at all when it cannot move: each of
its fly neighbours is closed or will hold less, by the time it would
settle, than any fly move from it could give. Settling it would change
nothing, so every other node settles in the same order; its energy is
still written, and a fly move that lowers it later heaps it as usual.

A fly move whose target already holds less than the settled node's energy
plus the level fly edge energy is skipped unpriced: no fly edge costs less
than a level one and float addition is monotone, so the move could neither
improve nor tie. The floor is used only once the fly pricer has checked
the vehicle's weight, after which no fly price can raise; drive moves are
always priced, so every error arises at the edge where it would if every
move were priced.

The returned plan is exactly optimal under this cost model; correctness is
pinned by a brute-force oracle over all simple mode-annotated paths in the
test suite, and the tie-break by a heap-of-paths reference search.
"""

from __future__ import annotations

import heapq
import math
import struct
from bisect import insort
from collections import deque
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import and_, eq, itemgetter, le, ne, sub

from . import dynamics, fields
from .defaults import AVIONICS_POWER_W, TRANSITION_ENERGY_WH, TRANSITION_TIME_S
from .dynamics import exact_run, finite_power, first_holding
from .energy import PowerModel
from .fields import FieldError
from .statics import tipping_slope
from .terrain import NO_FLY, FREE, TerrainGrid
from .vehicle import VehicleParams

DRIVE = "drive"
FLY = "fly"
TRANSITION_TO_FLY = "transition_to_fly"
TRANSITION_TO_GROUND = "transition_to_ground"
MODES = (DRIVE, FLY)  # indexed by the low bit of a search node id
_FLAT = dynamics.SurfaceModel("flat")
_pack_edge = struct.Struct("3d").pack  # a drive edge's slope, entry speed and energy


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
        # each check is written so that NaN fails it
        envelope = dynamics.DEFAULT_SPEED_ENVELOPE_MPS
        if not 0.0 < self.drive_speed_mps <= envelope:
            raise FieldError("drive_speed_mps", f"must be in (0, {envelope}]")
        if not 0.0 < self.fly_speed_mps < math.inf:
            raise FieldError("fly_speed_mps", "must be finite and > 0")
        for name in ("transition_energy_wh", "transition_time_s", "slope_margin_deg"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise FieldError(name, "must be finite and >= 0")


@dataclass(frozen=True)
class Traversability:
    drivable: tuple[tuple[bool, ...], ...]
    flyable: tuple[tuple[bool, ...], ...]

    def drivable_at(self, cell: tuple[int, int]) -> bool:
        return self.drivable[cell[0]][cell[1]]


def classify_traversability(
    terrain: TerrainGrid, params: VehicleParams, cfg: PlannerConfig
) -> Traversability:
    """Drivable: free cell whose steepest neighbor gradient is at most the
    tip limit minus the safety margin. Flyable: anything but a no-fly cell."""
    limit = tipping_slope(params) - cfg.slope_margin_deg
    elevation, cell = terrain.elevation_m, terrain.cell_size_m
    degrees, atan2 = math.degrees, math.atan2

    def gentle(a, b):
        """Whether each edge from a[i] to b[i] is at most the limit."""
        rises = map(abs, map(sub, b, a))
        return list(map(le, map(degrees, map(atan2, rises, repeat(cell))), repeat(limit)))

    # each edge tested once: abs(b - a) == abs(a - b) in floating point
    across = [gentle(row, row[1:]) for row in elevation]
    along = [gentle(a, b) for a, b in zip(elevation, elevation[1:])]
    # every gradient is >= 0, so a cell is drivable when each of its edges
    # is; a cell with no edge has a steepest gradient of 0
    level_ok = 0.0 <= limit
    drivable = []
    for r, kinds in enumerate(terrain.classes):
        ok = list(map(eq, kinds, repeat(FREE))) if level_ok else [False] * len(kinds)
        if r > 0:
            ok = list(map(and_, ok, along[r - 1]))
        ok[1:] = map(and_, ok[1:], across[r])
        ok[:-1] = map(and_, ok[:-1], across[r])
        if r + 1 < terrain.height:
            ok = list(map(and_, ok, along[r]))
        drivable.append(tuple(ok))
    flyable = tuple(tuple(map(ne, row, repeat(NO_FLY))) for row in terrain.classes)
    return Traversability(drivable=tuple(drivable), flyable=flyable)


def _edge_pricer(mode, cell_size_m, cfg, model, payload):
    """The energy (Wh) of one edge of cell_size_m in `mode` for one plan, as
    a function of the elevation change dh; every edge energy the planner
    reports comes from one of these. Driving pays the ground power, plus the
    rotor power that holds the vehicle against gravity on a slope, which is
    symmetric in direction. Flying pays the cruise power, plus the potential
    energy of any elevation gained; descents give nothing back.

    The per-plan constants (the ground power at the drive speed, the weight
    behind the hold, the level fly energy, the edge time) are bound at the
    first edge that needs them, so a payload the model cannot price fails
    at the same edge, with the same error, as when each edge is priced on
    its own. The fly pricer's `floor` is -inf until both its constants are
    bound; from then on no fly edge can raise or cost less than the floor,
    the level edge energy."""
    if mode == DRIVE:
        speed = cfg.drive_speed_mps
        time_s = cell_size_m / speed
        incline_w = model.incline_power_at(speed, payload)
        ground_w = None

        def drive_wh(dh):
            nonlocal ground_w
            slope = math.degrees(math.atan2(abs(dh), cell_size_m))
            if slope != 0.0:
                return incline_w(slope) * time_s / 3600.0
            if ground_w is None:
                ground_w = model.ground_power(speed, payload)
            return ground_w * time_s / 3600.0

        return drive_wh
    level_wh = weight_n = None

    def fly_wh(dh):
        nonlocal level_wh, weight_n
        if level_wh is None:
            level_wh = model.flight_power(payload) * (cell_size_m / cfg.fly_speed_mps) / 3600.0
        if dh <= 0.0:
            return level_wh
        if weight_n is None:
            weight_n = model.params.total_mass(payload) * model.params.gravity
            fly_wh.floor = level_wh
        return level_wh + weight_n * dh / 3600.0

    fly_wh.floor = -math.inf
    return fly_wh


@dataclass(frozen=True)
class MissionLeg:
    mode: str  # drive | fly | transition_to_fly | transition_to_ground
    cells: tuple[tuple[int, int], ...]
    speed_mps: float
    energy_wh: float
    duration_s: float


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
        return fields.record(self)


def plan(
    terrain: TerrainGrid,
    start: tuple[int, int],
    goal: tuple[int, int],
    cfg: PlannerConfig,
    model: PowerModel,
    batteries: list | None = None,
    payload: float = 0.0,
    avionics_power_w: float = AVIONICS_POWER_W,
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

    prices = (
        _edge_pricer(DRIVE, terrain.cell_size_m, cfg, model, payload),
        _edge_pricer(FLY, terrain.cell_size_m, cfg, model, payload),
    )
    total_energy, n_transitions, steps = _search(
        terrain, trav, start, goal, prices, cfg.transition_energy_wh
    )
    legs = _legs_from_steps(steps, terrain, cfg, prices)
    total_duration = sum(leg.duration_s for leg in legs)
    feasible = batteries is None or _packs_hold(batteries, total_energy, total_duration,
                                                avionics_power_w)
    return MissionPlan(
        start=start,
        goal=goal,
        legs=tuple(legs),
        total_energy_wh=total_energy,
        total_duration_s=total_duration,
        n_transitions=n_transitions,
        feasible=feasible,
    )


def _packs_hold(batteries: list, energy_wh: float, duration_s: float,
                avionics_power_w: float) -> bool:
    """Whether each pack holds its draw above its protection floor, as
    `Simulator.run` drains them: an equal share of `energy_wh` from each
    propulsion pack, and the avionics draw over `duration_s` from the
    electronics pack. Both `plan` and `validate_plan` decide by this rule."""
    if not avionics_power_w >= 0.0:  # NaN included
        raise ValueError(f"avionics_power_w must be >= 0, got {avionics_power_w!r}")
    packs = [b for b in batteries if b.is_propulsion]
    share = energy_wh / max(1, len(packs))
    electronics = next((b for b in batteries if not b.is_propulsion), None)
    return (share <= min((b.remaining_usable_wh for b in packs), default=0.0)
            and (electronics is None
                 or avionics_power_w * duration_s / 3600.0 <= electronics.remaining_usable_wh))


def _search(terrain, trav, start, goal, prices, switch_wh):
    """Dijkstra from (start, drive) to (goal, drive). Cells are indexed on
    the grid padded with a border of cells that neither mode may enter, so a
    move needs no bounds check; cell (row, col) has index
    (row + 1) * (width + 2) + col + 1, which orders like (row, col), and
    node id 2 * index + mode, so a move to the cell above, left, right or
    below is a fixed step in node id and a mode switch flips the low bit.
    `closed` marks every node that is settled or that its mode may not
    enter. Each open neighbour of a settled node is priced and relaxed in
    one pass, in that order and then the switch.

    A move's key (energy, n_transitions, node) is pushed on `heap`; a mode
    switch's is appended to `switched`, and each step settles whichever
    front is smaller. Settled keys never decrease and each switch adds
    `switch_wh` and one transition, so, float addition being monotone,
    switch keys arrive in order. The exception is two energies an ulp apart
    whose sums round to the same energy: the later key may then carry fewer
    transitions, so a key below the queue's last is inserted in its sorted
    place. The queue stays sorted and the settle order is that of one heap
    of every key.

    A drive node u settled at energy E writes its fly twin v = u ^ 1 at
    e = E + switch_wh as any switch does, but queues it only if v can move:
    unless, with b = e + fly.floor > e, each fly neighbour w of v is
    closed, holds dist[w] < b, or has a drive twin w - 1 with
    dist[w - 1] < e and dist[w - 1] + switch_wh < b. This is exact: dist
    only falls and closed only rises, and a drive twin below e settles
    before v would, its own switch giving w at most dist[w - 1] + switch_wh
    (float addition is monotone). So when v would settle, each of its fly
    moves fails the floor test below and its switch back meets the closed
    u; from then on every move onto v fails the floor test too, and a fly
    move that lowers v before then heaps it as usual. The floor is bound,
    so no fly price can raise.

    A fly move is skipped unpriced when its target already holds less
    energy than the settled node's energy plus the fly pricer's `floor`:
    no fly price is below the floor and float addition is monotone, so the
    move could neither improve nor tie that energy. The floor is -inf until
    the pricer has bound every constant that can raise, so a skipped move
    never hides an error that pricing it would raise; drive moves are
    always priced. Returns (energy, n_transitions, steps), the route as (cell,
    mode) steps from start to goal; raises NoPathError listing every
    reachable (cell, mode) when the goal is not among them."""
    width, height = terrain.width, terrain.height
    pw = width + 2
    size = pw * (height + 2)
    row = 2 * pw  # node id step to the next row
    elevation = [0.0] * size
    closed = [True] * (2 * size)
    for r in range(height):
        first = (r + 1) * pw + 1
        elevation[first:first + width] = terrain.elevation_m[r]
        closed[2 * first:2 * (first + width):2] = [not ok for ok in trav.drivable[r]]
        closed[2 * first + 1:2 * (first + width):2] = [not ok for ok in trav.flyable[r]]
    dist = [math.inf] * (2 * size)
    trans = [0] * (2 * size)
    parent = [-1] * (2 * size)
    depth = [0] * (2 * size)  # steps from the source
    source = 2 * ((start[0] + 1) * pw + start[1] + 1)
    target = 2 * ((goal[0] + 1) * pw + goal[1] + 1)
    dist[source] = 0.0
    heap = [(0.0, 0, source)]
    switched = deque()  # mode-switch keys, sorted
    pop, push, popleft = heapq.heappop, heapq.heappush, switched.popleft
    drive, fly = prices
    while True:
        if switched and (not heap or switched[0] < heap[0]):
            energy, ntrans, u = popleft()
        elif heap:
            energy, ntrans, u = pop(heap)
        else:
            break
        if closed[u]:
            continue
        closed[u] = True
        if u == target:
            break
        here = elevation[u >> 1]
        if u & 1:
            price, floor = fly, energy + fly.floor
        else:
            price, floor = drive, -math.inf
        for v in (u - row, u - 2, u + 2, u + row):
            if closed[v] or dist[v] < floor:
                continue
            e, d = energy + price(elevation[v >> 1] - here), dist[v]
            if e < d or (e == d and ntrans < trans[v]):
                dist[v] = e
                trans[v] = ntrans
                push(heap, (e, ntrans, v))
            elif e != d or ntrans != trans[v] or not _precedes(u, v, parent, depth):
                continue
            parent[v] = u
            depth[v] = depth[u] + 1
        v = u ^ 1
        if closed[v]:
            continue
        e, t, d = energy + switch_wh, ntrans + 1, dist[v]
        if e < d or (e == d and t < trans[v]):
            dist[v] = e
            trans[v] = t
            # v's fly neighbours are x + 1 for u's drive neighbours x
            # (u - row, u - 2, u + 2, u + row): queued only if v can move
            if u & 1 or not (b := e + fly.floor) > e or not (
                (closed[u - row + 1] or dist[u - row + 1] < b
                 or dist[u - row] < e and dist[u - row] + switch_wh < b)
                and (closed[u - 1] or dist[u - 1] < b
                     or dist[u - 2] < e and dist[u - 2] + switch_wh < b)
                and (closed[u + 3] or dist[u + 3] < b
                     or dist[u + 2] < e and dist[u + 2] + switch_wh < b)
                and (closed[u + row + 1] or dist[u + row + 1] < b
                     or dist[u + row] < e and dist[u + row] + switch_wh < b)
            ):
                if switched and (e, t, v) < switched[-1]:
                    insort(switched, (e, t, v))  # energies an ulp apart
                else:
                    switched.append((e, t, v))
        elif e != d or t != trans[v] or not _precedes(u, v, parent, depth):
            continue
        parent[v] = u
        depth[v] = depth[u] + 1
    if not closed[target]:
        # both queues ran dry, so every node given an energy was settled or
        # is a fly twin that could not move
        explored = [_cell_mode(n, pw) for n, d in enumerate(dist) if d < math.inf]
        raise NoPathError(
            f"no route from {start} to {goal}: explored "
            f"{len(explored)} (cell, mode) states",
            explored=explored,
        )
    route = [target]
    while route[-1] != source:
        route.append(parent[route[-1]])
    route.reverse()
    return dist[target], trans[target], [_cell_mode(n, pw) for n in route]


def _cell_mode(node: int, padded_width: int) -> tuple:
    row, col = divmod(node >> 1, padded_width)
    return (row - 1, col - 1), MODES[node & 1]


def _precedes(u, v, parent, depth) -> bool:
    """Whether the route through u to v sorts before the route through
    parent[v] to v; both have the same energy and transition count. The two
    share everything above their lowest common ancestor, so only the parts
    from there down are compared: cell sequences first, then node ids,
    which order like (cell, mode) steps."""
    x, y = u, parent[v]
    a, b = [x], [y]
    while depth[x] > depth[y]:
        x = parent[x]
        a.append(x)
    while depth[y] > depth[x]:
        y = parent[y]
        b.append(y)
    while x != y:
        x, y = parent[x], parent[y]
        a.append(x)
        b.append(y)
    a, b = a[::-1] + [v], b[::-1] + [v]
    cells_a, cells_b = _cell_sequence(a), _cell_sequence(b)
    if cells_a != cells_b:
        return cells_a < cells_b
    return a < b


def _cell_sequence(nodes: list) -> list:
    """Cell indices in route order; a mode switch stays on its cell and adds
    none."""
    return [n >> 1 for n, prev in zip(nodes, [-2] + nodes) if n >> 1 != prev >> 1]


def _legs_from_steps(steps, terrain, cfg, prices) -> list[MissionLeg]:
    """A leg per run of two or more cells in one mode, with a transition leg
    on the cell where each run after the first begins."""
    elevation = terrain.elevation_m
    legs: list[MissionLeg] = []
    for k, (mode, run) in enumerate(groupby(steps, key=itemgetter(1))):
        cells = [cell for cell, _ in run]
        if k > 0:
            kind = TRANSITION_TO_FLY if mode == FLY else TRANSITION_TO_GROUND
            legs.append(MissionLeg(kind, (cells[0],), 0.0, cfg.transition_energy_wh,
                                   cfg.transition_time_s))
        if len(cells) >= 2:
            price = prices[MODES.index(mode)]
            speed = cfg.drive_speed_mps if mode == DRIVE else cfg.fly_speed_mps
            energy = 0.0
            for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
                energy += price(elevation[r1][c1] - elevation[r0][c0])
            legs.append(MissionLeg(mode, tuple(cells), speed, energy,
                                   (len(cells) - 1) * terrain.cell_size_m / speed))
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


@dataclass(frozen=True)
class PlanValidationReport:
    legs: tuple[LegValidation, ...]
    predicted_total_wh: float
    simulated_total_wh: float
    battery_ok: bool
    ok: bool

    def to_json_dict(self) -> dict:
        out = fields.record(self)
        for leg in out["legs"]:
            if not math.isfinite(leg["deviation"]):
                leg["deviation"] = None  # a faulted leg's, which JSON cannot hold
        return out


def validate_plan(
    mission: MissionPlan,
    terrain: TerrainGrid,
    model: PowerModel,
    cfg: PlannerConfig,
    batteries: list | None = None,
    payload: float = 0.0,
    dt_s: float = 0.001,
    max_deviation: float = 0.15,
    avionics_power_w: float = AVIONICS_POWER_W,
) -> PlanValidationReport:
    """Re-fly the plan leg by leg with the mode controllers and compare
    simulated energy against the planner's prediction.

    Speed carries across consecutive drive edges; transition legs are
    simulated as a hover of the configured duration; fly legs accelerate
    with the flight controller's authority and cruise through. A drive
    edge is straight, so only its speed is stepped, through the ground
    law's speed update (`dynamics.speed_law`); each distinct drive edge is
    stepped once per call, with one exact jump after each steady step
    (`_simulate_drive_leg`). A tip event, a simulation fault or
    a leg that times out marks the leg failed, with an infinite deviation,
    instead of aborting the report. `battery_ok` applies the plan's own
    rule (`_packs_hold`): the predicted total, split in equal shares over
    the propulsion packs, and the avionics draw over the plan's duration
    must fit above their packs' protection floors, so it equals the plan's
    `feasible` for the same packs and draw.
    """
    dynamics.check_dt(dt_s)
    if not max_deviation >= 0.0:  # NaN included, which would fail every leg
        raise ValueError(f"max_deviation must be >= 0, got {max_deviation!r}")
    results: list[LegValidation] = []
    sim_total = 0.0
    edges = {}  # each drive edge driven to its end: see `_simulate_drive_leg`
    for i, leg in enumerate(mission.legs):
        fault = None
        try:
            if leg.mode == DRIVE:
                sim_wh = _simulate_drive_leg(leg, terrain, cfg, model, payload, dt_s, edges)
            elif leg.mode == FLY:
                sim_wh = _simulate_fly_leg(leg, terrain, cfg, model, payload, dt_s)
            else:
                sim_wh = model.hover_power_w * cfg.transition_time_s / 3600.0
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
    battery_ok = batteries is None or _packs_hold(
        batteries, mission.total_energy_wh, mission.total_duration_s, avionics_power_w)
    ok = all(r.ok for r in results) and battery_ok
    return PlanValidationReport(
        legs=tuple(results),
        predicted_total_wh=mission.total_energy_wh,
        simulated_total_wh=sim_total,
        battery_ok=battery_ok,
        ok=ok,
    )


def _simulate_drive_leg(leg, terrain, cfg, model, payload, dt_s, edges):
    """Energy (Wh) to drive a leg from rest. Each edge starts from a fresh
    ground state at the origin, heading along +x, at the speed the edge
    before ended with. An edge is straight, so only the speed it reads is
    stepped, through `dynamics.speed_law`, and its power priced once per
    edge. Once that speed comes back with the same bits (where
    `dynamics.repeats` holds: the yaw rate and yaw stay 0.0), each further
    step only moves the vehicle on, so the speed and power stay and the
    distance and energy go up by the same amounts every step. After each
    such step one jump takes those that follow (`dynamics.exact_run`), cut
    at the step that covers the cell and at the 60 s step limit, after which
    a step times out; a step no jump can take goes through the law.

    The position is not stepped, yet each step faults as a full step
    would. A step whose velocity or position is not finite reads a speed
    whose power is not finite either: the ground power cubes the speed,
    which overflows above 5.7e102 m/s. The steps before it, each slower,
    moved the vehicle from (0, 0, z0), z0 the height of its centre of mass,
    by less than 4e104 m, which leaves z0 itself where z0 is 2^1023 or
    more; so the velocity and position are tested only when the power is
    not finite, and the position is then finite exactly when z0 + vz dt is.

    An edge's energy and end speed depend only on its slope and on the
    speed and energy it starts with: `edges`, kept by one `validate_plan`
    call, holds them for each edge driven to its end, keyed by the bits of
    those three floats. An edge that raises is not kept; it raises again."""
    params = model.params
    rotor = model.rotor
    cell = terrain.cell_size_m
    energy = 0.0
    v = 0.0
    max_steps_per_edge = int(60.0 / dt_s)
    inf = math.inf
    for a, b in zip(leg.cells, leg.cells[1:]):
        dh = terrain.elevation_at(b) - terrain.elevation_at(a)
        slope = math.degrees(math.atan2(abs(dh), cell))
        key = _pack_edge(slope, v, energy)
        if key in edges:
            energy, v = edges[key]
            continue
        surface = _FLAT if slope == 0.0 else dynamics.SurfaceModel("incline", slope_deg=slope)
        read, advance = dynamics.speed_law(surface, cfg.drive_speed_mps, dt_s, params, rotor,
                                           payload)
        price = model.drive_power_at(None if slope == 0.0 else slope, payload)
        v = read(v)
        covered = 0.0
        steps = 0
        while covered < cell:
            w, vx, vy, vz = advance(v)
            try:
                power = price(w if w > 0.0 else 0.0 - w)  # abs(w), signed zeros included
            except OverflowError:
                power = inf
            if not -inf < power < inf:
                z = params.com_height + vz * dt_s
                dynamics.check_finite((vx, vy, vz, z))  # velocity, position
                mode = dynamics.Mode.GROUND if slope == 0.0 else dynamics.Mode.INCLINE
                finite_power(power, mode)  # raises the fault
            # the same bits: == cannot tell 0.0 from -0.0
            steady = w == v and (w or math.copysign(1.0, w) == math.copysign(1.0, v))
            v = w
            covered += v * dt_s
            energy += power * dt_s / 3600.0
            steps += 1
            if steps > max_steps_per_edge:
                raise dynamics.SimulationFault("drive edge timed out")
            if steady and covered < cell:  # one jump of the steps that add the same
                n, ds = exact_run(covered, v * dt_s, max_steps_per_edge - steps)
                n, de = exact_run(energy, power * dt_s / 3600.0, n)
                if n and covered + n * ds >= cell:
                    n = first_holding(n, lambda j: covered + j * ds >= cell)
                covered, energy, steps = covered + n * ds, energy + n * de, steps + n
        edges[key] = energy, v
    return energy


def _simulate_fly_leg(leg, terrain, cfg, model, payload, dt_s):
    kp, cap = dynamics.KP_POS, dynamics.MAX_FLIGHT_ACCEL_MPS2
    m = model.params.total_mass(payload)
    g = model.params.gravity
    cell = terrain.cell_size_m
    n_edges = len(leg.cells) - 1
    last = n_edges - 1
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
        accel = kp * (cfg.fly_speed_mps - v)
        accel = accel if accel < cap else cap
        accel = accel if accel > -cap else -cap
        v += accel * dt_s
        s += v * dt_s
        edge = int(s / cell)
        edge = edge if edge < last else last
        vz = v * rises[edge] / cell
        power = p_cruise + m * g * (vz if vz > 0.0 else 0.0)
        energy += power * dt_s / 3600.0
        steps += 1
        if steps > max_steps:
            raise dynamics.SimulationFault("fly leg timed out")
    return energy
