"""Independent checks of planner output.

`reference_route` is a plain Dijkstra with dist and parent arrays over
(cell, mode) nodes.  It prices edges with the cost model the planner
documents (mode power times traversal time, potential energy for climbs in
flight, a fixed transition energy), summed in path order, so its optimum must
equal the planner's total bit for bit.  `leg_problems` checks the structural
invariants of a returned plan.
"""

from __future__ import annotations

import heapq
import math

DRIVE = 0  # node id = 2 * (row * width + col) + mode; fly is mode 1


def reference_route(terrain, start, goal, cfg, model, trav, payload=0.0) -> tuple:
    """Least energy from (start, drive) to (goal, drive), and the number of
    mode switches on the route the parent array gives; (inf, None) if the
    goal is unreachable."""
    width, height = terrain.width, terrain.height
    elev = terrain.elevation_m
    cell = terrain.cell_size_m
    drive_time = cell / cfg.drive_speed_mps
    fly_time = cell / cfg.fly_speed_mps
    flat_power = model.ground_power(cfg.drive_speed_mps, payload)
    cruise_power = model.flight_power(payload)
    mass = model.params.total_mass(payload)
    gravity = model.params.gravity

    def drive_cost(dh):
        slope = math.degrees(math.atan2(abs(dh), cell))
        if slope == 0.0:
            power = flat_power
        else:
            power = model.incline_power(slope, cfg.drive_speed_mps, payload)
        return power * drive_time / 3600.0

    def fly_cost(dh):
        energy = cruise_power * fly_time / 3600.0
        if dh > 0.0:
            energy += mass * gravity * dh / 3600.0
        return energy

    n = width * height
    dist = [math.inf] * (2 * n)
    parent = [-1] * (2 * n)
    done = [False] * (2 * n)
    source = 2 * (start[0] * width + start[1]) + DRIVE
    target = 2 * (goal[0] * width + goal[1]) + DRIVE
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        if node == target:
            break
        idx, mode = divmod(node, 2)
        r, c = divmod(idx, width)
        allowed = trav.drivable if mode == DRIVE else trav.flyable
        cost = drive_cost if mode == DRIVE else fly_cost
        edges = []
        for nr, nc in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
            if 0 <= nr < height and 0 <= nc < width and allowed[nr][nc]:
                edges.append((2 * (nr * width + nc) + mode, cost(elev[nr][nc] - elev[r][c])))
        other = trav.flyable if mode == DRIVE else trav.drivable
        if other[r][c]:
            edges.append((node ^ 1, cfg.transition_energy_wh))
        for nxt, w in edges:
            nd = d + w
            if not done[nxt] and nd < dist[nxt]:
                dist[nxt] = nd
                parent[nxt] = node
                heapq.heappush(heap, (nd, nxt))
    if dist[target] == math.inf:
        return math.inf, None
    switches, node = 0, target
    while node != source:
        switches += (parent[node] ^ node) == 1
        node = parent[node]
    return dist[target], switches


def leg_problems(mission, trav) -> list[str]:
    """Violations of the leg invariants of a plan given as its JSON dict."""
    problems = []
    legs = mission["legs"]
    at = list(mission["start"])
    for i, leg in enumerate(legs):
        cells = [list(c) for c in leg["cells"]]
        if not cells or cells[0] != at:
            problems.append(f"leg {i} starts at {cells[:1]}, expected {at}")
        for a, b in zip(cells, cells[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                problems.append(f"leg {i}: {a} -> {b} is not a 4-neighbour step")
        if leg["mode"] == "drive":
            bad = [c for c in cells if not trav.drivable[c[0]][c[1]]]
        elif leg["mode"] == "fly":
            bad = [c for c in cells if not trav.flyable[c[0]][c[1]]]
        else:
            bad = []
            if len(cells) != 1:
                problems.append(f"leg {i}: transition spans {len(cells)} cells")
        if bad:
            problems.append(f"leg {i} ({leg['mode']}) crosses untraversable cells {bad}")
        if cells:
            at = cells[-1]
    if at != list(mission["goal"]):
        problems.append(f"route ends at {at}, goal is {mission['goal']}")
    leg_sum = sum(leg["energy_wh"] for leg in legs)
    total = mission["total_energy_wh"]
    if not math.isclose(leg_sum, total, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"leg energies sum to {leg_sum!r}, total is {total!r}")
    n_transitions = sum(1 for leg in legs if leg["mode"].startswith("transition_to_"))
    if n_transitions != mission["n_transitions"]:
        problems.append(f"{n_transitions} transition legs, n_transitions is "
                        f"{mission['n_transitions']}")
    return problems
