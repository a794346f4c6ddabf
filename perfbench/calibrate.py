"""Host speed probe: a fixed pure-Python loop timed between operations.

The benchmark host is shared: the same operation can take half as long again
from one minute to the next as other tenants come and go.  `gap` times a
short reference loop a few times; the benchmark calls it before and after
every operation, and each operation's time divided by the median of those
probe times is a cost from which most of the host's drift cancels out.  The
loop uses no flydrive code, so no change to the program can move it, and it
exercises the interpreter the way the program does: tuples, dict and heap
operations and float math.
"""

from __future__ import annotations

import gc
import heapq
import math
import time

GAP_SAMPLES = 5
GRID = 30  # the reference loop's grid side; one wall_ref unit is one loop


def reference_loop() -> int:
    """Dijkstra over a GRID x GRID grid with smooth weights; returns cells settled."""
    dist = {(0, 0): 0.0}
    heap = [(0.0, (0, 0))]
    done = set()
    while heap:
        d, (r, c) = heapq.heappop(heap)
        if (r, c) in done:
            continue
        done.add((r, c))
        for nr, nc in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
            if 0 <= nr < GRID and 0 <= nc < GRID:
                nd = d + 1.0 + 0.5 * math.sin(nr * 0.7 + nc * 1.3) ** 2
                if nd < dist.get((nr, nc), math.inf):
                    dist[(nr, nc)] = nd
                    heapq.heappush(heap, (nd, (nr, nc)))
    return len(done)


def gap() -> list[float]:
    """Probe seconds, sampled a few times between operations.  The garbage
    collector is held off meanwhile: a collection would walk the program's
    objects, and the probe must time the host, not the program's heap."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(GAP_SAMPLES):
            t0 = time.perf_counter()
            reference_loop()
            samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return samples
