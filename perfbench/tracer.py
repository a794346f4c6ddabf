"""Span tracing for the traced benchmark run.

The tracer replaces every public function and every public method of every
public class of the layer modules with a wrapper that records one span per
call: layer name, start, end, parent span and operation id.  Each function
is rebound at every module attribute that holds it, so names imported with
``from .x import f`` are traced too.  ``uninstall`` puts the originals back.

Per-name aggregates (calls, total seconds, self seconds) are kept exactly for
every call.  Raw spans go into flat arrays in memory, at most ``MAX_SPANS``
of them, and are written out by ``write_spans`` once the run has ended.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import enum
import functools
import inspect
import os
import sys
import time
from array import array

# Modules of the package that count as layers.  `defaults` holds only data
# and is part of set-up, so it is not traced.
LAYERS = ("vehicle", "statics", "dynamics", "energy", "simulator",
          "terrain", "planner", "scenario", "cli")
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.op = 0
        self.n_spans = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.step_modes: dict[str, list] = {}  # mode -> [calls, total_s]
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._open: list[int] = []  # span ids of the calls in progress
        self._child: list[float] = []  # child seconds of each open call
        self._restore: list[tuple] = []
        self.trace_rows = 0
        self.timeline_len = 0
        self.trace_bytes = 0
        # Counts read off results at layer boundaries, outside the span.
        self._observers = {"simulator.Simulator.run": self._count_sim_run,
                           "simulator.SimResult.write_trace": self._count_trace_file}

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and methods of each layer module."""
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for holder in modules:
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                self._rebind(holder, name, obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    for meth, fn in sorted(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapper = self._wrap(f"{layer}.{attr}.{meth}", fn)
                            self._rebind(obj, meth, fn, wrapper)

    def _rebind(self, holder, name, original, wrapper) -> None:
        setattr(holder, name, wrapper)
        self._restore.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        name_id = len(self.names)
        self.names.append(name)
        by_mode = name == "dynamics.step"
        if by_mode:
            params = list(inspect.signature(fn).parameters)
            state_pos = params.index("state")
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent, span_op = self.span_end, self.span_parent, self.span_op
        opened, child = self._open, self._child
        perf = time.perf_counter
        tracer = self
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.n_spans
            tracer.n_spans = sid + 1
            keep = sid < MAX_SPANS
            if keep:
                span_name.append(name_id)
                span_start.append(0.0)
                span_end.append(0.0)
                span_parent.append(opened[-1] if opened else -1)
                span_op.append(tracer.op)
            opened.append(sid)
            child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                opened.pop()
                inner = child.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - inner
                if child:
                    child[-1] += dur
                if keep:
                    span_start[sid] = t0
                    span_end[sid] = t1
                if by_mode:
                    state = args[state_pos] if len(args) > state_pos else kwargs["state"]
                    mode = tracer.step_modes.setdefault(state.mode.value, [0, 0.0])
                    mode[0] += 1
                    mode[1] += dur
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count_sim_run(self, args, result) -> None:
        self.trace_rows += len(result.rows)
        self.timeline_len += len(getattr(result.ledger, "timeline", ()))

    def _count_trace_file(self, args, result) -> None:
        self.trace_bytes += os.path.getsize(args[1])

    # -- reporting ----------------------------------------------------------

    def stat(self, name: str, field: str):
        """One aggregate; None when the program has no such function."""
        if name.startswith("dynamics.step.") and name.count(".") == 2:
            mode = name.split(".")[2]
            calls, total = self.step_modes.get(mode, (0, 0.0))
            return {"calls": calls, "us_per_call": 1e6 * total / calls if calls else 0.0}[field]
        if name not in self.stats:
            return None
        calls, total, self_s = self.stats[name]
        return {
            "calls": calls,
            "self_s": self_s,
            "total_s": total,
            "us_per_call": 1e6 * total / calls if calls else 0.0,
        }[field]

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for n, s in self.stats.items() if n.split(".")[0] == layer)

    def table(self) -> dict:
        return {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.stats.items()) if c
        }

    def write_spans(self, path: str) -> None:
        """Tab-separated spans: id, name, start, end, parent, operation."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                         f"{self.span_end[i]!r}\t{self.span_parent[i]}\t{self.span_op[i]}\n")
