"""flydrive benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload missions --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`.  The
benchmark writes the workload's generated inputs under `perfbench/_work/`.
With `--trace 0` it measures set-up in fresh interpreters, then runs passes
over the workload's operations one after another in this process (a closed
loop, one client, no extra threads), starting passes until `--seconds` have
gone by.  Every output is checked after the timed
region.  The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones in BENCHMARK.json;
host set-up and run times and the workload's own figures are printed on
`metric` lines.  With
`--trace 1` one plain pass runs, then one pass with every public function of
the layer modules wrapped in spans; the metrics are the per-layer ones, with
the traced pass's extra host time as `trace.overhead_s`.  The spans and the
full per-function table are written to the work directory when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
# Median seconds of `probe.py --reference` on the host the benchmark was
# tuned on (x86_64 Xeon, Python 3.11.7).  setup_s is given at that speed.
REFERENCE_IMPORT_S = 0.08
PROBE_TIMEOUT_S = 60


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(manifest_path: str) -> tuple[list[float], list[float]]:
    """Seconds to import flydrive and parse the inputs, once per fresh
    interpreter, and the reference import's seconds in fresh interpreters
    just before and after each of them (one more reference than set-ups).
    A first unrecorded probe of each kind fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def probe(arg: str) -> float:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), arg],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        return float(done.stdout.strip().splitlines()[-1])

    probe(manifest_path)
    probe("--reference")
    setups, refs = [], [probe("--reference")]
    for _ in range(SETUP_REPEATS):
        setups.append(probe(manifest_path))
        refs.append(probe("--reference"))
    return setups, refs


def setup_seconds(setups: list[float], refs: list[float]) -> float:
    """Median set-up time at the reference host speed: each set-up's seconds
    over the mean of the reference imports around it, times REFERENCE_IMPORT_S."""
    ratios = [s / (0.5 * (refs[i] + refs[i + 1])) for i, s in enumerate(setups)]
    return statistics.median(ratios) * REFERENCE_IMPORT_S


class Pass(NamedTuple):
    seconds: list  # host seconds of each operation
    outcomes: list  # what each operation produced, as compared across passes
    refs: list  # median probe seconds just before and after each operation


def run_pass(ops, tracer=None) -> Pass:
    """Run every operation once, probing the host's speed between them."""
    seconds, outcomes, refs = [], [], []
    before = calibrate.gap()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                value, error = op.call(), None
            except (Exception, SystemExit) as exc:  # a raising operation is a failed one
                value, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        seconds.append(t1 - t0)
        outcomes.append({"error": error, "output": sink.getvalue()[-2000:]} if error
                        else op.collect(value))
        after = calibrate.gap()
        refs.append(statistics.median(before + after))
        before = after
    return Pass(seconds, outcomes, refs)


def judge(ops, passes) -> tuple[int, list]:
    """Failed operation count over all passes, and what went wrong.

    The first pass's outcome of each operation is checked; every later pass
    must reproduce it exactly.
    """
    failed, problems = 0, []
    for index, op in enumerate(ops):
        first = passes[0].outcomes[index]
        found = [first["error"]] if "error" in first else op.check(first)
        problems += [f"{op.name}: {p}" for p in found]
        for number, done in enumerate(passes):
            outcome = done.outcomes[index]
            if found or outcome != first:
                failed += 1
                if not found:
                    problems.append(f"{op.name}: pass {number} differs from pass 0")
    return failed, problems


def end_to_end(workload: str, wl, passes, setup: tuple, rss_mb: float) -> tuple[dict, dict]:
    """Gated metrics and the workload's own figures, from the timed passes.

    wall_s sums each operation's median host time over the passes.  wall_ref
    sums each operation's median of its time divided by the probe time just
    before and after it: the host's speed drifts by half from one minute to
    the next, and the ratio cancels most of that.  setup_s is scaled the
    same way, by a reference import timed next to each set-up.
    """
    wall = sum(statistics.median(op_s) for op_s in zip(*(p.seconds for p in passes)))
    ratios = [[s / ref for s, ref in zip(p.seconds, p.refs)] for p in passes]
    gated = {
        "setup_s": setup_seconds(*setup),
        "wall_ref": sum(statistics.median(op_r) for op_r in zip(*ratios)),
        "peak_rss_mb": rss_mb,
    }
    figures = {"setup_host_s": statistics.median(setup[0]), "wall_s": wall,
               **workload_figures(workload, wl, wall)}
    return gated, figures


def workload_figures(workload: str, wl, wall: float) -> dict:
    figures = wl.figures()
    if workload == "missions":
        return {"sim_steps_per_s": figures["sim_steps"] / wall}
    if workload == "plan-grid":
        return {"cells_per_s": figures["cells"] / wall}
    return {"legs_over_bound_frac": figures["legs_over_bound"] / figures["legs_validated"]}


def per_layer(spec: dict, tracer, figures: dict, overhead_s: float) -> tuple[dict, list]:
    """Per-layer metrics by name; names whose function is gone read 0."""
    counts = {
        "trace.overhead_s": overhead_s,
        "trace.spans": tracer.n_spans,
        "simulator.trace_rows": tracer.trace_rows,
        "simulator.trace_bytes": tracer.trace_bytes,
        "energy.ledger.timeline_len": tracer.timeline_len,
    }
    values, absent = {}, []
    for entry in spec["per_layer"]:
        name = entry["name"]
        head, _, field = name.rpartition(".")
        if name in counts:
            value = counts[name]
        elif head == "workload":
            value = figures.get(field, 0.0)
        elif "." not in head:
            value = tracer.layer_self_s(head)
        else:
            value = tracer.stat(head, field)
            if value is None:
                absent.append(name)
                value = 0
        values[name] = value
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("missions", "plan-grid", "plan-validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="minimal inputs, one pass (used by the self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "flydrive", "__init__.py")):
        print(f"error: no flydrive package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import flydrive
    import workloads
    from tracer import Tracer

    spec = benchmark_spec()
    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.WORKLOADS[args.workload](args.seed, work, small=args.small)
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(wl.manifest, fh, indent=1)

    passes = []
    if args.trace == 0:
        setup = measure_setup(manifest)
        start = time.perf_counter()
        while not passes or (not args.small and time.perf_counter() - start < args.seconds):
            passes.append(run_pass(wl.ops))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with open(os.path.join(work, "timings.json"), "w", encoding="utf-8") as fh:
            json.dump([{"seconds": p.seconds, "refs": p.refs} for p in passes], fh)
        metrics, figures = end_to_end(args.workload, wl, passes, setup, rss_mb)
    else:
        passes.append(run_pass(wl.ops))
        plain_s = sum(passes[0].seconds)
        tracer = Tracer()
        tracer.install(flydrive)
        try:
            passes.append(run_pass(wl.ops, tracer))
        finally:
            tracer.uninstall()
        figures = workload_figures(args.workload, wl, plain_s)
        metrics, absent = per_layer(spec, tracer, figures, sum(passes[1].seconds) - plain_s)
        tracer.write_spans(os.path.join(work, "spans.tsv"))
        with open(os.path.join(work, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.table(), fh, indent=1)
        for name in absent:
            print(f"absent: {name} (no such function in this version of the program)")
        print(f"spans: {tracer.n_spans} recorded, {len(tracer.span_name)} kept in "
              f"{os.path.join(work, 'spans.tsv')}")
        print(f"plain pass {plain_s:.3f} s, traced pass {sum(passes[1].seconds):.3f} s")

    failed, problems = judge(wl.ops, passes)
    attempted = len(wl.ops) * len(passes)
    for problem in problems:
        print(f"FAIL {problem}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(setup_host_s="s", wall_s="s", sim_steps_per_s="steps/s",
                 cells_per_s="cells/s", legs_over_bound_frac="fraction", error_rate="fraction")
    shown = {**metrics, **figures, "error_rate": failed / attempted}
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(wl.ops)} operations, {failed} failed")
    for index, op in enumerate(wl.ops):
        times = [p.seconds[index] for p in passes]
        print(f"  op {op.name}: median {statistics.median(times):.4f} s")
    for name, value in shown.items():
        print(f"metric {name} = {value!r} {units.get(name, '')}")
    names = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
