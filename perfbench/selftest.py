"""Self-test: run every workload once at its minimal size, plain and traced.

    python3 perfbench/selftest.py

Asserts that each run exits 0, that its last line is the result object with
exactly `correct`, `attempted`, `failed` and `metrics`, that every output
check passed, and that every metric BENCHMARK.json names for the mode is
present with its unit.  Exits 1 on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload: str, trace: int, expected: dict) -> list:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        fails = [line for line in done.stdout.splitlines() if line.startswith("FAIL")]
        problems.append(f"output checks failed: {fails}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted is {result.get('attempted')!r}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"metrics missing {missing}, unexpected {extra}, wrong unit {wrong}")
    bad = [n for n, m in result.get("metrics", {}).items()
           if not isinstance(m.get("value"), (int, float))]
    if bad:
        problems.append(f"non-numeric values for {bad}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            problems = check_run(workload, trace, expected)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            status = status or (1 if problems else 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
