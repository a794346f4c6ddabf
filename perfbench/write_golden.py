"""Regenerate perfbench/golden.json from the program as it stands.

    python3 perfbench/write_golden.py

Records the sha256 of every output the benchmark pins: trace.csv,
ledger.json and result.json of the bundled scripted scenarios, and plan.json
of the bundled planning scenario.  Run it only in a change that alters these
outputs on purpose, and say why in CHANGES.md.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from flydrive import cli  # noqa: E402

from workloads import BUNDLED_MISSIONS, SIM_OUTPUTS, sha256_file  # noqa: E402


def main() -> None:
    work = os.path.join(HERE, "_work", "golden")
    shutil.rmtree(work, ignore_errors=True)
    golden = {"simulate": {}, "plan": {}}
    for name in BUNDLED_MISSIONS:
        out = os.path.join(work, name)
        if cli.main(["simulate", name, "--out", out]) != 0:
            raise SystemExit(f"simulate {name} failed")
        golden["simulate"][name] = {f: sha256_file(os.path.join(out, f)) for f in SIM_OUTPUTS}
    out = os.path.join(work, "multimodal-obstacle")
    if cli.main(["plan", "multimodal-obstacle", "--out", out]) != 0:
        raise SystemExit("plan multimodal-obstacle failed")
    golden["plan"]["multimodal-obstacle"] = {"plan.json": sha256_file(os.path.join(out, "plan.json"))}
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
