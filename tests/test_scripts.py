"""Smoke test of the scripts under scripts/: each runs in its own Python
process, with PYTHONPATH at src/, and exits 0."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("power_report.py", []),
    ("tilt_sweep.py", []),
    ("run_bundled_scenarios.py", ["--out", "{tmp}"]),
], ids=["power_report", "tilt_sweep", "run_bundled_scenarios"])
def test_script_exits_0(tmp_path, script, args):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    argv = [sys.executable, os.path.join(ROOT, "scripts", script),
            *(a.format(tmp=tmp_path) for a in args)]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
