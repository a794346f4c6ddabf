"""Smoke test of the scripts under scripts/: each runs in its own Python
process, with PYTHONPATH at src/, and exits 0, or on a bad flag exits 2
through argparse with a message naming the flag."""

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


@pytest.mark.parametrize("script, flag, value", [
    ("tilt_sweep.py", "--step-deg", "1e-9"),  # once a scan of 9e10 tilts
    ("tilt_sweep.py", "--step-deg", "0"),
    ("tilt_sweep.py", "--step-deg", "-1"),
    ("tilt_sweep.py", "--step-deg", "nan"),  # once an empty table and exit 0
    ("tilt_sweep.py", "--step-deg", "inf"),
    ("tilt_sweep.py", "--step-deg", "90.5"),
    ("tilt_sweep.py", "--payload-kg", "5"),  # over the MTOM
    ("power_report.py", "--payload-kg", "1.0"),  # no ground calibration
    ("power_report.py", "--payload-kg", "2.0"),  # over the MTOM
    ("power_report.py", "--payload-kg", "nan"),
    ("power_report.py", "--payload-kg", "-1"),
])
def test_bad_flag_exits_2(tmp_path, script, flag, value):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    argv = [sys.executable, os.path.join(ROOT, "scripts", script), f"{flag}={value}"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=20)
    assert done.returncode == 2, done.stderr
    assert f"error: {flag} " in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
