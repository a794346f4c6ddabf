"""Byte-level pins for flight, transition and endurance runs, plus the
endurance range against the energy model and the paper's full-pack ranges
at 1 m/s and 4.1 m/s.

Criterion 9 pins the bundled scenarios, which drive on the ground, on an
incline and on a wall; no bundled run flies, tilts through a transition or
drains a pack to its protection floor. The two inline scenarios here cover
those paths through `flydrive simulate`.
"""

import copy
import hashlib
import json
import math

import pytest

from flydrive.cli import EXIT_OK, main
from flydrive.defaults import USABLE_FRACTION, default_params
from flydrive.energy import range_estimate
from flydrive.scenario import load_scenario

# Drive, stop, take off to a fixed waypoint, land on the spot, drive on.
MIXED_FLIGHT = {
    "name": "mixed-flight",
    "surface": {"kind": "flat"},
    "script": [
        {"t_s": 0.0, "mode": "ground", "speed_mps": 1.0},
        {"t_s": 3.0, "mode": "ground", "speed_mps": 0.0},
        {"t_s": 5.0, "transition_to": "flight", "mode": "flight",
         "target_position_m": [8.0, 2.0, 3.0]},
        {"t_s": 13.0, "mode": "flight",
         "target_position_m": [8.0, 2.0, default_params().com_height]},
        {"t_s": 19.0, "transition_to": "ground"},
        {"t_s": 21.0, "mode": "ground", "speed_mps": 1.0},
    ],
    "duration_s": 24.0,
}

# 1 m/s on propulsion packs 0.3 % of charge above their protection floor:
# both trip after about 54 m, 2.7k steps at dt 0.02 s.
ENDURANCE = {
    "name": "endurance-short",
    "surface": {"kind": "flat"},
    "batteries": [
        *({"battery_id": pid, "cells_series": 4, "capacity_ah": 5.0,
           "usable_fraction": USABLE_FRACTION, "soc": (1.0 - USABLE_FRACTION) + 0.003}
          for pid in ("prop_a", "prop_b")),
        {"battery_id": "electronics", "cells_series": 2, "capacity_ah": 3.2,
         "usable_fraction": 0.8},
    ],
    "script": [{"t_s": 0.0, "mode": "ground", "speed_mps": 1.0}],
    "duration_s": 120.0,
    "validation": {"forbid_faults": False},
}

# The default packs, full, at 1 m/s: both propulsion packs trip after about
# 11.5 km, 575k steps at dt 0.02 s.
FULL_PACK = {
    "name": "full-pack-range",
    "surface": {"kind": "flat"},
    "script": [{"t_s": 0.0, "mode": "ground", "speed_mps": 1.0}],
    "duration_s": 13000.0,
    "validation": {"forbid_faults": False},
}

# Regenerate only in a change that states on purpose that it alters
# behaviour, and record why in CHANGES.md.
GOLDEN_SHA256 = {
    ("mixed-flight", "trace.csv"): "9c69bf5a22b0a6a17bb0211f38d09a29408cc2ac5a8da7dc981115dafe494678",
    ("mixed-flight", "ledger.json"): "57ccac038f14c189b0ecea302bfb078b6d2f9a499e029b8b97c7f813493e4eab",
    ("mixed-flight", "result.json"): "4ab210cb7a0e466d3ebb60fc7ec9dd3902bd81d79fed87c8bcf7af13c5b88277",
    ("endurance-short", "trace.csv"): "0fc37e57914c462824160334eee481254bf4d4efc44ebbd05a6154d5d5321d1d",
    ("endurance-short", "ledger.json"): "2230c2f614ae468ad856dfb8b4e342add6e9a7fb0aa15200c6837ee868ef93bd",
    ("endurance-short", "result.json"): "785a570b30286650b99ded34bba7460696d772d294e6d175180c1e8401894573",
}


def _simulate(tmp_path, scenario, *extra):
    path = tmp_path / f"{scenario['name']}.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = tmp_path / scenario["name"]
    rc = main(["simulate", str(path), "--out", str(out), *extra])
    return rc, path, out


def test_flight_transition_and_endurance_outputs_pinned(tmp_path):
    for scenario, extra in ((MIXED_FLIGHT, ()), (ENDURANCE, ("--dt-s", "0.02"))):
        rc, _, out = _simulate(tmp_path, scenario, *extra)
        assert rc == EXIT_OK, scenario["name"]
        for fname in ("trace.csv", "ledger.json", "result.json"):
            digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
            assert digest == GOLDEN_SHA256[(scenario["name"], fname)], (scenario["name"], fname)
    events = json.loads((tmp_path / "mixed-flight" / "result.json").read_text())["events"]
    assert [(e["kind"], e["detail"]) for e in events] == [
        ("transition_started", "flight"), ("transition_complete", "flight"),
        ("transition_started", "ground"), ("transition_complete", "ground"),
    ]


def test_endurance_range_matches_usable_energy(tmp_path):
    rc, path, out = _simulate(tmp_path, ENDURANCE, "--dt-s", "0.02")
    assert rc == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    tripped = sorted(e["detail"] for e in result["events"] if e["kind"] == "battery_protection")
    assert tripped == ["prop_a", "prop_b"]
    scenario = load_scenario(str(path))
    energy_wh = sum(b.remaining_usable_wh for b in scenario.batteries if b.is_propulsion)
    expected_m = energy_wh / scenario.power_model.ground_power(1.0) * 3600.0
    x, y, _ = result["final_state"]["position_m"]
    assert math.hypot(x, y) == pytest.approx(expected_m, rel=0.01)


def _full_pack_drive(tmp_path, speed_mps):
    """Distance (m) driven at speed_mps until both full packs trip, and the
    energy-based range at that speed."""
    scenario = copy.deepcopy(FULL_PACK)
    scenario["script"][0]["speed_mps"] = speed_mps
    rc, path, out = _simulate(tmp_path, scenario, "--dt-s", "0.02")
    assert rc == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    tripped = sorted(e["detail"] for e in result["events"] if e["kind"] == "battery_protection")
    assert tripped == ["prop_a", "prop_b"]
    loaded = load_scenario(str(path))
    expected_m = range_estimate(loaded.power_model, list(loaded.batteries), "ground", speed_mps)
    x, y, _ = result["final_state"]["position_m"]
    return math.hypot(x, y), expected_m


def test_full_pack_range_reaches_paper_figure(tmp_path):
    driven_m, expected_m = _full_pack_drive(tmp_path, 1.0)
    assert driven_m == pytest.approx(expected_m, rel=0.01)
    assert driven_m == pytest.approx(11500.0, rel=0.05)  # the paper's range


def test_full_pack_range_at_4_1_mps_reaches_paper_figure(tmp_path):
    # both packs trip after about 8.2 km, 100k steps at dt 0.02 s
    driven_m, expected_m = _full_pack_drive(tmp_path, 4.1)
    assert driven_m == pytest.approx(expected_m, rel=0.01)
    assert driven_m == pytest.approx(8200.0, rel=0.05)  # the paper's range at 4.1 m/s
