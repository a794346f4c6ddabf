"""`flydrive simulate` streams the trace to disk: the same bytes as a run
that keeps its rows in a list, memory that does not grow with the run, and
no partial outputs when a run fails."""

import json
import tracemalloc

import pytest

from flydrive.cli import EXIT_INPUT, EXIT_VALIDATION, bundled_scenarios, main
from flydrive.scenario import load_scenario, run_scenario
from flydrive.simulator import TRACE_HEADER
from test_mission_outputs import ENDURANCE, MIXED_FLIGHT

SIM_OUTPUTS = ["ledger.json", "result.json", "trace.csv"]
LONG_DRIVE = {
    "name": "long-drive",
    "surface": {"kind": "flat"},
    "script": [{"t_s": 0.0, "mode": "ground", "speed_mps": 1.0}],
    "duration_s": 3000.0,
    "validation": {"forbid_faults": False},
}


def _write(tmp_path, spec) -> str:
    path = tmp_path / f"{spec['name']}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def _simulation_scenarios():
    bundled = [(name, path, ()) for name, path in bundled_scenarios().items()
               if not load_scenario(path).is_planning]
    return bundled + [("mixed-flight", MIXED_FLIGHT, ()),
                      ("mixed-flight-every-step", MIXED_FLIGHT, ("--decimation", "1")),
                      ("endurance-fault", ENDURANCE, ("--dt-s", "0.02"))]


@pytest.mark.parametrize("name, scenario, flags", _simulation_scenarios(),
                         ids=[case[0] for case in _simulation_scenarios()])
def test_streamed_trace_matches_the_rows_of_a_list_run(tmp_path, name, scenario, flags):
    path = scenario if isinstance(scenario, str) else _write(tmp_path, scenario)
    out = tmp_path / "out"
    main(["simulate", path, *flags, "--out", str(out)])
    options = dict(zip(flags[::2], flags[1::2]))
    result = run_scenario(load_scenario(path), dt_s=float(options.get("--dt-s", 0.001)),
                          trace_decimation=int(options.get("--decimation", 10)))
    assert isinstance(result.rows, list)
    listed = ",".join(TRACE_HEADER) + "\n" + "".join(result.rows)
    assert (out / "trace.csv").read_bytes() == listed.encode("utf-8")
    if name == "endurance-fault":
        assert result.faulted
    assert sorted(p.name for p in out.iterdir()) == SIM_OUTPUTS


def test_long_drive_runs_in_bounded_memory(tmp_path):
    """15 001 rows, 2.6 MB of trace, under 1 MB of Python allocations at
    their peak; a run that kept its rows peaked at 3.7 MB."""
    path = _write(tmp_path, LONG_DRIVE)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["simulate", path, "--dt-s", "0.02", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trace = (out / "trace.csv").read_bytes()
    assert trace.count(b"\n") == 1 + 15_001
    assert len(trace) > 2_500_000
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("out_parts", [("out",), ("out", "a", "b")], ids=["out", "nested"])
def test_input_error_inside_the_run_leaves_no_out(tmp_path, capsys, out_parts):
    # the flight law refuses a flight with no target once the tilt ends, 1 s
    # and 1 000 rows into the run: several chunks have reached the file
    path = _write(tmp_path, {"name": "no-target", "duration_s": 3.0,
                             "script": [{"t_s": 0.0, "transition_to": "flight"}]})
    out = tmp_path.joinpath(*out_parts)
    assert main(["simulate", path, "--decimation", "1", "--out", str(out)]) == EXIT_INPUT
    assert "no-target.json: script[0].target_position_m: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_input_error_leaves_an_existing_out_as_it_was(tmp_path):
    path = _write(tmp_path, {"name": "no-target", "duration_s": 3.0,
                             "script": [{"t_s": 0.0, "transition_to": "flight"}]})
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept", encoding="utf-8")
    assert main(["simulate", path, "--out", str(out)]) == EXIT_INPUT
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_faulted_run_leaves_exactly_its_outputs(tmp_path):
    # both packs trip: a fault, and exit 1 where the scenario forbids faults
    path = _write(tmp_path, {**ENDURANCE, "validation": {"forbid_faults": True}})
    out = tmp_path / "out"
    assert main(["simulate", path, "--dt-s", "0.02", "--out", str(out)]) == EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == SIM_OUTPUTS
    assert json.loads((out / "result.json").read_text())["faulted"]
