"""Seeded fuzzing of the command line: valid-shape scenarios, extreme values.

Each seed builds one scenario whose keys and kinds are all valid: a scripted
run for `simulate`, or a planner query on a grid of 1 to 6 cells a side for
`plan`, with and without `--validate`. Its numbers are mostly ordinary; now
and then one is one of `EXTREMES`, 0 or -1, and each seed sets one numeric
key at one of `EXTREMES`, in turn, so the seeds cover every such pair.
Every command runs in-process through `cli.main` under `signal.alarm`, and:

- returns 0, 1 or 2 and raises nothing (a traceback would be a defect);
- on exit 2, prints a message naming scn.json and a key path, and leaves
  no `--out`;
- on exit 0 or 1, `simulate` leaves exactly its three outputs, with no
  temporary file beside them.

The seeds are a fixed list. A case that finds a defect is mended in the
program, never dropped or re-seeded, and stays below as a fixed case.
"""

import contextlib
import io
import json
import os
import random
import re
import signal

import pytest

from flydrive.cli import EXIT_INPUT, EXIT_OK, EXIT_VALIDATION, main

SEEDS = range(300)
EXTREMES = (1e308, -1e308, 1e-300)
ALARM_S = 30  # per command; each takes well under a second
SIM_OUTPUTS = ["ledger.json", "result.json", "trace.csv"]
# "error: scn.json: <key path>: <message>"
KEYED = re.compile(r"error: scn\.json: [a-z_]\S*: ")

# Each numeric key a scenario can set (lists of numbers as one key) and its
# ordinary range; keys under `script[]` and `batteries[]` are per entry.
VEHICLE = {"empty_mass": (2.0, 3.2), "mtom": (3.5, 5.0),
           "wheel_contact_half_spacing_long": (0.2, 0.35),
           "wheel_contact_half_spacing_lat": (0.2, 0.35), "com_height": (0.1, 0.25),
           "gravity": (9.0, 10.5), "rolling_resistance_coeff": (0.0, 0.1),
           "wall_friction_coeff": (0.3, 1.0), "lateral_friction_coeff": (0.3, 1.0),
           "yaw_inertia": (0.1, 0.5)}
BATTERY = {"capacity_ah": (1.0, 6.0), "nominal_cell_voltage": (3.5, 4.2),
           "soc": (0.3, 1.0), "usable_fraction": (0.5, 1.0)}
POWER_MODEL = {"hover_power_w": (400.0, 700.0), "wall_wake_factor": (1.0, 2.5),
               "flight_power_w": (600.0, 1000.0),
               "ground_calibration": None}  # both numbers of each point, see `_common`
SURFACE = {"slope_deg": (0.0, 40.0), "rolling_resistance": (0.0, 0.1),
           "lateral_friction": (0.3, 1.0)}
INITIAL = {"position_m": (-5.0, 5.0), "heading_deg": (-180.0, 180.0),
           "height_m": (0.0, 5.0), "tilt_deg": (100.0, 170.0)}
SCRIPT = {"t_s": (0.0, 2.0), "speed_mps": (-4.1, 4.1), "yaw_rate_radps": (-1.0, 1.0),
          "target_position_m": (-10.0, 10.0), "target_yaw_deg": (-360.0, 360.0)}
VALIDATION = {"steady_speed_mps": (0.0, 4.0), "max_speed_error_frac": (0.0, 0.2),
              "min_distance_m": (0.0, 5.0), "max_leg_deviation_frac": (0.0, 0.3),
              "expect_wall_tilt_deg": (100.0, 170.0)}
PLANNER = {"cell_size_m": (0.5, 5.0), "elevation_m": (0.0, 3.0),
           "drive_speed_mps": (0.1, 4.1), "fly_speed_mps": (1.0, 8.0),
           "transition_energy_wh": (0.0, 2.0), "transition_time_s": (0.0, 8.0),
           "slope_margin_deg": (0.0, 10.0)}
TOP = {"payload_kg": (0.0, 1.3), "avionics_power_w": (0.0, 20.0), "duration_s": (0.0, 2.0)}
NUMERIC_KEYS = sorted(
    [*TOP, *(f"vehicle_overrides.{k}" for k in VEHICLE), *(f"batteries[].{k}" for k in BATTERY),
     *(f"power_model.{k}" for k in POWER_MODEL), *(f"surface.{k}" for k in SURFACE),
     *(f"initial.{k}" for k in INITIAL), *(f"script[].{k}" for k in SCRIPT),
     *(f"validation.{k}" for k in VALIDATION), *(f"planner.{k}" for k in PLANNER)])


SIM_ONLY = ("duration_s", "avionics_power_w", "surface.", "initial.", "script[].")


class _Draws:
    """The numbers of one seed's scenario, each recorded under its key. The
    seed picks one key that is always set and always drawn at one extreme,
    so the seeds cover every (key, extreme) pair."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.key = NUMERIC_KEYS[seed % len(NUMERIC_KEYS)]
        self.extreme = EXTREMES[seed // len(NUMERIC_KEYS) % len(EXTREMES)]
        self.drawn = set()  # (key, value)

    def has(self, key: str, share: float) -> bool:
        """Whether to set key (or, ending in "." or "[]", a block): always
        for the seed's key, else with probability share."""
        return self.rng.random() < share or self.key.startswith(key)

    def num(self, key: str, low: float, high: float) -> float:
        rng = self.rng
        if key == self.key:
            value = self.extreme
        elif rng.random() < 0.03:
            value = rng.choice((*EXTREMES, 0.0, -1.0))
        else:
            value = rng.uniform(low, high)
        self.drawn.add((key, value))
        return value

    def nums(self, key: str, n: int, span) -> list:
        return [self.num(key, *span) for _ in range(n)]

    def block(self, name: str, ranges: dict, share: float) -> dict:
        """Some of the keys of a block, each with probability share."""
        return {key: self.num(f"{name}.{key}", *span) for key, span in ranges.items()
                if self.has(f"{name}.{key}", share)}


def _common(d: _Draws) -> dict:
    """The blocks a scripted run and a planner query share."""
    rng = d.rng
    spec = {"name": "fuzz", "seed": rng.randrange(100)}
    payloads = ["0.0"]  # the payloads the power model is calibrated for
    if d.has("payload_kg", 0.3):
        spec["payload_kg"] = d.num("payload_kg", *TOP["payload_kg"])
        payloads.append(repr(spec["payload_kg"]))
    if d.has("vehicle_overrides.", 0.4):
        spec["vehicle_overrides"] = d.block("vehicle_overrides", VEHICLE, 0.3)
    if d.has("batteries[].", 0.3):
        ids = rng.sample(["prop_a", "prop_b", "electronics"], rng.randint(1, 3))
        spec["batteries"] = [{"battery_id": pid, "cells_series": rng.choice([2, 4, 6]),
                              "capacity_ah": d.num("batteries[].capacity_ah", 1.0, 6.0),
                              **d.block("batteries[]", BATTERY, 0.4)} for pid in ids]
    if len(payloads) > 1 or d.has("power_model.", 0.4):
        model = d.block("power_model", {k: POWER_MODEL[k] for k in
                                        ("hover_power_w", "wall_wake_factor")}, 0.5)
        if d.has("power_model.flight_power_w", 0.5):
            model["flight_power_w"] = {
                key: d.num("power_model.flight_power_w", *POWER_MODEL["flight_power_w"])
                for key in payloads}
        if len(payloads) > 1 or d.has("power_model.ground_calibration", 0.5):
            # two points about the default fit's (1.0 m/s, 29.8 W) and (4.1 m/s, 171.4 W)
            point = ((0.9, 1.1), (25.0, 35.0)), ((3.9, 4.3), (150.0, 190.0))
            model["ground_calibration"] = {
                key: [[d.num("power_model.ground_calibration", *span) for span in pair]
                      for pair in point] for key in payloads}
        spec["power_model"] = model
    if d.has("validation.", 0.4):
        spec["validation"] = d.block("validation", VALIDATION, 0.3)
    return spec


def _script(d: _Draws) -> list:
    """0 to 4 entries, at increasing times unless a time is drawn; the
    seed's key, if a script key, is set in every entry."""
    rng, script, t = d.rng, [], 0.0
    forced = d.key.startswith("script[].")
    for _ in range(rng.randint(1 if forced else 0, 4)):
        entry = {"t_s": d.num("script[].t_s", *SCRIPT["t_s"]) if d.has("script[].t_s", 0.1)
                 else t}
        if rng.random() < 0.3:
            entry["transition_to"] = rng.choice(["ground", "flight", "incline", "wall"])
        if forced and d.key != "script[].t_s" or rng.random() < 0.8:
            entry["mode"] = rng.choice(["ground", "ground", "flight", "incline", "wall"])
            for key in ("speed_mps", "yaw_rate_radps", "target_yaw_deg"):
                if d.has(f"script[].{key}", 0.4):
                    entry[key] = d.num(f"script[].{key}", *SCRIPT[key])
            if d.key == "script[].target_position_m":
                entry["mode"] = "flight"
            if entry["mode"] == "flight" and d.has("script[].target_position_m", 0.7):
                entry["target_position_m"] = d.nums("script[].target_position_m", 3,
                                                    SCRIPT["target_position_m"])
        script.append(entry)
        t += rng.uniform(0.01, 1.5)
    return script


def _simulation(d: _Draws) -> dict:
    rng, spec = d.rng, _common(d)
    spec["duration_s"] = d.num("duration_s", *TOP["duration_s"])
    if d.has("avionics_power_w", 0.3):
        spec["avionics_power_w"] = d.num("avionics_power_w", *TOP["avionics_power_w"])
    if d.has("surface.", 0.5):
        spec["surface"] = {"kind": rng.choice(["flat", "incline", "wall"]),
                           **d.block("surface", SURFACE, 0.5)}
    if d.has("initial.", 0.5):
        initial = {"mode": rng.choice(["ground", "incline", "wall", "flight"]),
                   **d.block("initial", {k: INITIAL[k] for k in
                                         ("heading_deg", "height_m", "tilt_deg")}, 0.4)}
        if d.has("initial.position_m", 0.4):
            initial["position_m"] = d.nums("initial.position_m", 2, INITIAL["position_m"])
        spec["initial"] = initial
    spec["script"] = _script(d)
    return spec


def _planning(d: _Draws) -> dict:
    rng, spec = d.rng, _common(d)
    width, height = rng.randint(1, 6), rng.randint(1, 6)
    cells = [[r, c] for r in range(height) for c in range(width)]
    terrain = {"width": width, "height": height,
               "cell_size_m": d.num("planner.cell_size_m", *PLANNER["cell_size_m"])}
    if d.has("planner.elevation_m", 0.7):
        terrain["elevation_m"] = d.nums("planner.elevation_m", width * height,
                                        PLANNER["elevation_m"])
    for key in ("obstacles", "no_fly"):
        terrain[key] = rng.sample(cells, rng.randint(0, len(cells) // 3))
    spec["planner"] = {"terrain": terrain, "start_cell": rng.choice(cells),
                       "goal_cell": rng.choice(cells),
                       **d.block("planner", {k: PLANNER[k] for k in PLANNER
                                             if k not in ("cell_size_m", "elevation_m")}, 0.3)}
    return spec


def _case(seed: int):
    """(command, scenario, the (key, value) of each number drawn) of a seed."""
    d = _Draws(seed)
    planning = (d.key.startswith("planner.")
                or not d.key.startswith(SIM_ONLY) and d.rng.random() < 0.5)
    spec = _planning(d) if planning else _simulation(d)
    return ("plan" if planning else "simulate"), spec, d.drawn


class _Alarm(Exception):
    pass


def _raise_alarm(signum, frame):
    raise _Alarm(f"no exit within {ALARM_S} s")


def _run(argv: list):
    """main(argv) under the alarm: (exit code, stderr)."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return rc, err.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_scenario_exits_cleanly(tmp_path, seed):
    command, spec, _ = _case(seed)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    runs = [["simulate", "--dt-s", "0.01"]] if command == "simulate" else [
        ["plan"], ["plan", "--validate"]]
    for n, (name, *flags) in enumerate(runs):
        out = tmp_path / f"out{n}"
        rc, err = _run([name, str(path), *flags, "--out", str(out)])
        case = f"seed {seed}, {name} {' '.join(flags)}: {spec}"
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_INPUT), case
        assert "Traceback" not in err, case
        if rc == EXIT_INPUT:
            assert KEYED.match(err), f"{case}\n{err}"
            assert not out.exists(), case
        elif name == "simulate":
            assert sorted(os.listdir(out)) == SIM_OUTPUTS, case


def test_every_numeric_key_meets_every_extreme():
    """Across the seeds, each numeric key is drawn at +-1e308 and 1e-300."""
    drawn = set().union(*(_case(seed)[2] for seed in SEEDS))
    missing = [(key, value) for key in NUMERIC_KEYS for value in EXTREMES
               if (key, value) not in drawn]
    assert missing == []


_DRIVE = {"name": "found", "duration_s": 2.0}
_TAKE_OFF = [{"t_s": 0.0, "transition_to": "flight", "mode": "flight",
              "target_position_m": [0.0, 0.0, 2.0]}]

# The defects this generator found, with the seeds above and with more
# seeds and steps, each now an exit 2 naming its key or a run that ends in
# a fault, exit 1:
# (scenario, exit code, what stderr or the fault reason starts with)
FOUND = [
    # a wall start's tilt went unchecked to the run's first row
    ({**_DRIVE, "initial": {"mode": "wall", "tilt_deg": 1e308}}, EXIT_INPUT,
     "error: scn.json: initial.tilt_deg: tilt 1e+308 outside (90, 180] deg"),
    ({**_DRIVE, "initial": {"mode": "wall", "tilt_deg": 1e-300}}, EXIT_INPUT,
     "error: scn.json: initial.tilt_deg: tilt 1e-300 outside (90, 180] deg"),
    ({**_DRIVE, "initial": {"mode": "wall", "tilt_deg": 158.35}}, EXIT_INPUT,
     "error: scn.json: initial.tilt_deg: thrust 19.4"),
    # the first row's wall power overflowed: a traceback
    ({**_DRIVE, "initial": {"mode": "wall"}, "power_model": {"wall_wake_factor": 1e308}},
     EXIT_INPUT, "error: scn.json: power_model.wall_wake_factor: 1e+308 makes the wall power"),
    # a pack energy that underflows to 0 divided by zero: a traceback
    ({**_DRIVE, "batteries": [{"battery_id": "prop_a", "cells_series": 2,
                               "capacity_ah": 1e-300, "nominal_cell_voltage": 1e-300}]},
     EXIT_INPUT, "error: scn.json: batteries[0].capacity_ah: 1e-300 makes a pack energy of 0.0"),
    # kp times a position error of 1e308 m overflowed to a NaN thrust command
    ({**_DRIVE, "initial": {"position_m": [0.0, 1e308]}, "script": _TAKE_OFF}, EXIT_VALIDATION,
     "non-finite value in integration step"),
    # a yaw rate that overflowed to an infinite heading: cos(inf) raised
    ({**_DRIVE, "vehicle_overrides": {"wheel_contact_half_spacing_lat": 1e308},
      "script": [{"t_s": 0.0, "mode": "ground", "yaw_rate_radps": 1e308}]}, EXIT_VALIDATION,
     "non-finite value in integration step"),
    # entering a mode the power model cannot price raised out of the run
    ({**_DRIVE, "vehicle_overrides": {"rolling_resistance_coeff": 1e308},
      "script": [{"t_s": 0.0, "transition_to": "wall"}]}, EXIT_VALIDATION,
     "cannot enter wall mode: wall climb not feasible at tilt 135.0 deg"),
    # incline mode on a wall's foot was priced up a slope of -1e308 deg and
    # faulted with "cannot enter incline mode: thrust -"; only an incline
    # has a slope now
    ({**_DRIVE, "surface": {"kind": "wall", "slope_deg": -1e308},
      "script": [{"t_s": 0.0, "transition_to": "incline"}]}, EXIT_INPUT,
     "error: scn.json: surface.slope_deg: must be in [0, 90) deg on an incline, and 0 elsewhere"),
]


@pytest.mark.parametrize("spec, rc, message", FOUND, ids=range(len(FOUND)))
def test_found_case_exits_cleanly(tmp_path, spec, rc, message):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run(["simulate", str(path), "--dt-s", "0.01", "--out", str(out)])
    assert code == rc, err
    if rc == EXIT_INPUT:
        assert err.startswith(message)
        assert not out.exists()
    else:
        assert json.loads((out / "result.json").read_text())["fault_reason"].startswith(message)
