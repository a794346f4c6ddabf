#!/usr/bin/env python3
"""Print the power and endurance picture for the default vehicle.

Sweeps ground speed, tabulates per-mode power draw, and reports the
flight-vs-ground endurance ratios and range estimates the energy model is
calibrated to hit. Useful as a quick sanity read after touching the
calibration constants.

Usage: python scripts/power_report.py [--payload-kg X] [--csv out.csv]
"""

import argparse
import csv
import sys

from flydrive.defaults import default_batteries, default_power_model
from flydrive.energy import endurance_ratio, mode_power, range_estimate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--payload-kg", type=float, default=0.0)
    ap.add_argument("--csv", default=None, help="also write the sweep as CSV")
    args = ap.parse_args(argv)

    model = default_power_model()
    batteries = default_batteries()
    payload = args.payload_kg

    speeds = [0.25 * i for i in range(1, 18)]  # 0.25 .. 4.25 m/s
    fixed = (
        ("hover", {"mode": "hover"}),
        ("flight cruise", {"mode": "flight"}),
        ("wall climb 135 deg", {"mode": "wall", "tilt_deg": 135.0}),
    )
    try:  # every figure is computed before any is printed
        rows = [
            {
                "speed_mps": v,
                "ground_w": model.ground_power(v, payload),
                "incline33_w": model.incline_power(33.0, v, payload),
                "endurance_ratio": endurance_ratio(model, payload, v),
                "range_km": range_estimate(model, batteries, "ground", v, payload)
                / 1000.0,
            }
            for v in speeds
        ]
        draws = [(label, mode_power(model, payload=payload, **kwargs)) for label, kwargs in fixed]
    except ValueError as exc:  # a payload the model has no calibration for, or too heavy
        ap.error(f"--payload-kg {payload}: {exc}")

    print(f"payload {payload} kg")
    print(f"{'v [m/s]':>8} {'ground [W]':>11} {'33 deg [W]':>11} "
          f"{'fly/drive':>10} {'range [km]':>11}")
    for r in rows:
        print(
            f"{r['speed_mps']:8.2f} {r['ground_w']:11.1f} {r['incline33_w']:11.1f} "
            f"{r['endurance_ratio']:10.1f} {r['range_km']:11.2f}"
        )

    print()
    print("fixed-state power draw:")
    for label, watts in draws:
        print(f"  {label:<20} {watts:8.1f} W")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
