#!/usr/bin/env python3
"""Sweep the axle tilt across the wall-climb range and report feasibility.

For each tilt in (90, 180) degrees: whether the vehicle stays pressed to the
wall, the total thrust a steady climb needs, and the electrical power that
costs. Marks the optimum and the working angle used by the bundled scenario.

Usage: python scripts/tilt_sweep.py [--payload-kg X] [--step-deg D]
"""

import argparse
import sys

from flydrive import statics
from flydrive.defaults import default_params, default_power_model, default_rotor


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--payload-kg", type=float, default=0.0)
    ap.add_argument("--step-deg", type=float, default=5.0)
    args = ap.parse_args(argv)
    if not 0.01 <= args.step_deg <= 90.0:  # NaN included
        ap.error(f"--step-deg {args.step_deg} must be finite and within [0.01, 90] deg")

    params = default_params()
    rotor = default_rotor()
    model = default_power_model()
    available = 4.0 * rotor.max_thrust

    try:
        best = statics.optimal_wall_tilt(params, rotor, payload=args.payload_kg)
    except ValueError as exc:  # a payload the vehicle cannot carry
        ap.error(f"--payload-kg {args.payload_kg}: {exc}")
    print(f"payload {args.payload_kg} kg, available thrust {available:.1f} N")
    print(f"{'tilt [deg]':>10} {'attached':>9} {'climbable':>10} "
          f"{'thrust [N]':>11} {'power [W]':>10}")

    tilt = 90.0 + args.step_deg
    while tilt < 180.0:
        result = statics.wall_climb_analysis(
            params, tilt, climbing=True, rotor=rotor, payload=args.payload_kg
        )
        if result.attached and result.climb_feasible:
            power = f"{model.wall_power(tilt, args.payload_kg):10.1f}"
        else:
            power = f"{'-':>10}"
        marker = ""
        if abs(tilt - best) < args.step_deg / 2:
            marker = "  <- optimum"
        elif tilt == 135.0:
            marker = "  <- scenario angle"
        print(
            f"{tilt:10.1f} {str(result.attached):>9} {str(result.climb_feasible):>10} "
            f"{result.required_thrust:11.2f} {power}{marker}"
        )
        tilt += args.step_deg

    at_best = statics.wall_climb_analysis(
        params, best, climbing=True, rotor=rotor, payload=args.payload_kg
    )
    print(f"\noptimal tilt {best:.4f} deg needs {at_best.required_thrust:.2f} N")
    return 0


if __name__ == "__main__":
    sys.exit(main())
