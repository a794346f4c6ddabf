"""References for the rotor-map kernel: the inverse lookup `command_at`,
the fused lookup as `command_at` then `thrust_at`, and the ground thrust
allocation as it was written before it became one call per side
(`dynamics.ground_allocator`): the four commands first, then each rotor's
thrust looked up on its own and summed into the net force and moment. The
differential tests in test_vehicle.py and test_dynamics.py compare the
kernel with them bit for bit, and what either raises by `outcome`.
"""

from __future__ import annotations

from flydrive.vehicle import ThrustSaturationError, interp


def command_at(rotor, thrust):
    """The command whose `rotor.thrust_at` is `thrust` (monotone curves
    make the inverse well-defined), raising on a thrust out of range."""
    if thrust < 0:
        raise ValueError(f"thrust {thrust} must be >= 0")
    if thrust > rotor._saturation:
        raise ThrustSaturationError(
            f"thrust {thrust:.3f} N exceeds max {rotor.max_thrust:.3f} N"
        )
    return interp(thrust, rotor.thrusts, rotor.commands, rotor._command_slopes)


def reference_realise(rotor, thrust):
    """`rotor.realise(thrust)` as two lookups."""
    command = command_at(rotor, thrust)
    return command, rotor.thrust_at(command)


def reference_ground_allocation(params, rotor, f_long_n, yaw_moment_nm):
    """`dynamics.ground_allocator(params, rotor)(f_long_n, yaw_moment_nm)`:
    (fl, fr, rl, rr, net force N, net moment N m)."""
    f_max = rotor.max_thrust
    b = params.wheel_contact_half_spacing_lat
    f_long = max(-2.0 * f_max, min(2.0 * f_max, f_long_n))
    delta = yaw_moment_nm / (2.0 * b)
    headroom = f_max - abs(f_long) / 2.0
    delta = max(-headroom, min(headroom, delta))
    left = f_long / 2.0 - delta
    right = f_long / 2.0 + delta
    fl = fr = rl = rr = 0.0
    if left >= 0.0:
        rl = command_at(rotor, min(left, f_max))
    else:
        fl = command_at(rotor, min(-left, f_max))
    if right >= 0.0:
        rr = command_at(rotor, min(right, f_max))
    else:
        fr = command_at(rotor, min(-right, f_max))
    t_fl, t_fr, t_rl, t_rr = map(rotor.thrust_at, (fl, fr, rl, rr))
    net_left = t_rl - t_fl
    net_right = t_rr - t_fr
    return fl, fr, rl, rr, net_left + net_right, b * (net_right - net_left)


def outcome(fn, *args):
    """repr of fn(*args) (which tells -0.0 from 0.0 and keeps every bit of
    a float), or the type and message of the ValueError it raises."""
    try:
        return ("ok", repr(fn(*args)))
    except ValueError as exc:
        return (type(exc).__name__, str(exc))
