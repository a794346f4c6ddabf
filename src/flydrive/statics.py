"""Closed-form static analyses: thrust decomposition for the conventional
pitch-coupled baseline, incline equilibrium and tipping for the tilt design,
and wall-climb attachment/feasibility."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fields
from .vehicle import RotorModel, VehicleParams

# Minimum wall-normal force for attachment, as a fraction of vehicle weight.
# Zero normal force leaves no friction margin against lateral disturbance, so
# attachment requires a small positive bite. The analyses below and the wall
# law of a run (`dynamics._wall_law`) all read this one value.
ATTACH_NORMAL_FRACTION = 0.02


class InfeasibleTiltError(ValueError):
    """No wall tilt angle satisfies attachment and thrust limits."""


@dataclass(frozen=True)
class ForceDecomposition:
    f_parallel: float  # N, along the surface
    f_perpendicular: float  # N, into the surface
    pitch_angle: float  # deg


@dataclass(frozen=True)
class SlopeAnalysis:
    slope_angle: float  # deg
    required_total_thrust: float  # N, all four rotors combined
    tipping_margin: float  # deg to the tip limit
    feasible: bool


@dataclass(frozen=True)
class WallClimbAnalysis:
    tilt_angle: float  # deg; 0 flight orientation, 90 ground, >90 into wall
    required_thrust: float  # N total
    normal_force: float  # N pressing the wheels onto the wall
    attached: bool
    climb_feasible: bool


def decompose_thrust(total_thrust: float, pitch_deg: float) -> ForceDecomposition:
    """Split a pitched thrust vector into surface-parallel and -perpendicular
    parts: parallel = F sin(pitch), perpendicular = F cos(pitch)."""
    if not 0.0 <= total_thrust < math.inf:  # NaN fails too
        raise ValueError(f"total_thrust must be finite and >= 0, got {total_thrust!r}")
    if not 0.0 <= pitch_deg <= 90.0:
        raise ValueError(f"pitch {pitch_deg} outside [0, 90] deg")
    theta = math.radians(pitch_deg)
    return ForceDecomposition(
        f_parallel=total_thrust * math.sin(theta),
        f_perpendicular=total_thrust * math.cos(theta),
        pitch_angle=pitch_deg,
    )


def conventional_pitch_for_slope(slope_deg: float) -> float:
    """Pitch a conventional pitch-to-translate vehicle needs on a slope so its
    thrust stays parallel to the surface: 90 deg minus the slope."""
    if not 0.0 <= slope_deg <= 90.0:
        raise ValueError(f"slope {slope_deg} outside [0, 90] deg")
    return 90.0 - slope_deg


def tipping_slope(params: VehicleParams) -> float:
    """Slope angle (deg) at which the gravity line through the center of mass
    passes through the downhill wheel contact: atan(half spacing / COM height)."""
    return math.degrees(
        math.atan2(params.wheel_contact_half_spacing_long, params.com_height)
    )


def along_slope_force(m: float, g: float, psi: float, c_rr: float, direction: float) -> float:
    """Along-slope force (N) holding mass m on a slope of psi rad: m g sin(psi)
    plus c_rr m g cos(psi) times the sign of the motion (+1 up, 0 at rest)."""
    force = m * g * math.sin(psi)
    if direction:
        force += c_rr * m * g * math.cos(psi) * direction
    return force


def incline_equilibrium(
    params: VehicleParams,
    slope_deg: float,
    moving: bool,
    rotor: RotorModel | None = None,
    payload: float = 0.0,
) -> SlopeAnalysis:
    """Thrust needed to hold (or creep up) an incline with surface-parallel
    rotors (`along_slope_force`).

    Slopes at or past the tipping limit come back infeasible rather than
    raising. Without a rotor the thrust-availability check is skipped and
    feasibility reduces to the tipping bound.
    """
    if not 0.0 <= slope_deg <= 90.0:
        raise ValueError(f"slope {slope_deg} outside [0, 90] deg")
    tip_limit = tipping_slope(params)
    required = along_slope_force(params.total_mass(payload), params.gravity,
                                 math.radians(slope_deg), params.rolling_resistance_coeff,
                                 1.0 if moving else 0.0)
    feasible = slope_deg < tip_limit and (rotor is None or required <= 4.0 * rotor.max_thrust)
    return SlopeAnalysis(slope_deg, required, tip_limit - slope_deg, feasible)


def wall_required_thrust(m: float, g: float, gamma: float, resist: float,
                         direction: float = 1.0) -> float:
    """Total thrust (N) for vertical equilibrium on a wall: F cos(gamma)
    balances m g plus resist * F sin(gamma) times the sign of the motion
    (+1 up, 0 parked); inf where no thrust balances."""
    den = math.cos(gamma) - resist * math.sin(gamma) * direction
    return m * g / den if den > 0.0 else math.inf


def wall_climb_analysis(
    params: VehicleParams,
    tilt_deg: float,
    climbing: bool = True,
    rotor: RotorModel | None = None,
    payload: float = 0.0,
) -> WallClimbAnalysis:
    """Attachment and climb feasibility on a vertical wall.

    With gamma = tilt - 90 (angle between thrust and the wall plane), the
    wall-normal force is F sin(gamma). Steady climb balances
    F cos(gamma) = m g + C_rr F sin(gamma); static holding gets help from
    wheel friction instead: F cos(gamma) + mu F sin(gamma) = m g.

    Attached needs the normal force at least ATTACH_NORMAL_FRACTION of the
    weight and a non-negative anti-tip moment about the lower wheel pair
    (thrust resultant taken in the COM plane, same lever arms as ground
    tipping rotated 90 deg).
    """
    if not 90.0 < tilt_deg <= 180.0:
        raise ValueError(f"tilt {tilt_deg} outside (90, 180] deg")
    m = params.total_mass(payload)
    g = params.gravity
    gamma = math.radians(tilt_deg - 90.0)
    resist = params.rolling_resistance_coeff if climbing else -params.wall_friction_coeff
    required = wall_required_thrust(m, g, gamma, resist)
    if math.isinf(required):
        return WallClimbAnalysis(tilt_deg, math.inf, math.inf, False, False)
    normal = required * math.sin(gamma)
    # moment about the lower wheel contact line; positive presses the upper
    # wheels onto the wall
    h = params.com_height
    d = params.wheel_contact_half_spacing_long
    anti_tip = required * (h * math.cos(gamma) + d * math.sin(gamma)) - m * g * h
    attached = normal >= ATTACH_NORMAL_FRACTION * m * g and anti_tip >= 0.0
    feasible = attached and (rotor is None or required <= 4.0 * rotor.max_thrust)
    return WallClimbAnalysis(tilt_deg, required, normal, attached, feasible)


def optimal_wall_tilt(
    params: VehicleParams,
    rotor: RotorModel,
    payload: float = 0.0,
) -> float:
    """Tilt (deg) of least climb thrust that attaches and that the four
    rotors can give, else InfeasibleTiltError. With gamma = tilt - 90 the
    thrust m g / (cos gamma - C_rr sin gamma) rises on (0, 90) deg and the
    anti-tip moment, m g (d + h C_rr) sin gamma over the same, is >= 0, so
    the optimum is the least attached float: tan gamma = f / (1 + f C_rr)
    for the attach fraction f = ATTACH_NORMAL_FRACTION > 0, else the least
    float past 90."""
    f = ATTACH_NORMAL_FRACTION
    # an f <= 0 gives a tilt at or below 90 and an infinite f a NaN one,
    # both of which max drops; rounding moves it a few floats at most
    best = 90.0 + math.degrees(math.atan(f / (1.0 + f * params.rolling_resistance_coeff)))
    tilt = max(math.nextafter(90.0, 180.0), best - 8 * math.ulp(best))
    for _ in range(32):
        wall = wall_climb_analysis(params, tilt, climbing=True, rotor=rotor, payload=payload)
        if wall.attached:
            break
        tilt = math.nextafter(tilt, 180.0)
    if not wall.climb_feasible:  # a NaN or infinite f attaches nowhere
        raise InfeasibleTiltError(
            "no tilt in (90, 180] deg satisfies attachment and thrust limits "
            f"(mass {params.total_mass(payload):.2f} kg, max thrust "
            f"{4 * rotor.max_thrust:.1f} N)"
        )
    return tilt


def analysis_record(kind: str, inputs: dict, result) -> dict:
    """JSON-ready report record echoing all inputs alongside the result."""
    return {"analysis": kind, "inputs": inputs, "result": fields.record(result)}
