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
# attachment requires a small positive bite; configurable per analysis.
DEFAULT_ATTACH_NORMAL_FRACTION = 0.02


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


def incline_equilibrium(
    params: VehicleParams,
    slope_deg: float,
    moving: bool,
    rotor: RotorModel | None = None,
    payload: float = 0.0,
) -> SlopeAnalysis:
    """Thrust needed to hold (or creep along) an incline with surface-parallel
    rotors: gravity component m g sin(psi), plus rolling resistance
    C_rr m g cos(psi) when moving.

    Slopes at or past the tipping limit come back infeasible rather than
    raising. Without a rotor the thrust-availability check is skipped and
    feasibility reduces to the tipping bound.
    """
    if not 0.0 <= slope_deg <= 90.0:
        raise ValueError(f"slope {slope_deg} outside [0, 90] deg")
    tip_limit = tipping_slope(params)
    m = params.total_mass(payload)
    g = params.gravity
    psi = math.radians(slope_deg)
    required = m * g * math.sin(psi)
    if moving:
        required += params.rolling_resistance_coeff * m * g * math.cos(psi)
    feasible = slope_deg < tip_limit
    if rotor is not None and required > 4.0 * rotor.max_thrust:
        feasible = False
    return SlopeAnalysis(
        slope_angle=slope_deg,
        required_total_thrust=required,
        tipping_margin=tip_limit - slope_deg,
        feasible=feasible,
    )


def _wall_required_thrust(m: float, g: float, gamma: float, resist: float) -> float:
    """Total thrust for vertical equilibrium on a wall: F cos(g) balances
    weight plus (minus, when holding) the wheel term resist * F sin(g)."""
    den = math.cos(gamma) - resist * math.sin(gamma)
    if den <= 0:
        return math.inf
    return m * g / den


def wall_climb_analysis(
    params: VehicleParams,
    tilt_deg: float,
    climbing: bool = True,
    rotor: RotorModel | None = None,
    payload: float = 0.0,
    attach_normal_fraction: float = DEFAULT_ATTACH_NORMAL_FRACTION,
) -> WallClimbAnalysis:
    """Attachment and climb feasibility on a vertical wall.

    With gamma = tilt - 90 (angle between thrust and the wall plane), the
    wall-normal force is F sin(gamma). Steady climb balances
    F cos(gamma) = m g + C_rr F sin(gamma); static holding gets help from
    wheel friction instead: F cos(gamma) + mu F sin(gamma) = m g.

    Attached needs the normal force above the attachment threshold and a
    non-negative anti-tip moment about the lower wheel pair (thrust resultant
    taken in the COM plane, same lever arms as ground tipping rotated 90 deg).
    """
    if not 90.0 < tilt_deg <= 180.0:
        raise ValueError(f"tilt {tilt_deg} outside (90, 180] deg")
    m = params.total_mass(payload)
    g = params.gravity
    gamma = math.radians(tilt_deg - 90.0)
    resist = params.rolling_resistance_coeff if climbing else -params.wall_friction_coeff
    required = _wall_required_thrust(m, g, gamma, resist)
    if math.isinf(required):
        return WallClimbAnalysis(tilt_deg, math.inf, math.inf, False, False)
    normal = required * math.sin(gamma)
    # moment about the lower wheel contact line; positive presses the upper
    # wheels onto the wall
    h = params.com_height
    d = params.wheel_contact_half_spacing_long
    anti_tip = required * (h * math.cos(gamma) + d * math.sin(gamma)) - m * g * h
    attached = normal >= attach_normal_fraction * m * g and anti_tip >= 0.0
    feasible = attached
    if rotor is not None and required > 4.0 * rotor.max_thrust:
        feasible = False
    return WallClimbAnalysis(tilt_deg, required, normal, attached, feasible)


def optimal_wall_tilt(
    params: VehicleParams,
    rotor: RotorModel,
    step_deg: float = 0.1,
    payload: float = 0.0,
    attach_normal_fraction: float = DEFAULT_ATTACH_NORMAL_FRACTION,
) -> float:
    """Tilt angle minimizing the climb thrust, over a grid on (90, 180) deg,
    subject to attachment and the four-rotor thrust limit."""
    if not step_deg > 0:  # NaN included
        raise ValueError(f"step_deg must be > 0, got {step_deg!r}")
    best_tilt = None
    best_required = math.inf
    n = int(round((180.0 - 90.0) / step_deg))
    for i in range(1, n):
        tilt = 90.0 + i * step_deg
        if tilt >= 180.0:
            break
        result = wall_climb_analysis(
            params, tilt, climbing=True, rotor=rotor, payload=payload,
            attach_normal_fraction=attach_normal_fraction,
        )
        if result.attached and result.climb_feasible and result.required_thrust < best_required:
            best_required = result.required_thrust
            best_tilt = tilt
    if best_tilt is None:
        raise InfeasibleTiltError(
            "no tilt in (90, 180) deg satisfies attachment and thrust limits "
            f"(mass {params.total_mass(payload):.2f} kg, max thrust "
            f"{4 * rotor.max_thrust:.1f} N)"
        )
    return best_tilt


def analysis_record(kind: str, inputs: dict, result) -> dict:
    """JSON-ready report record echoing all inputs alongside the result."""
    return {"analysis": kind, "inputs": inputs, "result": fields.record(result)}
