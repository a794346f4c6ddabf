"""Time-stepped vehicle simulation with the per-mode controllers.

The model is deliberately reduced-order: planar skid-steer dynamics on flat
ground and at the foot of a wall, along-slope dynamics on inclines,
along-wall dynamics while climbing, and a point-mass cascade in flight.
Wheel contact is a kinematic constraint (no spring-damper), integration is
semi-implicit Euler, and everything is a pure function of the inputs so
trajectories are bit-reproducible.

Conventions: world frame is ENU (z up), body x forward, heading is CCW about
z. Setpoint yaw rate follows the driving convention instead: positive turns
the vehicle to the right (clockwise from above), so the sign is flipped once
at the controller boundary.

In ground configuration both axles are tilted 90 degrees inward so the front
rotors thrust rearward and the rear rotors thrust forward; speed is set by
the front/rear imbalance and yaw by the left/right imbalance. On a wall both
axles point the same way at beta > 90, pressing the wheels on while the
vertical component carries the weight.

Each mode's step is one law over plain floats (`step_law`), built once for
a stretch in which the mode, setpoint, surface and tilt schedule hold: it
maps a state's floats (`floats_of`) to those of the state after the step.
It is the one copy of the physics: `Simulator.run` takes whole stretches
through it with no state object, building one (`state_of`) where a stretch
ends, and the tests' per-step oracle (`tests/reference_simulator.step`)
steps a `SimState` through it. A ground, incline or wall law reads
three floats, the yaw rate, the yaw and the speed, and the time and the
position only to advance them. So once a step reads, bit for bit, what the
step before it read (`repeats`), it computes everything else as that step
did, and so does every further step through the same law. Flight (its
controller reads the position) and transitions (their schedule reads the
time) never repeat. Plan validation drives straight edges, whose yaw rate
and yaw stay 0.0: `speed_law` steps just the speed, through the ground
law's own speed update (`_ground_update`). The ground law reruns that
update only when the speed and yaw rate it reads change bit for bit, which
a settled turn often repeats, and its heading's trigonometry, like the
flight law its yaw loop, only when the yaw's bits change, which a settled
yaw repeats. In a step, clamps are comparisons with the bits of `min`,
`max`, `abs` and `_sgn`.

The controllers run one tuning, the module constants `KP_SPEED` to
`GEOFENCE_RADIUS_M` below; each law builder binds the ones it reads once.

Every law drives the four rotors through the one `RotorModel` table: each
demanded rotor thrust becomes a command and the thrust that command
realises in one `RotorModel.realise` call, once per step in a wall or
flight step and once per side (once for both on a straight run) in the
ground allocation (`ground_allocator`).
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum

from . import statics
from .fields import FieldError
from .vehicle import RotorModel, VehicleParams

DT_MIN_S, DT_MAX_S = 1e-5, 0.02  # a finer step makes a run too many steps to take
DEFAULT_SPEED_ENVELOPE_MPS = 4.1  # fastest ground speed the model is trusted at
GROUND_TILT_DEG = 90.0
WALL_TILT_DEG = 135.0
FLIGHT_TILT_DEG = 0.0
STATIONARY_SPEED_MPS = 0.05  # "at rest" threshold for transition envelopes
TILT_TIME_S = 1.0  # how long `mode_transition` sweeps the axles

# The controller's loop gains and limits, one tuning for every run; tuned
# against the closed-loop response tests.
KP_SPEED = 20.0  # N per m/s of speed error (ground/incline/wall)
KP_YAW_RATE = 12.0  # N m per rad/s of yaw-rate error
KP_POS = 4.0  # 1/s^2, flight position loop
KD_POS = 4.0  # 1/s, flight velocity damping (critically damped pair)
KP_YAW = 2.0  # 1/s, flight heading loop
MAX_YAW_RATE_RADPS = 1.5
MAX_FLIGHT_ACCEL_MPS2 = 15.0  # horizontal authority at T/W 1.84
GEOFENCE_RADIUS_M = 200.0


class Mode(str, Enum):
    FLIGHT = "flight"
    GROUND = "ground"
    INCLINE = "incline"
    WALL = "wall"
    TRANSITION = "transition"


class SimulationFault(RuntimeError):
    """Numerical divergence or a timed-out validation leg."""


class TipEvent(RuntimeError):
    """Static tip-over limit exceeded during ground/incline operation."""


class DetachEvent(RuntimeError):
    """Wall-normal force dropped below the attachment threshold."""


class FlightTargetError(ValueError):
    """A flight with no usable target. `Simulator.run` sets `event` to the
    script event behind it: the last one that set the setpoint or started a
    transition, or None where the setpoint is the initial state's."""

    event = None


class GeofenceError(FlightTargetError):
    """Flight target outside the configured geofence."""


class TransitionEnvelopeError(RuntimeError):
    """Mode transition requested outside its envelope; message says why."""


def _yaw_quaternion(yaw_rad: float) -> tuple[float, float, float, float]:
    h = 0.5 * yaw_rad
    return (math.cos(h), 0.0, 0.0, math.sin(h))


def quaternion_yaw(q: tuple[float, float, float, float]) -> float:
    w, x, y, z = q
    return math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


# body pitched nose-up 90 deg, the attitude while on a vertical wall
_WALL_QUATERNION = (math.cos(math.pi / 4.0), 0.0, -math.sin(math.pi / 4.0), 0.0)
_WALL_YAW = quaternion_yaw(_WALL_QUATERNION)


@dataclass(frozen=True, slots=True)
class SimState:
    """Complete simulation state; frozen so stepping never aliases, slotted
    so building one per step is cheap."""

    # `state_of` constructs states positionally, in this field order: matching
    # ten keywords costs as much again as the rest of the constructor
    time_s: float
    position: tuple[float, float, float]
    velocity: tuple[float, float, float]
    quaternion: tuple[float, float, float, float]  # body -> world, (w,x,y,z)
    angular_velocity: tuple[float, float, float]  # body rates, rad/s
    tilt_front_deg: float
    tilt_rear_deg: float
    rotor_commands: tuple[float, float, float, float]  # fl, fr, rl, rr
    mode: Mode
    contact: tuple[bool, bool, bool, bool]

    def __post_init__(self):
        for t in (self.tilt_front_deg, self.tilt_rear_deg):
            if not 0.0 <= t <= 180.0:
                raise ValueError(f"tilt {t} outside [0, 180] deg")
        if len(self.rotor_commands) != 4:
            raise ValueError("need four rotor commands")
        for c in self.rotor_commands:
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"rotor command {c} outside [0, 1]")
        if self.mode in (Mode.GROUND, Mode.INCLINE) and not all(self.contact):
            raise ValueError(f"{self.mode.value} mode requires all wheels in contact")

    @property
    def speed(self) -> float:
        return math.sqrt(sum(v * v for v in self.velocity))


@dataclass(frozen=True)
class ControlSetpoint:
    """Target for the active mode controller.

    speed_mps drives ground/incline/wall, within the speed envelope;
    yaw_rate_radps steers in ground mode on any surface but an incline
    (positive = turn right); target_position/target_yaw_deg drive flight.
    """

    mode: Mode
    speed_mps: float = 0.0
    yaw_rate_radps: float = 0.0
    target_position: tuple[float, float, float] | None = None
    target_yaw_deg: float = 0.0

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not abs(self.speed_mps) <= DEFAULT_SPEED_ENVELOPE_MPS + 1e-9:
            raise FieldError("speed_mps", f"must be within +-{DEFAULT_SPEED_ENVELOPE_MPS} m/s")
        if not math.isfinite(self.yaw_rate_radps):
            raise FieldError("yaw_rate_radps", "must be finite")
        position = self.target_position
        if position is not None and not all(map(math.isfinite, position)):
            raise FieldError("target_position", "must be finite")
        if not abs(self.target_yaw_deg) <= 360.0:  # so each heading wrap turns at most twice
            raise FieldError("target_yaw_deg", "must be within +-360 deg")


@dataclass(frozen=True)
class SurfaceModel:
    """What the wheels are touching. Only an incline has a slope."""

    kind: str = "flat"  # flat | incline | wall
    slope_deg: float = 0.0
    rolling_resistance: float | None = None  # None -> vehicle default
    lateral_friction: float | None = None

    def __post_init__(self):
        # each check is written so that NaN fails it
        if self.kind not in ("flat", "incline", "wall"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if not (0.0 <= self.slope_deg < 90.0 if self.kind == "incline" else self.slope_deg == 0.0):
            raise FieldError("slope_deg", "must be in [0, 90) deg on an incline, and 0 elsewhere")
        for name in ("rolling_resistance", "lateral_friction"):
            value = getattr(self, name)
            if value is not None and not value >= 0.0:
                raise FieldError(name, "must be >= 0")

    def mu_roll(self, params: VehicleParams) -> float:
        if self.rolling_resistance is not None:
            return self.rolling_resistance
        return params.rolling_resistance_coeff

    def mu_lat(self, params: VehicleParams) -> float:
        if self.lateral_friction is not None:
            return self.lateral_friction
        return params.lateral_friction_coeff


def _sgn(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def ground_allocator(params: VehicleParams, rotor: RotorModel):
    """The thrust allocation of one ground law: allocate(f_long_n,
    yaw_moment_nm) maps a longitudinal force and yaw moment demand to the
    four rotor commands (fl, fr, rl, rr), followed by the net forward force
    (N) and up-axis moment (N m) that those commands realise.

    With the axles at 90 deg the front rotors pull rearward and the rear
    rotors push forward, so each side realizes a signed net force with one
    rotor active at a time; the idle rotor gives `thrust_at(0.0)`. The yaw
    differential is clamped so the requested longitudinal sum survives
    saturation. Each side takes one `RotorModel.realise`, and a straight
    demand (both sides alike) one for both.

    Its clamps keep the bits of `min`, `max` and `abs`: `min(a, b)` is
    `b if b < a else a`, and `abs(x)` is `x if x > 0.0 else 0.0 - x`.
    """
    f_max = rotor.max_thrust
    two_f_max = 2.0 * f_max
    b = params.wheel_contact_half_spacing_lat
    two_b = 2.0 * b
    idle = rotor.thrust_at(0.0)
    realise = rotor.realise

    def allocate(f_long_n: float, yaw_moment_nm: float):
        f_long = f_long_n if f_long_n < two_f_max else two_f_max
        f_long = f_long if f_long > -two_f_max else -two_f_max
        delta = yaw_moment_nm / two_b  # right-side-forward minus half-sum
        headroom = f_max - (f_long if f_long > 0.0 else 0.0 - f_long) / 2.0
        delta = delta if delta < headroom else headroom
        delta = delta if delta > -headroom else -headroom
        left = f_long / 2.0 - delta
        right = f_long / 2.0 + delta
        # a lookup raises in rotor order (fl, fr, rl, rr): the right side
        # first only where it alone pulls rearward
        if left >= 0.0 > right:
            c_right, t_right = realise(f_max if f_max < -right else -right)
            c_left, t_left = realise(f_max if f_max < left else left)
        else:
            side = left if left > 0.0 else 0.0 - left
            c_left, t_left = realise(f_max if f_max < side else side)
            if right == left:
                c_right, t_right = c_left, t_left
            else:
                side = right if right > 0.0 else 0.0 - right
                c_right, t_right = realise(f_max if f_max < side else side)
        if left >= 0.0:
            fl, rl, net_left = 0.0, c_left, t_left - idle
        else:
            fl, rl, net_left = c_left, 0.0, idle - t_left
        if right >= 0.0:
            fr, rr, net_right = 0.0, c_right, t_right - idle
        else:
            fr, rr, net_right = c_right, 0.0, idle - t_right
        return fl, fr, rl, rr, net_left + net_right, b * (net_right - net_left)

    return allocate


@dataclass(frozen=True)
class TiltSchedule:
    """Linear tilt ramp produced by mode_transition."""

    start_time_s: float
    duration_s: float
    start_front_deg: float
    start_rear_deg: float
    end_front_deg: float
    end_rear_deg: float
    target_mode: Mode

    def tilts_at(self, t_s: float) -> tuple[float, float]:
        if self.duration_s <= 0.0:
            return (self.end_front_deg, self.end_rear_deg)
        a = (t_s - self.start_time_s) / self.duration_s
        a = a if a < 1.0 else 1.0
        a = a if a > 0.0 else 0.0
        return (
            self.start_front_deg + a * (self.end_front_deg - self.start_front_deg),
            self.start_rear_deg + a * (self.end_rear_deg - self.start_rear_deg),
        )

    def done(self, t_s: float) -> bool:
        return t_s >= self.start_time_s + self.duration_s - 1e-12


_TILT_TARGETS = {
    Mode.FLIGHT: (FLIGHT_TILT_DEG, FLIGHT_TILT_DEG),
    Mode.GROUND: (GROUND_TILT_DEG, GROUND_TILT_DEG),
    Mode.INCLINE: (GROUND_TILT_DEG, GROUND_TILT_DEG),
    Mode.WALL: (WALL_TILT_DEG, WALL_TILT_DEG),
}


def mode_transition(
    state: SimState,
    target_mode: Mode,
    *,
    surface: SurfaceModel,
    params: VehicleParams,
) -> TiltSchedule:
    """Plan the TILT_TIME_S axle tilt ramp into another mode, enforcing the
    envelope.

    Ground<->Flight requires standing on the surface at near-zero speed
    (the tilt sweep passes through thrust directions that would fight the
    airframe anywhere else). Wall entry/exit requires near-zero speed too.
    A landing needs wheel contact on `surface` for the vehicle `params`.
    """
    if target_mode == Mode.TRANSITION:
        raise TransitionEnvelopeError("transition is not a target mode")
    if state.mode == target_mode:
        raise TransitionEnvelopeError(f"already in {target_mode.value} mode")
    if state.mode == Mode.TRANSITION:
        raise TransitionEnvelopeError("a transition is already in progress")
    if state.speed > STATIONARY_SPEED_MPS:
        raise TransitionEnvelopeError(
            f"speed {state.speed:.3f} m/s exceeds the "
            f"{STATIONARY_SPEED_MPS} m/s transition envelope"
        )
    if target_mode in (Mode.GROUND, Mode.INCLINE) and state.mode == Mode.FLIGHT:
        height = _height_above_surface(state, surface, params)
        if height > 0.01:
            raise TransitionEnvelopeError(
                f"landing transition needs wheel contact; vehicle is "
                f"{height:.2f} m above the surface"
            )
    if target_mode == Mode.FLIGHT and state.mode not in (Mode.GROUND, Mode.INCLINE):
        raise TransitionEnvelopeError(
            f"flight transition starts from the ground, not {state.mode.value}"
        )
    if target_mode == Mode.WALL and state.mode != Mode.GROUND:
        raise TransitionEnvelopeError("wall entry starts from ground mode")
    end_front, end_rear = _TILT_TARGETS[target_mode]
    return TiltSchedule(
        start_time_s=state.time_s,
        duration_s=TILT_TIME_S,
        start_front_deg=state.tilt_front_deg,
        start_rear_deg=state.tilt_rear_deg,
        end_front_deg=end_front,
        end_rear_deg=end_rear,
        target_mode=target_mode,
    )


def begin_transition(state: SimState) -> SimState:
    """Mark a state as mid-transition; step it with the planned schedule."""
    return replace(state, mode=Mode.TRANSITION)


def _height_above_surface(state: SimState, surface: SurfaceModel, params: VehicleParams) -> float:
    if surface.kind == "incline":
        psi = math.radians(surface.slope_deg)
        rest = state.position[0] * math.tan(psi) + params.com_height
    else:
        rest = params.com_height
    return state.position[2] - rest


def check_finite(values) -> None:
    if not all(map(math.isfinite, values)):
        raise SimulationFault("non-finite value in integration step")


def check_dt(dt_s: float) -> None:
    """Raise ValueError unless dt_s is a step a run may take, in [DT_MIN_S, DT_MAX_S]."""
    if not DT_MIN_S <= dt_s <= DT_MAX_S:
        raise ValueError(f"dt_s {dt_s} outside [{DT_MIN_S}, {DT_MAX_S}] s")


# Where each field sits in the floats a step law maps (`floats_of`): first
# the 17 columns of a trace row (time, position, velocity, quaternion, front
# and rear tilt, rotor commands), then the yaw rate, the yaw
# (`quaternion_yaw` of the quaternion) and the speed a ground, incline or
# wall step reads (in ground and incline mode along the slope on an incline
# and along the heading elsewhere, the climb speed in the other modes), then
# the mode and the contact.
TIME, POSITION, VELOCITY, QUATERNION = 0, slice(1, 4), slice(4, 7), slice(7, 11)
TILT_FRONT, TILT_REAR, COMMANDS, TRACE = 11, 12, slice(13, 17), slice(0, 17)
YAW_RATE, YAW, SPEED, MODE, CONTACT = 17, 18, 19, 20, 21
_CONTACT, _NO_CONTACT = (True, True, True, True), (False, False, False, False)
_STEADY_MODES = (Mode.GROUND, Mode.INCLINE, Mode.WALL)
_pack1, _pack2, _pack3 = (struct.Struct(f"{n}d").pack for n in (1, 2, 3))


def step_law(
    state: SimState,
    setpoint: ControlSetpoint,
    surface: SurfaceModel,
    dt: float,
    params: VehicleParams,
    rotor: RotorModel,
    payload: float = 0.0,
    schedule: TiltSchedule | None = None,
):
    """The step from `state` as a map over plain floats, for as long as the
    mode, setpoint, surface and schedule hold: advance(f) returns the
    `floats_of` the state one step after the state of floats f, unchecked
    for finiteness (`check_finite`). Raises before any step as the mode's
    law is built (a non-finite state raises SimulationFault; a `ControlSetpoint`
    is finite by construction); a wall step may raise DetachEvent."""
    check_finite((*state.position, *state.velocity, *state.quaternion,
                  *state.angular_velocity, state.tilt_front_deg, state.tilt_rear_deg))
    mode = state.mode
    if mode in (Mode.GROUND, Mode.INCLINE):
        advance = _ground_law(state, setpoint, surface, dt, params, rotor, payload)
    elif mode == Mode.WALL:
        advance = _wall_law(state, setpoint, dt, params, rotor, payload)
    elif mode == Mode.FLIGHT:
        advance = _flight_law(state, setpoint, dt, params, rotor, payload)
    elif mode == Mode.TRANSITION:
        if schedule is None:
            raise ValueError("transition mode needs the active TiltSchedule")
        advance = _transition_law(schedule, dt)
    else:
        raise ValueError(f"unknown mode {mode}")
    return advance


def floats_of(state: SimState, surface: SurfaceModel) -> tuple:
    """The floats of `state` on `surface` that a step law maps."""
    yaw = quaternion_yaw(state.quaternion)
    vx, vy, vz = state.velocity
    if state.mode not in (Mode.GROUND, Mode.INCLINE):
        v = vz  # the climb speed
    elif surface.kind == "incline":
        psi = math.radians(surface.slope_deg)
        v = vx * math.cos(psi) + vz * math.sin(psi)
    else:  # along the heading, on flat ground and at the foot of a wall
        v = vx * math.cos(yaw) + vy * math.sin(yaw)
    return (state.time_s, *state.position, *state.velocity, *state.quaternion,
            state.tilt_front_deg, state.tilt_rear_deg, *state.rotor_commands,
            state.angular_velocity[2], yaw, v, state.mode, state.contact)


def state_of(f) -> SimState:
    """The state of step-law floats f, after a step (the angular velocity
    is then (0, 0, yaw rate))."""
    return SimState(f[TIME], f[POSITION], f[VELOCITY], f[QUATERNION], (0.0, 0.0, f[YAW_RATE]),
                    f[TILT_FRONT], f[TILT_REAR], f[COMMANDS], f[MODE], f[CONTACT])


def repeats(f, g) -> bool:
    """True when floats g, after a ground, incline or wall step from floats
    f, hold what that step read from f, bit for bit (packed doubles tell 0.0
    from -0.0, which == does not): the yaw rate, the yaw and the speed. Those
    laws read nothing else but the time and the position, which they only
    advance, so the step from g computes everything else as the step to g
    did, and so does each further step through the same law."""
    return (g[YAW] == f[YAW] and g[YAW_RATE] == f[YAW_RATE] and g[MODE] in _STEADY_MODES
            and _pack3(*g[YAW_RATE:MODE]) == _pack3(*f[YAW_RATE:MODE]))


# a normal float's binade in units of its ulp, and the least normal float
_UNITS_LO, _UNITS_HI, _MIN_NORMAL = 1 << 52, 1 << 53, sys.float_info.min


def exact_run(a: float, d: float, n: int) -> tuple[int, float]:
    """How many of n additions `a += d` one jump may take, at most n, and
    the float s such that after j of them (j up to that count) `a` holds
    a + j * s, bit for bit.

    Floats with |a| in the binade [2^e, 2^(e+1)) lie u = ulp(a) apart, so
    while the exact sum of each addition stays in that binade, rounding to
    nearest gives a + m * u with m = round(d / u) every time (d / u is exact:
    u is a power of two). The run stops a unit short of either edge of the
    binade, and is empty at a tie (d / u an odd multiple of 1/2, rounded to
    even), at a zero or subnormal `a` that d moves, and at a huge |d / u|;
    the step law then takes the step. A d of 0.0 or -0.0 allows any run."""
    if d == 0.0:  # a + j * d is a + d for any j >= 1, -0.0 + 0.0 = 0.0 included
        return n, d
    size = abs(a)
    if not size >= _MIN_NORMAL:
        return 0, d
    u = math.ulp(a)
    q = d / u if a > 0.0 else -d / u  # the step in units of u, positive away from 0
    if not -_UNITS_LO < q < _UNITS_LO:
        return 0, d
    m = round(q)
    if abs(q - m) == 0.5:
        return 0, d
    units = int(size / u)
    if m > 0:
        room = (_UNITS_HI - 1 - units) // m
    elif m < 0:
        room = (units - _UNITS_LO - 1) // -m if units > _UNITS_LO else 0
    else:  # the sum stays put, unless a is a power of two that d pulls down
        room = n if q >= 0.0 or units > _UNITS_LO else 0
    return min(n, room), (m * u if a > 0.0 else -m * u)


def first_holding(n: int, holds) -> int:
    """The least j in 1..n with holds(j), for a test `holds` that is
    monotone in j and holds at n."""
    return 1 + bisect_left(range(1, n + 1), True, key=holds)


def finite_power(power: float, mode: Mode) -> float:
    """`power`, or SimulationFault where it is not finite."""
    if not -math.inf < power < math.inf:
        raise SimulationFault(f"non-finite power {power} W in {mode.value} mode")
    return power


def _check_tip(params: VehicleParams, surface: SurfaceModel) -> None:
    """Raise TipEvent on an incline at or past the tip limit."""
    if surface.kind != "incline":
        return
    tip = statics.tipping_slope(params)
    if surface.slope_deg >= tip:
        raise TipEvent(
            f"slope {surface.slope_deg:.2f} deg is at or beyond the {tip:.2f} deg tip limit"
        )


def _ground_update(surface, v_target, yaw_rate_target, dt, params, rotor, payload):
    """The speed update of a ground or incline step law asked for the speed
    `v_target` and the yaw rate `yaw_rate_target`, and the slope's axis.
    update(v, r) maps the speed and yaw rate a step reads to (v_new, c0, c1,
    c2, c3, r_new): the speed along the track after the step, the four
    rotor commands and the yaw rate after the step.
    Feedforward holds gravity and rolling resistance (the statics'
    `along_slope_force`) and a proportional term closes the speed loop,
    which reads the speed along the slope on an incline and along the
    heading on any other surface (a wall's foot included). Off an incline
    the yaw loop steers, its feedforward cancelling the lateral-friction
    moment of the fixed wheels (a positive yaw-rate target turns right).
    The axis is the unit vector up an incline's slope, (cos psi, 0, sin
    psi), and None on any other surface."""
    m = params.total_mass(payload)
    incline = surface.kind == "incline"
    g = params.gravity
    psi = math.radians(surface.slope_deg) if incline else 0.0
    mu_r = surface.mu_roll(params)
    feedforward = statics.along_slope_force(m, g, psi, mu_r, _sgn(v_target))
    kp = KP_SPEED
    grade = m * g * math.sin(psi)
    hold = mu_r * (m * g * math.cos(psi))  # rolling resistance at the normal force
    lat, half_long = params.wheel_contact_half_spacing_lat, params.wheel_contact_half_spacing_long
    r_target = -yaw_rate_target  # driving convention -> CCW-positive internal
    friction_moment = params.lateral_friction_coeff * m * g * half_long * _sgn(r_target)
    kp_yaw, two_lat = KP_YAW_RATE, 2.0 * lat
    fric_cap = surface.mu_lat(params) * m * g * half_long
    inertia = params.yaw_inertia
    allocate = ground_allocator(params, rotor)

    def update(v, r):
        # the yaw loop's left/right differential, as a moment
        moment = 0.0 if incline else (
            (friction_moment + kp_yaw * (r_target - r)) / two_lat * 2.0 * lat)
        c0, c1, c2, c3, f_net, m_net = allocate(feedforward + kp * (v_target - v), moment)
        drive = f_net - grade
        # abs(x) <= c is -c <= x <= c, and c * _sgn(s) is c, -c or c * 0.0
        if v == 0.0 and -hold <= drive <= hold:
            v_new = 0.0
        else:
            s = v if v != 0.0 else drive
            v_new = v + (drive - (hold if s > 0.0 else -hold if s < 0.0 else hold * 0.0)) / m * dt
            if v != 0.0 and v * v_new < 0.0 and -hold <= drive <= hold:
                v_new = 0.0  # rolling resistance stops the coast, it never reverses it
        if incline or r == 0.0 and -fric_cap <= m_net <= fric_cap:
            r_new = 0.0
        else:
            s = r if r != 0.0 else m_net
            r_new = r + (m_net - (fric_cap if s > 0.0 else -fric_cap if s < 0.0
                                  else fric_cap * 0.0)) / inertia * dt
            if r != 0.0 and r * r_new < 0.0 and -fric_cap <= m_net <= fric_cap:
                r_new = 0.0
        return v_new, c0, c1, c2, c3, r_new

    return update, ((math.cos(psi), 0.0, math.sin(psi)) if incline else None)


def _ground_law(state, setpoint, surface, dt, params, rotor, payload):
    """The step law of a ground or incline state: the speed update
    (`_ground_update`), then the heading and the velocity along it. It
    reruns the update only when the bits of the speed and yaw rate it reads
    change (a settled turn repeats them), and the heading's trigonometry
    only when the new yaw's bits change (a straight run). Raises TipEvent
    on an incline at or past the tip limit."""
    _check_tip(params, surface)
    update, axis = _ground_update(surface, setpoint.speed_mps, setpoint.yaw_rate_radps, dt,
                                  params, rotor, payload)
    incline = axis is not None
    cos_psi, _, sin_psi = axis or (1.0, 0.0, 0.0)
    front, rear, mode = state.tilt_front_deg, state.tilt_rear_deg, state.mode
    last_v = last_r = last_yaw = math.nan  # what the memos below were computed for
    speed = heading = None

    def advance(f):
        nonlocal last_v, last_r, last_yaw, speed, heading
        r, yaw, v = f[YAW_RATE], f[YAW], f[SPEED]
        # == cannot tell 0.0 from -0.0, so zeros compare as packed doubles
        if not (v == last_v and r == last_r and (v and r or _pack2(v, r) == _pack2(last_v, last_r))):
            last_v, last_r, speed = v, r, update(v, r)
        v_new, c0, c1, c2, c3, r_new = speed
        yaw_new = yaw if incline else yaw + r_new * dt
        if not (yaw_new == last_yaw and (yaw_new or _pack1(yaw_new) == _pack1(last_yaw))):
            if incline:
                ux, uy, uz = axis
            elif not -math.inf < yaw_new < math.inf:  # a yaw rate that overflowed
                raise SimulationFault("non-finite value in integration step")
            else:
                ux, uy, uz = math.cos(yaw_new), math.sin(yaw_new), 0.0
            q = _yaw_quaternion(yaw_new)
            yaw2 = quaternion_yaw(q)
            last_yaw, heading = yaw_new, (ux, uy, uz, *q, yaw2, math.cos(yaw2), math.sin(yaw2))
        ux, uy, uz, qw, qx, qy, qz, yaw2, cos_yaw, sin_yaw = heading
        vx, vy, vz = v_new * ux, v_new * uy, v_new * uz
        read = vx * cos_psi + vz * sin_psi if incline else vx * cos_yaw + vy * sin_yaw
        px, py, pz = f[POSITION]
        return (f[TIME] + dt, px + vx * dt, py + vy * dt, pz + vz * dt, vx, vy, vz,
                qw, qx, qy, qz, front, rear, c0, c1, c2, c3, r_new, yaw2, read, mode, _CONTACT)

    return advance


def speed_law(surface, speed_mps, dt, params, rotor, payload=0.0):
    """The step law of a straight ground or incline state over the speed it
    reads alone: the state heads along +x (quaternion (1, 0, 0, 0)) with a
    yaw rate of 0.0, and is asked for `speed_mps` and no yaw rate. Returns
    (read, advance): read(v) is the speed a step reads from such a state
    moving at v along the track, and advance(v) maps the speed v a step
    reads to (v', vx, vy, vz), the floats `step_law` gives at SPEED and
    VELOCITY through the same update (`_ground_update`). The yaw rate and
    yaw that step reads stay 0.0, so it repeats (`repeats`) once v' has the
    bits of v. Raises TipEvent on an incline at or past the tip limit, and ValueError at a step that would turn the vehicle (only a
    lateral friction moment that overflows asks for that)."""
    _check_tip(params, surface)
    update, axis = _ground_update(surface, speed_mps, 0.0, dt, params, rotor, payload)
    incline = axis is not None
    ux, uy, uz = axis or (1.0, 0.0, 0.0)  # off an incline, also heading 0's cosine and sine

    def read(v):
        vx, vy, vz = v * ux, v * uy, v * uz
        return vx * ux + (vz * uz if incline else vy * uy)

    def advance(v):
        v_new, _, _, _, _, r_new = update(v, 0.0)
        if r_new != 0.0:
            raise ValueError(f"the step turns the vehicle at {r_new} rad/s")
        # read(v_new), inlined: the call would cost about 6 % of a step
        vx, vy, vz = v_new * ux, v_new * uy, v_new * uz
        return vx * ux + (vz * uz if incline else vy * uy), vx, vy, vz

    return read, advance


def _wall_law(state, setpoint, dt, params, rotor, payload):
    """The step law of a wall state, with the axles gamma rad past vertical:
    the statics' equilibrium thrust (`statics.wall_required_thrust`) plus a
    proportional speed term. A step raises DetachEvent when the wall-normal
    force falls below the attachment threshold
    (`statics.ATTACH_NORMAL_FRACTION` of the weight)."""
    m = params.total_mass(payload)
    front, rear, mode = state.tilt_front_deg, state.tilt_rear_deg, state.mode
    gamma = math.radians(0.5 * (front + rear) - 90.0)
    if gamma <= 0.0:
        raise DetachEvent("wall mode needs tilt > 90 deg")
    v_target = setpoint.speed_mps
    g = params.gravity
    mu_r = params.rolling_resistance_coeff
    thrust_ff = statics.wall_required_thrust(m, g, gamma, mu_r, _sgn(v_target))
    if thrust_ff == math.inf:  # no thrust balances: ask for all four rotors'
        thrust_ff = 4.0 * rotor.max_thrust
    kp, f_max = KP_SPEED, rotor.max_thrust
    sin_gamma, cos_gamma, weight = math.sin(gamma), math.cos(gamma), m * g
    attach = statics.ATTACH_NORMAL_FRACTION * m * g
    mu_wall = params.wall_friction_coeff
    qw, qx, qy, qz = _WALL_QUATERNION
    realise = rotor.realise

    def advance(f):
        v = f[SPEED]
        # max(0.0, min(demand, f_max)), as comparisons
        per_rotor = (thrust_ff + kp * (v_target - v)) / 4.0
        per_rotor = f_max if f_max < per_rotor else per_rotor
        c, realised = realise(per_rotor if per_rotor > 0.0 else 0.0)
        thrust = 4.0 * realised
        normal = thrust * sin_gamma
        if normal < attach:
            raise DetachEvent(
                f"wall normal force {normal:.2f} N below the attachment "
                f"threshold {attach:.2f} N"
            )
        lift = thrust * cos_gamma - weight
        # the wheels roll freely along the climb axis; static friction only
        # holds the vehicle when the controller wants it parked (brake engaged)
        parked = v_target == 0.0 and -mu_wall * normal <= lift <= mu_wall * normal
        if v == 0.0 and parked:
            v_new = 0.0
        else:
            s = v if v != 0.0 else lift
            grip = mu_r * normal
            v_new = v + (lift - (grip if s > 0.0 else -grip if s < 0.0 else grip * 0.0)) / m * dt
            if v != 0.0 and v * v_new < 0.0 and parked:
                v_new = 0.0
        px, py, pz = f[POSITION]
        return (f[TIME] + dt, px, py, pz + v_new * dt, 0.0, 0.0, v_new, qw, qx, qy, qz,
                front, rear, c, c, c, c, 0.0, _WALL_YAW, v_new, mode, _CONTACT)

    return advance


def _flight_law(state, setpoint, dt, params, rotor, payload):
    """The step law of a flight state: position hold through cascaded
    proportional loops. Point-mass abstraction: the attitude loop is assumed
    fast enough that the thrust vector tracks the commanded acceleration
    direction within a step. Hover at the target is a fixed point. The yaw
    loop reruns only when the bits of the yaw it reads change."""
    if setpoint.target_position is None:
        raise FlightTargetError("flight mode needs a target_position setpoint")
    tx, ty, tz = setpoint.target_position
    radius = math.sqrt(tx * tx + ty * ty)
    fence = GEOFENCE_RADIUS_M
    if radius > fence:
        raise GeofenceError(f"target {radius:.1f} m from origin exceeds geofence {fence:.1f} m")
    m = params.total_mass(payload)
    gravity, a_max, f_max = params.gravity, MAX_FLIGHT_ACCEL_MPS2, rotor.max_thrust
    kp, kd = KP_POS, KD_POS
    kp_yaw, max_rate = KP_YAW, MAX_YAW_RATE_RADPS
    yaw_target = math.radians(setpoint.target_yaw_deg)
    front, rear, mode = state.tilt_front_deg, state.tilt_rear_deg, state.mode
    realise = rotor.realise
    az_cap = gravity + a_max
    last_yaw = math.nan  # the yaw the heading memo below was computed for
    heading = None

    def advance(f):
        nonlocal last_yaw, heading
        t = f[TIME]
        px, py, pz = f[POSITION]
        vx, vy, vz = f[VELOCITY]
        ax = kp * (tx - px) - kd * vx
        ay = kp * (ty - py) - kd * vy
        az = kp * (tz - pz) - kd * vz
        h = math.sqrt(ax ** 2 + ay ** 2)
        if h > a_max:
            scale = a_max / h
            ax *= scale
            ay *= scale
        # rotors cannot pull down; free fall is the hardest the loop may
        # command: max(0.0, min(az + gravity, az_cap)), as comparisons
        az += gravity
        az = az_cap if az_cap < az else az
        az = az if az > 0.0 else 0.0
        mag = math.sqrt(ax * ax + ay * ay + az * az)
        demand = m * mag / 4.0
        if not demand >= 0.0:  # NaN: kp times a position error of ~1e308 m overflowed
            raise SimulationFault("non-finite value in integration step")
        c, per_rotor = realise(f_max if f_max < demand else demand)
        k = 4.0 * per_rotor / m
        if mag > 1e-12:
            ax, ay, az = ax / mag, ay / mag, az / mag
        else:
            ax, ay, az = 0.0, 0.0, 1.0
        vx += k * ax * dt
        vy += k * ay * dt
        vz += (k * az - gravity) * dt
        yaw = f[YAW]
        # == cannot tell 0.0 from -0.0, so a zero compares as packed doubles
        if not (yaw == last_yaw and (yaw or _pack1(yaw) == _pack1(last_yaw))):
            rate = kp_yaw * _wrap_angle(yaw_target - yaw)
            rate = rate if rate < max_rate else max_rate
            rate = rate if rate > -max_rate else -max_rate
            q = _yaw_quaternion(yaw + rate * dt)
            last_yaw, heading = yaw, (rate, *q, quaternion_yaw(q))
        rate, qw, qx, qy, qz, yaw_new = heading
        return (t + dt, px + vx * dt, py + vy * dt, pz + vz * dt, vx, vy, vz, qw, qx, qy, qz,
                front, rear, c, c, c, c, rate, yaw_new, vz, mode, _NO_CONTACT)

    return advance


def _transition_law(schedule: TiltSchedule, dt: float):
    """The step law of a transition: the axles follow the schedule with the
    vehicle at rest; the step that ends the schedule enters its mode."""
    def advance(f):
        t = f[TIME] + dt
        front, rear = schedule.tilts_at(t)
        mode, contact = Mode.TRANSITION, f[CONTACT]
        if schedule.done(t):
            mode = schedule.target_mode
            if mode in _STEADY_MODES:
                contact = _CONTACT
        return (t, *f[POSITION], 0.0, 0.0, 0.0, *f[QUATERNION], front, rear,
                0.0, 0.0, 0.0, 0.0, 0.0, f[YAW], 0.0, mode, contact)

    return advance


def _wrap_angle(a: float) -> float:
    while a > math.pi:
        a -= 2.0 * math.pi
    while a < -math.pi:
        a += 2.0 * math.pi
    return a


def initial_ground_state(
    params: VehicleParams | None = None,
    surface: SurfaceModel | None = None,
    position_xy: tuple[float, float] = (0.0, 0.0),
    heading_deg: float = 0.0,
) -> SimState:
    """Vehicle standing still on the surface, axles in ground configuration."""
    params = params or VehicleParams()
    surface = surface or SurfaceModel()
    mode = Mode.INCLINE if surface.kind == "incline" else Mode.GROUND
    x, y = position_xy
    if surface.kind == "incline":
        z = x * math.tan(math.radians(surface.slope_deg)) + params.com_height
    else:
        z = params.com_height
    return SimState(
        time_s=0.0,
        position=(x, y, z),
        velocity=(0.0, 0.0, 0.0),
        quaternion=_yaw_quaternion(math.radians(heading_deg)),
        angular_velocity=(0.0, 0.0, 0.0),
        tilt_front_deg=GROUND_TILT_DEG,
        tilt_rear_deg=GROUND_TILT_DEG,
        rotor_commands=(0.0, 0.0, 0.0, 0.0),
        mode=mode,
        contact=(True, True, True, True),
    )


def initial_wall_state(*, height_m: float = 0.0, tilt_deg: float = WALL_TILT_DEG) -> SimState:
    """Vehicle attached to a vertical wall, ready to climb."""
    return SimState(
        time_s=0.0,
        position=(0.0, 0.0, height_m),
        velocity=(0.0, 0.0, 0.0),
        quaternion=_WALL_QUATERNION,
        angular_velocity=(0.0, 0.0, 0.0),
        tilt_front_deg=tilt_deg,
        tilt_rear_deg=tilt_deg,
        rotor_commands=(0.0, 0.0, 0.0, 0.0),
        mode=Mode.WALL,
        contact=(True, True, True, True),
    )


def initial_flight_state(
    position: tuple[float, float, float],
    yaw_deg: float = 0.0,
) -> SimState:
    return SimState(
        time_s=0.0,
        position=position,
        velocity=(0.0, 0.0, 0.0),
        quaternion=_yaw_quaternion(math.radians(yaw_deg)),
        angular_velocity=(0.0, 0.0, 0.0),
        tilt_front_deg=FLIGHT_TILT_DEG,
        tilt_rear_deg=FLIGHT_TILT_DEG,
        rotor_commands=(0.0, 0.0, 0.0, 0.0),
        mode=Mode.FLIGHT,
        contact=(False, False, False, False),
    )
