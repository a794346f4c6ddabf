"""Time-stepped vehicle simulation with the per-mode controllers.

The model is deliberately reduced-order: planar skid-steer dynamics on flat
ground, along-slope dynamics on inclines, along-wall dynamics while climbing,
and a point-mass cascade in flight. Wheel contact is a kinematic constraint
(no spring-damper), integration is semi-implicit Euler, and everything is a
pure function of the inputs so trajectories are bit-reproducible.

Conventions: world frame is ENU (z up), body x forward, heading is CCW about
z. Setpoint yaw rate follows the driving convention instead: positive turns
the vehicle to the right (clockwise from above), so the sign is flipped once
at the controller boundary.

In ground configuration both axles are tilted 90 degrees inward so the front
rotors thrust rearward and the rear rotors thrust forward; speed is set by
the front/rear imbalance and yaw by the left/right imbalance. On a wall both
axles point the same way at beta > 90, pressing the wheels on while the
vertical component carries the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from . import statics
from .vehicle import RotorModel, VehicleParams

DT_MAX_S = 0.02
DEFAULT_SPEED_ENVELOPE_MPS = 4.1  # fastest ground speed the model is trusted at
GROUND_TILT_DEG = 90.0
WALL_TILT_DEG = 135.0
FLIGHT_TILT_DEG = 0.0
STATIONARY_SPEED_MPS = 0.05  # "at rest" threshold for transition envelopes


class Mode(str, Enum):
    FLIGHT = "flight"
    GROUND = "ground"
    INCLINE = "incline"
    WALL = "wall"
    TRANSITION = "transition"


class SimulationFault(RuntimeError):
    """Numerical divergence or a timed-out validation leg; carries the last
    valid state, or None where the loop keeps no SimState."""

    def __init__(self, message: str, last_state: "SimState | None"):
        super().__init__(message)
        self.last_state = last_state


class TipEvent(RuntimeError):
    """Static tip-over limit exceeded during ground/incline operation."""

    def __init__(self, message: str, state: "SimState"):
        super().__init__(message)
        self.state = state


class DetachEvent(RuntimeError):
    """Wall-normal force dropped below the attachment threshold."""

    def __init__(self, message: str, state: "SimState"):
        super().__init__(message)
        self.state = state


class GeofenceError(ValueError):
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


@dataclass(frozen=True)
class SimState:
    """Complete simulation state; frozen so stepping never aliases."""

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

    @property
    def yaw_rad(self) -> float:
        return quaternion_yaw(self.quaternion)


@dataclass(frozen=True)
class ControlSetpoint:
    """Target for the active mode controller.

    speed_mps drives ground/incline/wall; yaw_rate_radps steers on flat
    ground (positive = turn right); target_position/target_yaw_deg drive
    flight.
    """

    mode: Mode
    speed_mps: float = 0.0
    yaw_rate_radps: float = 0.0
    target_position: tuple[float, float, float] | None = None
    target_yaw_deg: float = 0.0
    envelope_mps: float = DEFAULT_SPEED_ENVELOPE_MPS

    def __post_init__(self):
        if abs(self.speed_mps) > self.envelope_mps + 1e-9:
            raise ValueError(
                f"speed target {self.speed_mps} m/s outside envelope "
                f"+-{self.envelope_mps} m/s"
            )


@dataclass(frozen=True)
class SurfaceModel:
    """What the wheels are touching. slope_deg is only read for inclines."""

    kind: str = "flat"  # flat | incline | wall
    slope_deg: float = 0.0
    rolling_resistance: float | None = None  # None -> vehicle default
    lateral_friction: float | None = None

    def __post_init__(self):
        if self.kind not in ("flat", "incline", "wall"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.kind == "incline" and not 0.0 <= self.slope_deg < 90.0:
            raise ValueError("incline slope must be in [0, 90) deg")

    def mu_roll(self, params: VehicleParams) -> float:
        if self.rolling_resistance is not None:
            return self.rolling_resistance
        return params.rolling_resistance_coeff

    def mu_lat(self, params: VehicleParams) -> float:
        if self.lateral_friction is not None:
            return self.lateral_friction
        return params.lateral_friction_coeff


@dataclass(frozen=True)
class ControllerGains:
    """Loop gains and limits; tuned against the closed-loop response tests."""

    kp_speed: float = 20.0  # N per m/s of speed error (ground/incline/wall)
    kp_yaw_rate: float = 12.0  # N m per rad/s of yaw-rate error
    kp_pos: float = 4.0  # 1/s^2, flight position loop
    kd_pos: float = 4.0  # 1/s, flight velocity damping (critically damped pair)
    kp_yaw: float = 2.0  # 1/s, flight heading loop
    max_yaw_rate_radps: float = 1.5
    max_flight_accel_mps2: float = 15.0  # horizontal authority at T/W 1.84
    geofence_radius_m: float = 200.0
    overlap_band_command: float = 0.02  # max simultaneous front+rear command
    attach_normal_fraction: float = statics.DEFAULT_ATTACH_NORMAL_FRACTION


def _sgn(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def ground_allocation(
    params: VehicleParams,
    rotor: RotorModel,
    f_long_n: float,
    yaw_moment_nm: float,
) -> tuple[float, float, float, float]:
    """Map a longitudinal force + yaw moment demand to four rotor commands.

    With the axles at 90 deg the front rotors pull rearward and the rear
    rotors push forward, so each side realizes a signed net force with one
    rotor active at a time. The yaw differential is clamped so the requested
    longitudinal sum survives saturation.
    """
    f_max = rotor.max_thrust
    b = params.wheel_contact_half_spacing_lat
    f_long = max(-2.0 * f_max, min(2.0 * f_max, f_long_n))
    delta = yaw_moment_nm / (2.0 * b)  # right-side-forward minus half-sum
    headroom = f_max - abs(f_long) / 2.0
    delta = max(-headroom, min(headroom, delta))
    left = f_long / 2.0 - delta
    right = f_long / 2.0 + delta
    cmd = [0.0, 0.0, 0.0, 0.0]  # fl, fr, rl, rr
    if left >= 0.0:
        cmd[2] = rotor.command_at(min(left, f_max))
    else:
        cmd[0] = rotor.command_at(min(-left, f_max))
    if right >= 0.0:
        cmd[3] = rotor.command_at(min(right, f_max))
    else:
        cmd[1] = rotor.command_at(min(-right, f_max))
    return tuple(cmd)


def _ground_net_force_moment(
    params: VehicleParams, rotor: RotorModel, commands
) -> tuple[float, float]:
    """Net forward force (N) and up-axis moment (N m) realized by commands."""
    t_fl, t_fr, t_rl, t_rr = (rotor.thrust_at(c) for c in commands)
    b = params.wheel_contact_half_spacing_lat
    left = t_rl - t_fl
    right = t_rr - t_fr
    return left + right, b * (right - left)


def _ground_longitudinal_force(
    params: VehicleParams,
    surface: SurfaceModel,
    v: float,
    v_target: float,
    gains: ControllerGains,
    payload: float,
) -> float:
    """Along-track force demand (N) at speed v: gravity and rolling
    resistance feedforward plus the proportional speed loop."""
    m = params.total_mass(payload)
    g = params.gravity
    psi = math.radians(surface.slope_deg) if surface.kind == "incline" else 0.0
    force = m * g * math.sin(psi)
    if v_target != 0.0:
        force += surface.mu_roll(params) * m * g * math.cos(psi) * _sgn(v_target)
    return force + gains.kp_speed * (v_target - v)


def ground_longitudinal_control(
    params: VehicleParams,
    rotor: RotorModel,
    state: SimState,
    v_target: float,
    gains: ControllerGains | None = None,
    surface: SurfaceModel | None = None,
    payload: float = 0.0,
) -> tuple[float, float, float, float]:
    """Speed-tracking rotor commands for ground or incline operation.

    Feedforward holds gravity and rolling resistance, a proportional term
    closes the loop; acceleration demands land on the rear pair and braking
    on the front pair.
    """
    gains = gains or ControllerGains()
    surface = surface or SurfaceModel()
    v = along_track_speed(state, surface)
    force = _ground_longitudinal_force(params, surface, v, v_target, gains, payload)
    return ground_allocation(params, rotor, force, 0.0)


def ground_yaw_control(
    params: VehicleParams,
    rotor: RotorModel,
    state: SimState,
    yaw_rate_target: float,
    gains: ControllerGains | None = None,
    payload: float = 0.0,
) -> float:
    """Left/right thrust differential (N) for a yaw-rate target.

    Positive target = turn right (clockwise from above). The returned value
    is the per-side force offset: right-side net force minus the half-sum.
    Feedforward cancels the lateral-friction moment of the fixed wheels.
    """
    gains = gains or ControllerGains()
    r_target = -yaw_rate_target  # driving convention -> CCW-positive internal
    r = state.angular_velocity[2]
    m = params.total_mass(payload)
    friction_moment = (
        params.lateral_friction_coeff
        * m
        * params.gravity
        * params.wheel_contact_half_spacing_long
        * _sgn(r_target)
    )
    moment = friction_moment + gains.kp_yaw_rate * (r_target - r)
    return moment / (2.0 * params.wheel_contact_half_spacing_lat)


def along_track_speed(state: SimState, surface: SurfaceModel) -> float:
    if surface.kind == "incline":
        psi = math.radians(surface.slope_deg)
        return state.velocity[0] * math.cos(psi) + state.velocity[2] * math.sin(psi)
    if surface.kind == "wall":
        return state.velocity[2]
    yaw = state.yaw_rad
    return state.velocity[0] * math.cos(yaw) + state.velocity[1] * math.sin(yaw)


def flight_position_control(
    params: VehicleParams,
    rotor: RotorModel,
    state: SimState,
    target_position: tuple[float, float, float],
    gains: ControllerGains | None = None,
    payload: float = 0.0,
) -> tuple[tuple[float, float, float, float], list[float], float]:
    """Position-hold commands from the cascaded proportional loops, with the
    commanded acceleration vector and its norm that the thrust follows.

    Point-mass abstraction: the attitude loop is assumed fast enough that
    the thrust vector tracks the commanded acceleration direction within a
    step. Hover at the target is a fixed point of the loop.
    """
    gains = gains or ControllerGains()
    radius = math.sqrt(sum(c * c for c in target_position[:2]))
    if radius > gains.geofence_radius_m:
        raise GeofenceError(
            f"target {radius:.1f} m from origin exceeds geofence "
            f"{gains.geofence_radius_m:.1f} m"
        )
    gravity = params.gravity
    err = [t - p for t, p in zip(target_position, state.position)]
    acc = [gains.kp_pos * e - gains.kd_pos * v for e, v in zip(err, state.velocity)]
    h = math.sqrt(acc[0] ** 2 + acc[1] ** 2)
    if h > gains.max_flight_accel_mps2:
        scale = gains.max_flight_accel_mps2 / h
        acc[0] *= scale
        acc[1] *= scale
    acc[2] += gravity
    # rotors cannot pull down; free fall is the hardest the loop may command
    acc[2] = max(0.0, min(acc[2], gravity + gains.max_flight_accel_mps2))
    mag = math.sqrt(sum(a * a for a in acc))
    per_rotor = min(params.total_mass(payload) * mag / 4.0, rotor.max_thrust)
    c = rotor.command_at(per_rotor)
    return (c, c, c, c), acc, mag


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
        a = max(0.0, min(1.0, a))
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
    t_tilt_s: float = 1.0,
    surface: SurfaceModel | None = None,
    params: VehicleParams | None = None,
) -> TiltSchedule:
    """Plan the axle tilt ramp into another mode, enforcing the envelope.

    Ground<->Flight requires standing on the surface at near-zero speed
    (the tilt sweep passes through thrust directions that would fight the
    airframe anywhere else). Wall entry/exit requires near-zero speed too.
    """
    params = params or _default_params()
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
        duration_s=t_tilt_s,
        start_front_deg=state.tilt_front_deg,
        start_rear_deg=state.tilt_rear_deg,
        end_front_deg=end_front,
        end_rear_deg=end_rear,
        target_mode=target_mode,
    )


def begin_transition(state: SimState) -> SimState:
    """Mark a state as mid-transition; step it with the planned schedule."""
    return replace(state, mode=Mode.TRANSITION)


def replace_velocity(state: SimState, velocity: tuple[float, float, float]) -> SimState:
    """Copy of a state with the velocity overridden (setup helper)."""
    return replace(state, velocity=tuple(velocity))


def _height_above_surface(
    state: SimState, surface: SurfaceModel | None, params: VehicleParams
) -> float:
    surface = surface or SurfaceModel()
    if surface.kind == "incline":
        psi = math.radians(surface.slope_deg)
        rest = state.position[0] * math.tan(psi) + params.com_height
    else:
        rest = params.com_height
    return state.position[2] - rest


def _default_params() -> VehicleParams:
    from .defaults import default_params

    return default_params()


def _default_rotor() -> RotorModel:
    from .defaults import default_rotor

    return default_rotor()


def _check_finite(values, state: SimState) -> None:
    for v in values:
        if not math.isfinite(v):
            raise SimulationFault("non-finite value in integration step", state)


def _check_inputs_finite(state: SimState, setpoint: ControlSetpoint) -> None:
    values = [
        *state.position, *state.velocity, *state.quaternion,
        *state.angular_velocity, state.tilt_front_deg, state.tilt_rear_deg,
        setpoint.speed_mps, setpoint.yaw_rate_radps,
    ]
    if setpoint.target_position is not None:
        values.extend(setpoint.target_position)
    for v in values:
        if not math.isfinite(v):
            raise SimulationFault("non-finite value in state or setpoint", state)


def step(
    state: SimState,
    setpoint: ControlSetpoint,
    surface: SurfaceModel,
    dt_s: float,
    params: VehicleParams | None = None,
    rotor: RotorModel | None = None,
    gains: ControllerGains | None = None,
    payload: float = 0.0,
    schedule: TiltSchedule | None = None,
) -> SimState:
    """Advance one control + integration step. Pure function of its inputs."""
    if not 0.0 < dt_s <= DT_MAX_S:
        raise ValueError(f"dt {dt_s} outside (0, {DT_MAX_S}] s")
    _check_inputs_finite(state, setpoint)
    params = params or _default_params()
    rotor = rotor or _default_rotor()
    gains = gains or ControllerGains()
    if state.mode in (Mode.GROUND, Mode.INCLINE):
        new = _step_ground(state, setpoint, surface, dt_s, params, rotor, gains, payload)
    elif state.mode == Mode.WALL:
        new = _step_wall(state, setpoint, dt_s, params, rotor, gains, payload)
    elif state.mode == Mode.FLIGHT:
        new = _step_flight(state, setpoint, dt_s, params, rotor, gains, payload)
    elif state.mode == Mode.TRANSITION:
        new = _step_transition(state, dt_s, schedule)
    else:
        raise ValueError(f"unknown mode {state.mode}")
    _check_finite(
        (*new.position, *new.velocity, *new.quaternion, *new.angular_velocity), state
    )
    return new


def _step_ground(
    state: SimState,
    setpoint: ControlSetpoint,
    surface: SurfaceModel,
    dt: float,
    params: VehicleParams,
    rotor: RotorModel,
    gains: ControllerGains,
    payload: float,
) -> SimState:
    m = params.total_mass(payload)
    g = params.gravity
    psi = math.radians(surface.slope_deg) if surface.kind == "incline" else 0.0
    if surface.kind == "incline" and surface.slope_deg >= statics.tipping_slope(params):
        raise TipEvent(
            f"slope {surface.slope_deg:.2f} deg is at or beyond the "
            f"{statics.tipping_slope(params):.2f} deg tip limit",
            state,
        )
    v = along_track_speed(state, surface)
    force_cmd = _ground_longitudinal_force(
        params, surface, v, setpoint.speed_mps, gains, payload
    )
    moment_cmd = 0.0
    if surface.kind == "flat":
        diff = ground_yaw_control(
            params, rotor, state, setpoint.yaw_rate_radps, gains, payload
        )
        moment_cmd = diff * 2.0 * params.wheel_contact_half_spacing_lat
    commands = ground_allocation(params, rotor, force_cmd, moment_cmd)
    f_net, m_net = _ground_net_force_moment(params, rotor, commands)

    mu_r = surface.mu_roll(params)
    grade = m * g * math.sin(psi)
    normal = m * g * math.cos(psi)
    drive = f_net - grade
    if v == 0.0 and abs(drive) <= mu_r * normal:
        accel = 0.0
        v_new = 0.0
    else:
        resist = mu_r * normal * _sgn(v if v != 0.0 else drive)
        accel = (drive - resist) / m
        v_new = v + accel * dt
        if v != 0.0 and v * v_new < 0.0 and abs(drive) <= mu_r * normal:
            v_new = 0.0  # rolling resistance stops the coast, it never reverses it

    if surface.kind == "incline":
        r_new = 0.0
        yaw_new = state.yaw_rad
    else:
        mu_l = surface.mu_lat(params)
        r = state.angular_velocity[2]
        fric_cap = mu_l * m * g * params.wheel_contact_half_spacing_long
        if r == 0.0 and abs(m_net) <= fric_cap:
            r_new = 0.0
        else:
            m_fric = fric_cap * _sgn(r if r != 0.0 else m_net)
            r_dot = (m_net - m_fric) / params.inertia[2]
            r_new = r + r_dot * dt
            if r != 0.0 and r * r_new < 0.0 and abs(m_net) <= fric_cap:
                r_new = 0.0
        yaw_new = state.yaw_rad + r_new * dt

    if surface.kind == "incline":
        direction = (math.cos(psi), 0.0, math.sin(psi))
    else:
        direction = (math.cos(yaw_new), math.sin(yaw_new), 0.0)
    velocity = tuple(v_new * d for d in direction)
    position = tuple(p + vel * dt for p, vel in zip(state.position, velocity))
    return replace(
        state,
        time_s=state.time_s + dt,
        position=position,
        velocity=velocity,
        quaternion=_yaw_quaternion(yaw_new),
        angular_velocity=(0.0, 0.0, r_new),
        rotor_commands=commands,
        contact=(True, True, True, True),
    )


def _step_wall(
    state: SimState,
    setpoint: ControlSetpoint,
    dt: float,
    params: VehicleParams,
    rotor: RotorModel,
    gains: ControllerGains,
    payload: float,
) -> SimState:
    m = params.total_mass(payload)
    g = params.gravity
    tilt = 0.5 * (state.tilt_front_deg + state.tilt_rear_deg)
    gamma = math.radians(tilt - 90.0)
    if gamma <= 0.0:
        raise DetachEvent("wall mode needs tilt > 90 deg", state)
    v = state.velocity[2]
    v_t = setpoint.speed_mps
    mu_r = params.rolling_resistance_coeff
    den = math.cos(gamma) - mu_r * math.sin(gamma) * _sgn(v_t)
    thrust_ff = m * g / den if den > 0.0 else 4.0 * rotor.max_thrust
    thrust_cmd = thrust_ff + gains.kp_speed * (v_t - v)
    per_rotor = max(0.0, min(thrust_cmd / 4.0, rotor.max_thrust))
    c = rotor.command_at(per_rotor)
    commands = (c, c, c, c)
    thrust = 4.0 * rotor.thrust_at(c)

    normal = thrust * math.sin(gamma)
    if normal < gains.attach_normal_fraction * m * g:
        raise DetachEvent(
            f"wall normal force {normal:.2f} N below the attachment "
            f"threshold {gains.attach_normal_fraction * m * g:.2f} N",
            state,
        )
    lift = thrust * math.cos(gamma) - m * g
    # the wheels roll freely along the climb axis; static friction only holds
    # the vehicle when the controller wants it parked (brake engaged)
    parked = v_t == 0.0 and abs(lift) <= params.wall_friction_coeff * normal
    if v == 0.0 and parked:
        v_new = 0.0
    else:
        resist = mu_r * normal * _sgn(v if v != 0.0 else lift)
        v_new = v + (lift - resist) / m * dt
        if v != 0.0 and v * v_new < 0.0 and parked:
            v_new = 0.0
    position = (state.position[0], state.position[1], state.position[2] + v_new * dt)
    return replace(
        state,
        time_s=state.time_s + dt,
        position=position,
        velocity=(0.0, 0.0, v_new),
        quaternion=_WALL_QUATERNION,
        angular_velocity=(0.0, 0.0, 0.0),
        rotor_commands=commands,
        contact=(True, True, True, True),
    )


def _step_flight(
    state: SimState,
    setpoint: ControlSetpoint,
    dt: float,
    params: VehicleParams,
    rotor: RotorModel,
    gains: ControllerGains,
    payload: float,
) -> SimState:
    if setpoint.target_position is None:
        raise ValueError("flight mode needs a target_position setpoint")
    commands, acc_cmd, mag = flight_position_control(
        params, rotor, state, setpoint.target_position, gains, payload
    )
    m = params.total_mass(payload)
    g = params.gravity
    thrust = 4.0 * rotor.thrust_at(commands[0])
    if mag > 1e-12:
        direction = tuple(a / mag for a in acc_cmd)
    else:
        direction = (0.0, 0.0, 1.0)
    accel = tuple(thrust / m * d - (g if i == 2 else 0.0) for i, d in enumerate(direction))
    velocity = tuple(v + a * dt for v, a in zip(state.velocity, accel))
    position = tuple(p + v * dt for p, v in zip(state.position, velocity))

    yaw = state.yaw_rad
    err = _wrap_angle(math.radians(setpoint.target_yaw_deg) - yaw)
    rate = max(-gains.max_yaw_rate_radps, min(gains.max_yaw_rate_radps, gains.kp_yaw * err))
    yaw_new = yaw + rate * dt
    return replace(
        state,
        time_s=state.time_s + dt,
        position=position,
        velocity=velocity,
        quaternion=_yaw_quaternion(yaw_new),
        angular_velocity=(0.0, 0.0, rate),
        rotor_commands=commands,
        contact=(False, False, False, False),
    )


def _step_transition(state: SimState, dt: float, schedule: TiltSchedule | None) -> SimState:
    if schedule is None:
        raise ValueError("transition mode needs the active TiltSchedule")
    t_new = state.time_s + dt
    front, rear = schedule.tilts_at(t_new)
    mode = state.mode
    contact = state.contact
    if schedule.done(t_new):
        mode = schedule.target_mode
        if mode in (Mode.GROUND, Mode.INCLINE, Mode.WALL):
            contact = (True, True, True, True)
        else:
            contact = state.contact
    return replace(
        state,
        time_s=t_new,
        velocity=(0.0, 0.0, 0.0),
        angular_velocity=(0.0, 0.0, 0.0),
        tilt_front_deg=front,
        tilt_rear_deg=rear,
        rotor_commands=(0.0, 0.0, 0.0, 0.0),
        mode=mode,
        contact=contact,
    )


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
    params = params or _default_params()
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


def initial_wall_state(
    params: VehicleParams | None = None,
    height_m: float = 0.0,
    tilt_deg: float = WALL_TILT_DEG,
) -> SimState:
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
