import dataclasses
import math
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from flydrive import dynamics
from flydrive.dynamics import (
    ControlSetpoint,
    DetachEvent,
    GeofenceError,
    Mode,
    SimulationFault,
    SurfaceModel,
    TipEvent,
    TransitionEnvelopeError,
    ground_allocator,
    initial_flight_state,
    initial_ground_state,
    initial_wall_state,
    mode_transition,
    quaternion_yaw,
)
from flydrive.defaults import default_params, default_rotor
from flydrive.fields import FieldError
from flydrive.simulator import ScriptEvent, Simulator
from flydrive.statics import tipping_slope
from flydrive.vehicle import RotorModel
from reference_rotor import outcome, reference_ground_allocation
from reference_simulator import is_steady, step

FLAT = SurfaceModel()


def run_ground(params, rotor, setpoint, seconds, dt=0.001, surface=FLAT, state=None):
    s = state if state is not None else initial_ground_state(params, surface)
    for _ in range(int(round(seconds / dt))):
        s = step(s, setpoint, surface, dt, params=params, rotor=rotor)
    return s


class TestGroundBasics:
    def test_zero_setpoint_is_fixed_point(self, params, rotor):
        s0 = initial_ground_state(params)
        sp = ControlSetpoint(mode=Mode.GROUND)
        s1 = step(s0, sp, FLAT, 0.001, params=params, rotor=rotor)
        assert s1.position == s0.position
        assert s1.velocity == (0.0, 0.0, 0.0)
        assert s1.rotor_commands == (0.0, 0.0, 0.0, 0.0)
        assert s1.time_s == pytest.approx(0.001)

    def test_speed_tracking_one_mps(self, params, rotor):
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=1.0)
        s = run_ground(params, rotor, sp, 10.0)
        assert abs(s.speed - 1.0) <= 0.05

    def test_speed_envelope_enforced(self):
        with pytest.raises(ValueError):
            ControlSetpoint(mode=Mode.GROUND, speed_mps=5.0)

    def test_dt_validation(self, params, rotor):
        s = initial_ground_state(params)
        sp = ControlSetpoint(mode=Mode.GROUND)
        with pytest.raises(ValueError):
            step(s, sp, FLAT, 0.0, params=params, rotor=rotor)
        with pytest.raises(ValueError):
            step(s, sp, FLAT, 0.05, params=params, rotor=rotor)

    def test_contact_normal_velocity_zero(self, params, rotor):
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=1.5)
        s = initial_ground_state(params)
        for _ in range(2000):
            s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
            assert abs(s.velocity[2]) <= 1e-6
            assert all(s.contact)

    def test_incline_contact_velocity(self, params, rotor):
        surf = SurfaceModel(kind="incline", slope_deg=20.0)
        sp = ControlSetpoint(mode=Mode.INCLINE, speed_mps=1.0)
        s = initial_ground_state(params, surf)
        psi = math.radians(20.0)
        normal = (-math.sin(psi), 0.0, math.cos(psi))
        for _ in range(2000):
            s = step(s, sp, surf, 0.001, params=params, rotor=rotor)
            vn = sum(n * v for n, v in zip(normal, s.velocity))
            assert abs(vn) <= 1e-6

    def test_coast_kinetic_energy_non_increasing(self, params, rotor, monkeypatch):
        # zero gains and zero target force the commands to stay at zero,
        # so only rolling resistance acts on the initial momentum
        monkeypatch.setattr(dynamics, "KP_SPEED", 0.0)
        monkeypatch.setattr(dynamics, "KP_YAW_RATE", 0.0)
        s = initial_ground_state(params)
        s = replace(s, velocity=(1.2, 0.0, 0.0))
        sp = ControlSetpoint(mode=Mode.GROUND)
        ke_prev = 0.5 * params.total_mass() * s.speed ** 2
        for _ in range(5000):
            s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
            assert s.rotor_commands == (0.0, 0.0, 0.0, 0.0)
            ke = 0.5 * params.total_mass() * s.speed ** 2
            assert ke <= ke_prev + 1e-15
            ke_prev = ke
        assert s.speed == 0.0  # rolling resistance parked it

    def test_braking_stops_without_reversing(self, params, rotor):
        s = initial_ground_state(params)
        s = replace(s, velocity=(1.0, 0.0, 0.0))
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=0.0)
        for _ in range(5000):
            s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
            assert s.velocity[0] >= -1e-12
        assert s.speed == 0.0

    def test_vertical_thrust_cancels_at_ninety_degrees(self, params, rotor):
        # the tilted thrust axes are horizontal: z-force from rotors is zero
        # by construction, checked here via the z-velocity staying put
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=4.0)
        s = initial_ground_state(params)
        for _ in range(3000):
            s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
        assert s.tilt_front_deg == 90.0 and s.tilt_rear_deg == 90.0
        assert s.position[2] == params.com_height
        assert s.velocity[2] == 0.0

    def test_halving_dt_changes_little(self, params, rotor):
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=2.0)
        coarse = run_ground(params, rotor, sp, 10.0, dt=0.002)
        fine = run_ground(params, rotor, sp, 10.0, dt=0.001)
        dist = math.dist(coarse.position, fine.position)
        assert dist / max(1.0, math.dist((0, 0, 0), fine.position)) < 0.01

    def test_determinism_bitwise(self, params, rotor):
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=1.7, yaw_rate_radps=0.2)
        a = run_ground(params, rotor, sp, 3.0)
        b = run_ground(params, rotor, sp, 3.0)
        assert a == b

    def test_tip_event_past_limit(self, params, rotor):
        surf = SurfaceModel(kind="incline", slope_deg=61.0)
        s = initial_ground_state(params, surf)
        sp = ControlSetpoint(mode=Mode.INCLINE, speed_mps=0.5)
        with pytest.raises(TipEvent):
            step(s, sp, surf, 0.001, params=params, rotor=rotor)


class TestLongitudinalAllocation:
    """The speed loop's rotor commands, read off one `step` from a state
    moving along +x."""

    @staticmethod
    def commands(params, rotor, speed, v_target):
        s = replace(initial_ground_state(params), velocity=(speed, 0.0, 0.0))
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=v_target)
        return step(s, sp, FLAT, 0.001, params=params, rotor=rotor).rotor_commands

    def test_accelerate_uses_rear_pair(self, params, rotor):
        fl, fr, rl, rr = self.commands(params, rotor, 0.0, 2.0)
        assert rl > fl and rr > fr
        assert fl == 0.0 and fr == 0.0

    def test_decelerate_uses_front_pair(self, params, rotor):
        fl, fr, rl, rr = self.commands(params, rotor, 2.0, 0.0)
        assert fl > rl and fr > rr
        assert rl == 0.0 and rr == 0.0

    def test_on_target_commands_at_rolling_trim(self, params, rotor):
        cmds = self.commands(params, rotor, 1.0, 1.0)
        total = sum(rotor.thrust_at(c) for c in cmds)
        trim = params.rolling_resistance_coeff * params.total_mass() * params.gravity
        assert total == pytest.approx(trim, rel=1e-6)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        f_long=st.floats(min_value=-30.0, max_value=30.0),
        moment=st.floats(min_value=-40.0, max_value=40.0),
    )
    def test_one_rotor_per_side_engaged(self, f_long, moment):
        from flydrive.defaults import default_params, default_rotor

        params, rotor = default_params(), default_rotor()
        fl, fr, rl, rr, _, _ = ground_allocator(params, rotor)(f_long, moment)
        # per side, front and rear are never simultaneously engaged
        assert min(fl, rl) == 0.0 and min(fr, rr) == 0.0

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(f_long=st.floats(min_value=-30.0, max_value=30.0))
    def test_saturated_differential_preserves_longitudinal(self, f_long):
        from flydrive.defaults import default_params, default_rotor

        params, rotor = default_params(), default_rotor()
        huge_moment = 100.0  # far past what the headroom allows
        *_, realized, _ = ground_allocator(params, rotor)(f_long, huge_moment)
        cap = 2.0 * rotor.max_thrust
        want = max(-cap, min(cap, f_long))
        assert realized == pytest.approx(want, rel=0.01, abs=1e-9)


    def test_fused_allocation_matches_reference(self, params, rotor):
        """Commands, force and moment equal, bit for bit, those of the
        allocation that looked up each rotor on its own, over random
        demands up to four times the saturating force and far past the
        moment headroom, straight demands, and exact zeros."""
        rng = random.Random(20230302)
        cap = 2.0 * rotor.max_thrust
        demands = [(rng.uniform(-4.0 * cap, 4.0 * cap), rng.uniform(-200.0, 200.0))
                   for _ in range(20000)]
        demands += [(rng.uniform(-cap, cap), 0.0) for _ in range(2000)]
        demands += [(f, m) for f in (0.0, -0.0, cap, -cap, 1e300, -1e300)
                    for m in (0.0, -0.0, 1e-300, 1e300, -1e300)]
        # no moment headroom at all (a clamp to +-0.0), with moments up to
        # the whole headroom of a demand of no force
        h = 2.0 * params.wheel_contact_half_spacing_lat * rotor.max_thrust
        demands += [(f, m) for f in (cap, -cap)
                    for m in (0.0, -0.0, 1e-300, -1e-300, h, -h)]
        allocate = ground_allocator(params, rotor)
        for f_long, moment in demands:
            want = reference_ground_allocation(params, rotor, f_long, moment)
            assert repr(allocate(f_long, moment)) == repr(want), (f_long, moment)

    def test_fused_allocation_raises_as_reference(self, params):
        """On a table whose end commands stray from [0, 1] by 1e-13 (its
        idle rotor then gives thrust_at(0.0) > 0), each demand returns or
        raises what the reference does, the same message included; a
        side that asks for no thrust, or for full thrust, raises."""
        commands = (-1e-13, 0.25, 0.5, 1.0 + 1e-13)
        rotor = RotorModel(commands, (0.0, 2.0, 7.0, 18.0), (0.0, 20.0, 80.0, 350.0))
        assert rotor.thrust_at(0.0) > 0.0
        f_max, b = rotor.max_thrust, params.wheel_contact_half_spacing_lat
        rng = random.Random(20230303)
        demands = [(rng.uniform(-40.0, 40.0), rng.uniform(-20.0, 20.0)) for _ in range(5000)]
        # the left side asks for 0 N and the right side for full thrust,
        # forward (the left side raises first) or rearward (the right does)
        edges = {(f_max, b * f_max): "command -1e-13 outside [0, 1]",
                 (-f_max, -b * f_max): "command 1.0000000000001 outside [0, 1]"}
        allocate = ground_allocator(params, rotor)
        for f_long, moment in [*demands, *edges]:
            got = outcome(allocate, f_long, moment)
            assert got == outcome(reference_ground_allocation, params, rotor, f_long, moment)
        for demand, message in edges.items():
            assert outcome(allocate, *demand) == ("ValueError", message)


class TestYawControl:
    def test_zero_target_zero_differential(self, params, rotor):
        s = initial_ground_state(params)
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=1.0)
        s1 = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
        fl, fr, rl, rr = s1.rotor_commands
        assert (fl, rl) == (fr, rr) and rl > 0.0  # both sides alike
        assert s1.angular_velocity == (0.0, 0.0, 0.0)

    def test_positive_target_turns_right(self, params, rotor):
        # drive at speed with a right-turn command and check the heading drops
        # (negative yaw in the ENU frame) and the left side out-thrusts the right
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=1.0, yaw_rate_radps=0.4)
        s = initial_ground_state(params)
        for _ in range(4000):
            s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
        assert math.degrees(quaternion_yaw(s.quaternion)) < -5.0
        fl, fr, rl, rr = s.rotor_commands
        left = rotor.thrust_at(rl) - rotor.thrust_at(fl)
        right = rotor.thrust_at(rr) - rotor.thrust_at(fr)
        assert left > right

    def test_yaw_rate_converges(self, params, rotor):
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=1.0, yaw_rate_radps=0.3)
        s = initial_ground_state(params)
        for _ in range(6000):
            s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
        assert s.angular_velocity[2] == pytest.approx(-0.3, abs=0.03)


class TestWall:
    def test_climb_tracks_setpoint(self, params, rotor):
        surf = SurfaceModel(kind="wall")
        s = initial_wall_state()
        sp = ControlSetpoint(mode=Mode.WALL, speed_mps=0.3)
        for _ in range(8000):
            s = step(s, sp, surf, 0.001, params=params, rotor=rotor)
        assert s.velocity[2] == pytest.approx(0.3, abs=0.015)
        assert s.position[2] > 2.0

    def test_hold_then_park(self, params, rotor):
        surf = SurfaceModel(kind="wall")
        s = initial_wall_state()
        sp = ControlSetpoint(mode=Mode.WALL, speed_mps=0.0)
        for _ in range(2000):
            s = step(s, sp, surf, 0.001, params=params, rotor=rotor)
        assert s.velocity[2] == 0.0
        assert s.position[2] == 0.0

    def test_detach_without_wall_pressure(self, params, rotor):
        surf = SurfaceModel(kind="wall")
        s = initial_wall_state(tilt_deg=90.0)  # thrust parallel to wall
        sp = ControlSetpoint(mode=Mode.WALL, speed_mps=0.2)
        with pytest.raises(DetachEvent):
            step(s, sp, surf, 0.001, params=params, rotor=rotor)


class TestFlight:
    def test_hover_is_fixed_point(self, params, rotor):
        s = initial_flight_state((0.0, 0.0, 2.0))
        sp = ControlSetpoint(mode=Mode.FLIGHT, target_position=(0.0, 0.0, 2.0))
        for _ in range(3000):
            s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
        assert math.dist(s.position, (0.0, 0.0, 2.0)) < 1e-6
        thrust = sum(rotor.thrust_at(c) for c in s.rotor_commands)
        weight = params.total_mass() * params.gravity
        assert abs(thrust - weight) / weight < 0.02

    def test_one_meter_climb_monotone_small_overshoot(self, params, rotor):
        s = initial_flight_state((0.0, 0.0, 1.0))
        sp = ControlSetpoint(mode=Mode.FLIGHT, target_position=(0.0, 0.0, 2.0))
        z_prev, z_max = 1.0, 1.0
        for _ in range(10000):
            s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
            z = s.position[2]
            assert z >= z_prev - 1e-9  # monotone rise
            z_prev = z
            z_max = max(z_max, z)
        assert abs(s.position[2] - 2.0) < 0.01
        assert z_max - 2.0 < 0.2  # < 20% of the 1 m step

    def test_commanded_thrust_bounded(self, params, rotor):
        s = initial_flight_state((0.0, 0.0, 1.0))
        s = replace(s, velocity=(0.0, 0.0, -3.0))
        sp = ControlSetpoint(mode=Mode.FLIGHT, target_position=(0.0, 0.0, 50.0))
        for _ in range(500):
            s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
            assert all(0.0 <= c <= 1.0 for c in s.rotor_commands)

    def test_geofence_rejected(self, params, rotor):
        s = initial_flight_state((0.0, 0.0, 2.0))
        sp = ControlSetpoint(mode=Mode.FLIGHT, target_position=(500.0, 0.0, 2.0))
        with pytest.raises(GeofenceError):
            step(s, sp, FLAT, 0.001, params=params, rotor=rotor)

    # a yaw quaternion never reads as yaw -0.0 (w * z + 0.0 * 0.0 is +0.0
    # for z = -0.0); this one does, through x * y = -0.0
    YAW_MINUS_ZERO = (1.0, -0.0, 0.0, -0.0)

    @pytest.mark.parametrize("start, target_yaw_deg, n, yaw_moves", [
        (29.9, 30.0, 12500, "settles"),  # the yaw's bits stop changing
        (10.0, 0.0, 3000, "never settles"),  # the yaw changes every step
        # yaw -0.0, then 0.0: only the rate, 0.0 then -0.0, tells the steps apart
        (YAW_MINUS_ZERO, -0.0, 50, "settles"),
        (YAW_MINUS_ZERO, 0.0, 50, "settles"),
        (170.0, -170.0, 3000, "wraps"),  # past +pi to -pi
        (-170.0, 170.0, 3000, "wraps"),  # past -pi to +pi
    ])
    def test_one_law_matches_a_fresh_law_per_step(self, params, rotor, start,
                                                  target_yaw_deg, n, yaw_moves):
        """Stepping one flight law n times, which reuses its yaw loop while
        the yaw's bits hold, gives every float of n `step` calls, which
        build a fresh law each time; compared by repr, so -0.0 is not 0.0.
        `start` is the initial yaw in degrees, or the initial quaternion."""
        if isinstance(start, tuple):
            s = replace(initial_flight_state((0.0, 0.0, 2.0)), quaternion=start)
        else:
            s = initial_flight_state((0.0, 0.0, 2.0), yaw_deg=start)
        sp = ControlSetpoint(mode=Mode.FLIGHT, target_position=(1.0, -2.0, 3.0),
                             target_yaw_deg=target_yaw_deg)
        advance = dynamics.step_law(s, sp, FLAT, 0.001, params, rotor)
        f = dynamics.floats_of(s, FLAT)
        yaws = [f[dynamics.YAW]]
        for _ in range(n):
            f = advance(f)
            s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
            assert repr(f) == repr(dynamics.floats_of(s, FLAT))
            yaws.append(f[dynamics.YAW])
        moves = [repr(a) != repr(b) for a, b in zip(yaws, yaws[1:])]
        if yaw_moves == "settles":
            assert not any(moves[-20:]) and any(moves)
        elif yaw_moves == "never settles":
            assert all(moves)
        else:
            assert any(a * b < 0.0 and abs(a) > 3.0 for a, b in zip(yaws, yaws[1:]))

    def test_nan_target_is_refused(self):
        with pytest.raises(FieldError) as err:
            ControlSetpoint(mode=Mode.FLIGHT, target_position=(math.nan, 0.0, 2.0))
        assert err.value.key == "target_position"

    def test_nan_state_faults(self, params, rotor):
        s = replace(initial_flight_state((0.0, 0.0, 2.0)), velocity=(math.nan, 0.0, 0.0))
        sp = ControlSetpoint(mode=Mode.FLIGHT, target_position=(0.0, 0.0, 2.0))
        with pytest.raises(SimulationFault, match="non-finite value in integration step"):
            step(s, sp, FLAT, 0.001, params=params, rotor=rotor)


class TestTransitions:
    def finish(self, state, schedule, surface, params, rotor, dt=0.001):
        sp = ControlSetpoint(mode=Mode.TRANSITION)
        state = dynamics.begin_transition(state)
        while state.mode == Mode.TRANSITION:
            state = step(state, sp, surface, dt, params=params, rotor=rotor,
                         schedule=schedule)
        return state

    def test_landing_transition_completes(self, params, rotor):
        s = initial_flight_state((0.0, 0.0, params.com_height))
        schedule = mode_transition(s, Mode.GROUND, surface=FLAT, params=params)
        assert (schedule.end_front_deg, schedule.end_rear_deg) == (90.0, 90.0)
        s = self.finish(s, schedule, FLAT, params, rotor)
        assert s.mode == Mode.GROUND
        assert s.tilt_front_deg == 90.0 and s.tilt_rear_deg == 90.0
        assert all(s.contact)

    def test_ground_to_wall_tilts(self, params, rotor):
        s = initial_ground_state(params)
        schedule = mode_transition(s, Mode.WALL, surface=FLAT, params=params)
        assert (schedule.end_front_deg, schedule.end_rear_deg) == (135.0, 135.0)
        s = self.finish(s, schedule, FLAT, params, rotor)
        assert s.mode == Mode.WALL
        assert s.tilt_front_deg == 135.0 and s.tilt_rear_deg == 135.0

    def test_landing_at_altitude_rejected(self, params):
        s = initial_flight_state((0.0, 0.0, 5.0))
        with pytest.raises(TransitionEnvelopeError) as err:
            mode_transition(s, Mode.GROUND, surface=FLAT, params=params)
        assert "above the surface" in str(err.value)

    def test_moving_transition_rejected(self, params):
        s = initial_ground_state(params)
        s = replace(s, velocity=(1.0, 0.0, 0.0))
        with pytest.raises(TransitionEnvelopeError):
            mode_transition(s, Mode.FLIGHT, surface=FLAT, params=params)

    def test_wall_entry_from_flight_rejected(self, params):
        s = initial_flight_state((0.0, 0.0, params.com_height))
        with pytest.raises(TransitionEnvelopeError):
            mode_transition(s, Mode.WALL, surface=FLAT, params=params)

    def test_same_mode_rejected(self, params):
        s = initial_ground_state(params)
        with pytest.raises(TransitionEnvelopeError):
            mode_transition(s, Mode.GROUND, surface=FLAT, params=params)

    def test_transition_not_a_target(self, params):
        s = initial_ground_state(params)
        with pytest.raises(TransitionEnvelopeError):
            mode_transition(s, Mode.TRANSITION, surface=FLAT, params=params)

    def test_tilts_clamp_like_the_builtins(self):
        """The ramp fraction's clamp to [0, 1] gives, in repr, what
        `max(0.0, min(1.0, a))` gives, for fractions of NaN, +-0.0, +-inf
        and either side of the ramp."""
        edges = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e308)
        times = edges + (0.5, 2.0, 3.0, 5.0)
        for start, duration, ends in [(0.0, 2.0, (90.0, -0.0)), (-0.0, 2.0, (-0.0, 0.0)),
                                      (1.0, 1e-300, (0.0, -0.0)), (1.0, math.inf, (45.0, 135.0)),
                                      (-1.0, 3.0, (1e308, -1e308))]:
            schedule = dynamics.TiltSchedule(start, duration, ends[1], ends[0], ends[0],
                                             ends[1], Mode.FLIGHT)
            for t in times:
                a = max(0.0, min(1.0, (t - start) / duration))
                want = (ends[1] + a * (ends[0] - ends[1]), ends[0] + a * (ends[1] - ends[0]))
                assert repr(schedule.tilts_at(t)) == repr(want), (start, duration, t)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    v_target=st.floats(min_value=0.0, max_value=4.0),
    seed_v=st.floats(min_value=0.0, max_value=4.0),
)
def test_ground_speed_always_converges(v_target, seed_v):
    from flydrive.defaults import default_params, default_rotor

    params, rotor = default_params(), default_rotor()
    s = initial_ground_state(params)
    s = replace(s, velocity=(seed_v, 0.0, 0.0))
    sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=v_target)
    for _ in range(8000):
        s = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
    assert s.speed == pytest.approx(v_target, abs=0.05)


_TIP_DEG = math.nextafter(tipping_slope(default_params()), 0.0)  # the steepest drivable slope


def _bits(*floats) -> bytes:
    """The bits of floats: tells 0.0 from -0.0, which == does not."""
    return struct.pack(f"{len(floats)}d", *floats)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    incline=st.booleans(),
    slope=st.floats(min_value=0.0, max_value=_TIP_DEG),
    carried=st.sampled_from(["rest", "below", "at", "above"]),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    target=st.floats(min_value=0.2, max_value=4.1),
    payload=st.floats(min_value=0.0, max_value=1.3),
    dt=st.sampled_from([0.001, 0.005, 0.02]),
)
# found by random draws: a heavy start from rest settles in 6 312 steps, and
# the slowest corner of the draws, up the steepest drivable slope, in 17 895
@example(incline=False, slope=0.0, carried="rest", fraction=0.0, target=1.0, payload=1.25,
         dt=0.001)
@example(incline=True, slope=_TIP_DEG, carried="rest", fraction=0.0, target=4.1, payload=1.3,
         dt=0.001)
def test_speed_law_steps_as_the_step_law(incline, slope, carried, fraction, target, payload,
                                         dt):
    """From a straight ground or incline state, `read` has the bits of the
    speed the full step reads, and each `speed_law` step those of the full
    step's read speed and velocity. The read speed comes back exactly where
    `repeats` holds, and first no later than the first full step that
    changes nothing but the time and the position."""
    params, rotor = default_params(), default_rotor()
    if incline:
        surface = SurfaceModel("incline", slope_deg=slope)
        psi = math.radians(slope)
        direction = (math.cos(psi), 0.0, math.sin(psi))
    else:
        surface, direction = FLAT, (1.0, 0.0, 0.0)
    speed = {"rest": 0.0, "below": target * fraction, "at": target,
             "above": target * (1.0 + fraction)}[carried]
    state = replace(initial_ground_state(params, surface),
                    velocity=tuple(speed * d for d in direction))
    setpoint = ControlSetpoint(mode=state.mode, speed_mps=target)
    full = dynamics.step_law(state, setpoint, surface, dt, params, rotor, payload)
    f = dynamics.floats_of(state, surface)
    read, advance = dynamics.speed_law(surface, target, dt, params, rotor, payload)
    v = read(speed)
    assert _bits(v) == _bits(f[dynamics.SPEED])
    came_back = None  # the first step whose read speed comes back
    moved = dynamics.VELOCITY.start  # all that follows the time and position
    for n in range(1, 20001):  # see the examples above
        g, t = full(f), advance(v)
        assert _bits(*t) == _bits(g[dynamics.SPEED], *g[dynamics.VELOCITY]), n
        assert dynamics.repeats(f, g) == (_bits(t[0]) == _bits(v)), n
        if came_back is None and _bits(t[0]) == _bits(v):
            came_back = n
        if _bits(*g[moved:dynamics.MODE]) == _bits(*f[moved:dynamics.MODE]):
            break
        f, v = g, t[0]
    else:
        pytest.fail("no step changed nothing but the time and the position")
    assert came_back is not None and came_back <= n


def test_speed_law_needs_a_straight_ground_state(params, rotor):
    # a lateral friction moment that overflows to NaN makes the yaw loop ask
    # for a moment that a frictionless surface cannot hold: the step turns
    _, advance = dynamics.speed_law(SurfaceModel(lateral_friction=0.0), 1.0, 0.001,
                                    replace(params, lateral_friction_coeff=1e308), rotor)
    with pytest.raises(ValueError, match="the step turns the vehicle"):
        advance(0.0)


def _random_steady_case(rng, params):
    """A ground, incline or wall start, its surface, setpoint, payload and dt."""
    kind = rng.choice(["flat", "incline", "wall"])
    payload = rng.choice([0.0, rng.uniform(0.0, 1.3)])
    dt = rng.choice([dynamics.DT_MAX_S, rng.uniform(0.002, dynamics.DT_MAX_S)])
    if kind == "wall":
        surface = SurfaceModel(kind="wall")
        state = initial_wall_state(height_m=rng.uniform(0.0, 3.0),
                                   tilt_deg=rng.uniform(125.0, 145.0))
        # signed zeros in x and y: the wall step never integrates them
        state = replace(state, position=(-0.0, rng.choice([0.0, -0.0]), state.position[2]))
        speed = rng.choice([0.0, rng.uniform(-0.4, 0.4)])
        setpoint = ControlSetpoint(mode=Mode.WALL, speed_mps=speed)
        return state, surface, setpoint, payload, dt
    surface = SurfaceModel(
        kind=kind,
        slope_deg=rng.uniform(0.0, 30.0) if kind == "incline" else 0.0,
        rolling_resistance=rng.choice([None, rng.uniform(0.01, 0.2)]),
        lateral_friction=rng.choice([None, rng.uniform(0.2, 0.9)]),
    )
    state = initial_ground_state(params, surface, heading_deg=rng.uniform(-180.0, 180.0),
                                 position_xy=(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)))
    setpoint = ControlSetpoint(
        mode=state.mode, speed_mps=rng.choice([0.0, rng.uniform(-4.0, 4.0)]),
        yaw_rate_radps=rng.choice([0.0, rng.uniform(-1.0, 1.0)]),
    )
    return state, surface, setpoint, payload, dt


class TestSteadySteps:
    def test_steadiness_persists(self, params, rotor):
        """Once a step is steady, the next 25 steps from it are steady too."""
        rng = random.Random(20261018)
        steady_kinds = []
        for _ in range(40):
            s, surface, sp, payload, dt = _random_steady_case(rng, params)
            for _ in range(3000):
                new = step(s, sp, surface, dt, params, rotor, payload)
                steady, s = is_steady(s, new), new
                if steady:
                    break
            if not steady:
                continue
            steady_kinds.append((surface.kind, sp.speed_mps != 0.0))
            for _ in range(25):
                new = step(s, sp, surface, dt, params, rotor, payload)
                assert is_steady(s, new)
                s = new
        # every surface reached a steady state both parked and moving
        assert {(k, m) for k in ("flat", "incline", "wall") for m in (False, True)} \
            <= set(steady_kinds)

    def test_repeats_is_sound(self, params, rotor):
        """Once `repeats(f, g)` holds, the next 25 steps through the same
        law give the floats of g but for the time and the position, bit for
        bit: on flat ground, inclines and walls, parked and moving, from
        starts that turn or read a yaw of -0.0, and through settled turns,
        whose speed and yaw rate repeat while the yaw moves on."""
        rng = random.Random(20261020)
        seen = set()
        moved = dynamics.VELOCITY.start  # all that follows the time and position
        for case in range(100):
            state, surface, setpoint, payload, dt = _random_steady_case(rng, params)
            if state.mode is not Mode.WALL:
                spin = rng.choice([0.0, -0.0, rng.uniform(-0.02, 0.02), rng.uniform(-1.0, 1.0)])
                state = replace(state, angular_velocity=(0.0, 0.0, spin))
                if rng.random() < 0.3:  # heading 0, read as a yaw of -0.0
                    state = replace(state, quaternion=(1.0, -0.0, 0.0, -0.0))
            advance = dynamics.step_law(state, setpoint, surface, dt, params, rotor, payload)
            f = dynamics.floats_of(state, surface)
            for _ in range(3000):
                g = advance(f)
                if dynamics.repeats(f, g):
                    break
                if (_bits(g[dynamics.YAW_RATE], g[dynamics.SPEED])
                        == _bits(f[dynamics.YAW_RATE], f[dynamics.SPEED])):
                    seen.add("settled turn")
                f = g
            else:
                continue
            seen.add((surface.kind, setpoint.speed_mps != 0.0))
            h = g
            for n in range(25):
                h = advance(h)
                assert _bits(*h[moved:dynamics.MODE]) == _bits(*g[moved:dynamics.MODE]), (case, n)
                assert h[dynamics.MODE:] == g[dynamics.MODE:], (case, n)
        assert {(k, m) for k in ("flat", "incline", "wall") for m in (False, True)} \
            | {"settled turn"} <= seen

    def test_signed_zero_is_not_steady(self, params, rotor):
        s = initial_ground_state(params)
        flipped = replace(s, time_s=0.001, velocity=(-0.0, 0.0, 0.0))
        assert flipped.velocity == s.velocity  # == cannot tell them apart
        assert not is_steady(s, flipped)
        assert is_steady(s, replace(s, time_s=0.001, position=(1.0, 2.0, 3.0)))

    def test_contact_or_mode_change_is_not_steady(self):
        s = replace(initial_wall_state(), contact=(False, False, False, False))
        assert not is_steady(s, replace(s, time_s=0.001, contact=(True,) * 4))
        assert not is_steady(replace(s, mode=Mode.TRANSITION), replace(s, time_s=0.001))

    def test_finiteness_fault(self, params, rotor):
        s = initial_ground_state(params)
        s = replace(s, position=(1.79e308, 0.0, s.position[2]), velocity=(1e308, 0.0, 0.0))
        sp = ControlSetpoint(mode=Mode.GROUND, speed_mps=1.0)
        with pytest.raises(SimulationFault, match="non-finite value in integration"):
            step(s, sp, FLAT, 0.02, params=params, rotor=rotor)

    def test_hovering_flight_never_coasts(self, params, rotor, power_model, monkeypatch):
        target = (0.0, 0.0, 2.0)
        s = initial_flight_state(target)
        sp = ControlSetpoint(mode=Mode.FLIGHT, target_position=target)
        for _ in range(1000):
            new = step(s, sp, FLAT, 0.001, params=params, rotor=rotor)
            if repr(replace(new, time_s=s.time_s)) == repr(s):
                break
            s = new
        else:
            pytest.fail("hover never settled into a bit-exact fixed point")
        assert not is_steady(s, new)

        coasted, real = [], Simulator._steady_stretch
        monkeypatch.setattr(Simulator, "_steady_stretch",
                            lambda self, *a: coasted.append(1) or real(self, *a))
        sim = Simulator(power_model, dt_s=0.001)
        result = sim.run(s, FLAT, [ScriptEvent(0.0, setpoint=sp)], 0.5)
        assert coasted == []  # the law reads the position, so no step repeats
        assert result.final_state.position == target


def test_sim_state_is_a_frozen_value(params):
    """A slotted SimState keeps what the frozen dataclass gave: field-wise
    `==` and `hash`, `dataclasses.replace` with its checks, the repr, and no
    assignment or new attribute."""
    s = initial_ground_state(params, position_xy=(1.0, -2.0), heading_deg=30.0)
    moved = replace(s, time_s=0.5, position=(2.0, -2.0, s.position[2]))
    assert moved != s and replace(moved, time_s=0.0, position=s.position) == s
    assert hash(replace(moved, time_s=0.0, position=s.position)) == hash(s)
    assert repr(s) == (
        f"SimState(time_s=0.0, position=(1.0, -2.0, {params.com_height!r}), "
        f"velocity=(0.0, 0.0, 0.0), quaternion={dynamics._yaw_quaternion(math.radians(30.0))!r}, "
        "angular_velocity=(0.0, 0.0, 0.0), tilt_front_deg=90.0, tilt_rear_deg=90.0, "
        "rotor_commands=(0.0, 0.0, 0.0, 0.0), mode=<Mode.GROUND: 'ground'>, "
        "contact=(True, True, True, True))"
    )
    with pytest.raises(ValueError, match="outside \\[0, 180\\] deg"):
        replace(s, tilt_front_deg=181.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.time_s = 1.0
    with pytest.raises((AttributeError, TypeError)):
        s.extra = 1.0
