import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from flydrive import statics
from flydrive.statics import (
    InfeasibleTiltError,
    conventional_pitch_for_slope,
    decompose_thrust,
    incline_equilibrium,
    optimal_wall_tilt,
    tipping_slope,
    wall_climb_analysis,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    thrust=st.floats(min_value=0.0, max_value=1e4),
    pitch=st.floats(min_value=0.0, max_value=90.0),
)
def test_decompose_preserves_magnitude(thrust, pitch):
    d = decompose_thrust(thrust, pitch)
    mag = math.hypot(d.f_parallel, d.f_perpendicular)
    assert mag == pytest.approx(thrust, rel=1e-9, abs=1e-12)


def test_decompose_endpoints():
    level = decompose_thrust(10.0, 0.0)
    assert level.f_parallel == 0.0
    assert level.f_perpendicular == 10.0
    steep = decompose_thrust(10.0, 90.0)
    assert steep.f_parallel == pytest.approx(10.0)
    assert abs(steep.f_perpendicular) < 1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=0.0, max_value=90.0))
def test_conventional_pitch_complement(slope):
    assert conventional_pitch_for_slope(slope) == 90.0 - slope


def test_decompose_rejects_bad_inputs():
    with pytest.raises(ValueError):
        decompose_thrust(-1.0, 10.0)
    with pytest.raises(ValueError):
        decompose_thrust(1.0, 91.0)


def test_tipping_slope_default_geometry(params):
    assert tipping_slope(params) == pytest.approx(60.93, abs=0.02)


def test_tipping_slope_geometry_relation(params):
    angle = tipping_slope(params)
    assert math.tan(math.radians(angle)) == pytest.approx(
        params.wheel_contact_half_spacing_long / params.com_height
    )


class TestInclineEquilibrium:
    def test_flat_static_needs_nothing(self, params):
        eq = incline_equilibrium(params, 0.0, moving=False)
        assert eq.required_total_thrust == 0.0
        assert eq.feasible

    def test_thrust_increases_with_slope(self, params, rotor):
        prev = -1.0
        for slope in (0.0, 5.0, 15.0, 33.0, 45.0, 60.0):
            eq = incline_equilibrium(params, slope, moving=False, rotor=rotor)
            assert eq.required_total_thrust > prev
            prev = eq.required_total_thrust

    def test_33deg_incline_is_feasible(self, params, rotor):
        eq = incline_equilibrium(params, 33.0, moving=True, rotor=rotor)
        assert eq.feasible
        assert eq.tipping_margin > 25.0

    def test_beyond_tip_limit_infeasible(self, params):
        eq = incline_equilibrium(params, 65.0, moving=False)
        assert not eq.feasible
        assert eq.tipping_margin < 0

    def test_moving_costs_more(self, params):
        hold = incline_equilibrium(params, 20.0, moving=False)
        creep = incline_equilibrium(params, 20.0, moving=True)
        assert creep.required_total_thrust > hold.required_total_thrust


class TestWallClimb:
    def test_135deg_tilt_feasible(self, params, rotor):
        w = wall_climb_analysis(params, 135.0, rotor=rotor)
        assert w.attached
        assert w.climb_feasible
        assert w.required_thrust <= 4.0 * rotor.max_thrust

    def test_requires_tilt_past_vertical(self, params):
        with pytest.raises(ValueError):
            wall_climb_analysis(params, 90.0)
        with pytest.raises(ValueError):
            wall_climb_analysis(params, 181.0)

    def test_holding_needs_less_than_climbing(self, params):
        climb = wall_climb_analysis(params, 135.0, climbing=True)
        hold = wall_climb_analysis(params, 135.0, climbing=False)
        assert hold.required_thrust < climb.required_thrust

    def test_detaches_when_wall_normal_vanishes(self, params):
        # just past 90 deg the normal force is a sliver of the weight
        w = wall_climb_analysis(params, 90.5, climbing=True)
        assert not w.attached

    def test_required_thrust_matches_balance(self, params):
        w = wall_climb_analysis(params, 135.0, climbing=True)
        gamma = math.radians(45.0)
        m = params.total_mass()
        lift = w.required_thrust * math.cos(gamma)
        drag = params.rolling_resistance_coeff * w.required_thrust * math.sin(gamma)
        assert lift - drag == pytest.approx(m * params.gravity, rel=1e-12)


def _scan(params, rotor, payload=0.0):
    """The grid search `optimal_wall_tilt` made before its closed form, as
    the oracle: (tilt, thrust) of least climb thrust over the attached and
    climbable tilts 90 + 0.1 i in (90, 180), or None where there is none.
    Without a rotor, thrust is not limited."""
    best = None
    for i in range(1, 900):
        tilt = 90.0 + i * 0.1
        w = wall_climb_analysis(params, tilt, climbing=True, rotor=rotor, payload=payload)
        if w.attached and w.climb_feasible and (best is None or w.required_thrust < best[1]):
            best = tilt, w.required_thrust
    return best


def _attached(params, tilt, payload=0.0):
    return wall_climb_analysis(params, tilt, climbing=True, payload=payload).attached


class TestOptimalWallTilt:
    def test_optimum_below_working_tilt(self, params, rotor):
        best = optimal_wall_tilt(params, rotor)
        assert 90.0 < best < 135.0

    @pytest.mark.parametrize("payload", [0.0, 0.5, 1.0])
    def test_closed_form_with_the_defaults(self, params, rotor, payload):
        # tan(tilt - 90) = f / (1 + f C_rr) gives 91.14507597568347, one
        # float short of attached; the 0.1 deg grid gave 91.2
        best = optimal_wall_tilt(params, rotor, payload=payload)
        assert best == 91.14507597568348
        assert not _attached(params, math.nextafter(best, 90.0), payload)
        assert best < _scan(params, rotor, payload)[0] == pytest.approx(91.2)

    def test_heavier_vehicle_still_solvable(self, params, rotor):
        best = optimal_wall_tilt(params, rotor, payload=1.0)
        assert 90.0 < best < 180.0

    def test_impossible_when_thrust_tiny(self, params):
        from flydrive.vehicle import load_rotor_table

        weak = load_rotor_table(
            "command,thrust_n,power_w\n0,0,0\n1.0,2.0,40\n", name="weak"
        )
        with pytest.raises(InfeasibleTiltError):
            optimal_wall_tilt(params, weak)

    @pytest.mark.parametrize("fraction", [0.0, -0.5])
    def test_no_attach_threshold_gives_the_least_tilt_past_vertical(self, params, rotor,
                                                                    fraction, monkeypatch):
        # the scan's least grid tilt was 90.1
        monkeypatch.setattr(statics, "ATTACH_NORMAL_FRACTION", fraction)
        best = optimal_wall_tilt(params, rotor)
        assert best == math.nextafter(90.0, 180.0)
        assert _scan(params, rotor)[0] == pytest.approx(90.1)

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, 5.0])
    def test_fractions_nothing_meets_are_infeasible(self, params, rotor, fraction,
                                                    monkeypatch):
        # NaN and inf attach nowhere, and at 5.0 the least attached tilt
        # needs more thrust than the rotors give; the scan found nothing
        # either way
        monkeypatch.setattr(statics, "ATTACH_NORMAL_FRACTION", fraction)
        with pytest.raises(InfeasibleTiltError):
            optimal_wall_tilt(params, rotor)
        assert _scan(params, rotor) is None

    def test_matches_the_scan_oracle(self, params, rotor, monkeypatch):
        rng = random.Random(30)
        n_feasible = 0
        for _ in range(150):
            f = rng.uniform(1e-4, 1.5)
            monkeypatch.setattr(statics, "ATTACH_NORMAL_FRACTION", f)
            vehicle = replace(params, rolling_resistance_coeff=rng.uniform(0.0, 0.3))
            payload = rng.uniform(0.0, 1.3)
            scale = rng.uniform(0.1, 2.0)
            scaled = replace(rotor, thrusts=tuple(scale * t for t in rotor.thrusts))
            case = f"f={f!r}, C_rr={vehicle.rolling_resistance_coeff!r}, " \
                   f"payload={payload!r}, rotor x{scale!r}"
            scan = _scan(vehicle, scaled, payload)
            try:
                best = optimal_wall_tilt(vehicle, scaled, payload)
            except InfeasibleTiltError:
                assert scan is None, case
                continue
            n_feasible += 1
            wall = wall_climb_analysis(vehicle, best, rotor=scaled, payload=payload)
            assert wall.attached and wall.climb_feasible, case
            assert not _attached(vehicle, math.nextafter(best, 90.0), payload), case
            if scan is None:
                # the rotors' limit falls between the optimum's thrust and
                # that of the least attached grid tilt
                assert _scan(vehicle, None, payload)[1] > 4.0 * scaled.max_thrust, case
                continue
            assert best <= scan[0] and wall.required_thrust <= scan[1], case
        assert 30 < n_feasible < 140  # both outcomes are swept


class TestEquilibriumRules:
    def test_along_slope_force_direction(self, params):
        m, g, psi = params.total_mass(), params.gravity, math.radians(20.0)
        grade = m * g * math.sin(psi)
        roll = 0.03 * m * g * math.cos(psi)
        assert statics.along_slope_force(m, g, psi, 0.03, 0.0) == grade
        assert statics.along_slope_force(m, g, psi, 0.03, 1.0) == grade + roll
        assert statics.along_slope_force(m, g, psi, 0.03, -1.0) == grade - roll

    def test_wall_required_thrust_direction(self, params):
        m, g, gamma = params.total_mass(), params.gravity, math.radians(45.0)
        parked = statics.wall_required_thrust(m, g, gamma, 0.03, 0.0)
        assert parked == m * g / math.cos(gamma)
        assert (statics.wall_required_thrust(m, g, gamma, 0.03, -1.0) < parked
                < statics.wall_required_thrust(m, g, gamma, 0.03))
        assert statics.wall_required_thrust(m, g, gamma, 1.5) == math.inf


def test_analysis_record_round_trips(params):
    eq = incline_equilibrium(params, 10.0, moving=True)
    rec = statics.analysis_record("incline", {"slope_deg": 10.0}, eq)
    assert rec["analysis"] == "incline"
    assert rec["inputs"] == {"slope_deg": 10.0}
    assert rec["result"]["slope_angle"] == 10.0
