import math

import pytest
from hypothesis import given, strategies as st

from flydrive.defaults import (
    GROUND_CALIBRATION_POINTS,
    default_batteries,
    default_power_model,
)
from flydrive.energy import (
    Battery,
    EnergyLedger,
    UnknownPayloadError,
    calibrate_ground_power,
    endurance_ratio,
    mode_power,
    range_estimate,
    usable_propulsion_energy_wh,
)
from reference_simulator import BatteryProtectionError, drain, record


def make_pack(**kw):
    defaults = dict(battery_id="prop_a", cells_series=4, capacity_ah=5.0)
    defaults.update(kw)
    return Battery(**defaults)


class TestBattery:
    def test_pack_energy(self):
        pack = make_pack()
        assert pack.nominal_voltage == pytest.approx(14.8)
        assert pack.pack_energy_wh == pytest.approx(74.0)

    def test_invariants(self):
        with pytest.raises(ValueError):
            make_pack(soc=1.2)
        with pytest.raises(ValueError):
            Battery(battery_id="prop_c", cells_series=4, capacity_ah=5.0)

    def test_drain_zero_power_is_noop(self):
        pack = make_pack()
        events = drain(pack, 0.0, 3600.0)
        assert events == []
        assert pack.soc == 1.0

    def test_drain_arithmetic(self):
        # 148 Wh worth of pack split across two 74 Wh packs: drain one at
        # 29.8 W for an hour and the soc drops by 29.8/74
        pack = make_pack()
        drain(pack, 29.8, 3600.0)
        assert pack.soc == pytest.approx(1.0 - 29.8 / 74.0)

    def test_protection_event_emitted_once(self):
        pack = make_pack(usable_fraction=0.5)
        events = drain(pack, 37.0 * 3600.0, 1.0)  # full usable half in 1 s
        assert len(events) == 1
        assert pack.tripped
        assert pack.soc == pytest.approx(0.5)
        with pytest.raises(BatteryProtectionError):
            drain(pack, 1.0, 1.0)
        # zero-power query on a tripped pack is not a drain
        assert drain(pack, 0.0, 1.0) == []

    def test_soc_never_negative(self):
        pack = make_pack()
        drain(pack, 74.0 * 3600.0 * 5.0, 10.0)
        assert pack.soc >= 0.0

    @given(
        power=st.floats(min_value=0.0, max_value=2000.0),
        dt=st.floats(min_value=0.0, max_value=60.0),
    )
    def test_drain_monotone(self, power, dt):
        pack = make_pack()
        before = pack.soc
        if pack.tripped and power > 0:
            return
        drain(pack, power, dt)
        assert 0.0 <= pack.soc <= before


class TestCalibration:
    def test_reference_points(self):
        c1, c3 = calibrate_ground_power([(1.0, 29.8), (4.1, 171.4)])
        assert c1 == pytest.approx(29.04, abs=0.01)
        assert c3 == pytest.approx(0.759, abs=0.001)

    def test_exact_solve_reproduces_inputs(self):
        c1, c3 = calibrate_ground_power([(1.0, 10.0), (2.0, 20.0)])
        for v, p in ((1.0, 10.0), (2.0, 20.0)):
            assert c1 * v + c3 * v ** 3 == pytest.approx(p, rel=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            calibrate_ground_power([(1.0, 29.8)])

    def test_duplicate_speeds_rejected(self):
        with pytest.raises(ValueError):
            calibrate_ground_power([(1.0, 29.8), (1.0, 30.0)])

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError):
            calibrate_ground_power([(0.0, 0.0), (1.0, 29.8)])

    def test_overdetermined_least_squares(self):
        # samples of P = 3v + 0.5v^3 recovered from four points
        pts = [(v, 3.0 * v + 0.5 * v ** 3) for v in (0.5, 1.0, 2.0, 3.0)]
        c1, c3 = calibrate_ground_power(pts)
        assert c1 == pytest.approx(3.0, rel=1e-9)
        assert c3 == pytest.approx(0.5, rel=1e-9)


class TestModePower:
    def test_ground_calibration_points_exact(self, power_model):
        assert mode_power(power_model, "ground", speed=1.0, payload=0.0) == 29.8
        assert mode_power(power_model, "ground", speed=1.0, payload=2.0) == 58.6

    def test_stationary_ground_is_free(self, power_model):
        assert mode_power(power_model, "ground", speed=0.0) == 0.0

    def test_unknown_payload(self, power_model):
        with pytest.raises(UnknownPayloadError):
            mode_power(power_model, "ground", speed=1.0, payload=0.7)

    def test_unknown_mode(self, power_model):
        with pytest.raises(ValueError):
            mode_power(power_model, "burrow", speed=1.0)

    def test_incline_needs_slope(self, power_model):
        with pytest.raises(ValueError):
            mode_power(power_model, "incline", speed=1.0)

    def test_wall_needs_tilt(self, power_model):
        with pytest.raises(ValueError):
            mode_power(power_model, "wall")

    @given(st.floats(min_value=0.0, max_value=4.1))
    def test_ground_power_strictly_increasing(self, v):
        model = default_power_model()
        dv = 0.05
        p1 = model.ground_power(v, 0.0)
        p2 = model.ground_power(v + dv, 0.0)
        assert p2 > p1

    @given(st.floats(min_value=0.05, max_value=4.0))
    def test_ground_power_convex(self, v):
        model = default_power_model()
        h = 0.05
        mid = model.ground_power(v, 0.0)
        lo = model.ground_power(v - h, 0.0)
        hi = model.ground_power(v + h, 0.0)
        assert lo + hi >= 2.0 * mid - 1e-9

    def test_incline_increases_with_slope(self, power_model):
        slopes = [0.0, 5.0, 15.0, 25.0, 33.0, 45.0, 55.0]
        powers = [
            mode_power(power_model, "incline", speed=1.0, slope_deg=s)
            for s in slopes
        ]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_mode_ordering(self, power_model):
        ground0 = mode_power(power_model, "ground", speed=0.0)
        ground1 = mode_power(power_model, "ground", speed=1.0)
        incline33 = mode_power(power_model, "incline", speed=1.0, slope_deg=33.0)
        hover = mode_power(power_model, "hover")
        wall135 = mode_power(power_model, "wall", tilt_deg=135.0)
        assert ground0 == 0.0 < ground1 < incline33 < hover < wall135

    def test_wall_exceeds_flight(self, power_model):
        wall = mode_power(power_model, "wall", tilt_deg=135.0)
        flight = mode_power(power_model, "flight", speed=1.0)
        assert wall > flight


class TestEnduranceAndRange:
    def test_reference_ratios(self, power_model):
        assert endurance_ratio(power_model, 0.0, 1.0) == pytest.approx(28.8, abs=0.1)
        assert endurance_ratio(power_model, 2.0, 1.0) == pytest.approx(25.5, abs=0.1)

    def test_ratio_undefined_at_rest(self, power_model):
        with pytest.raises(ValueError):
            endurance_ratio(power_model, 0.0, 0.0)

    def test_ratio_scale_invariance(self, power_model):
        # multiplying flight and ground power by the same factor cancels
        ratio = endurance_ratio(power_model, 0.0, 1.0)
        flight = power_model.flight_power(0.0)
        ground = power_model.ground_power(1.0, 0.0)
        assert (3.0 * flight) / (3.0 * ground) == pytest.approx(ratio)

    def test_reference_ranges(self, power_model, batteries):
        r_slow = range_estimate(power_model, batteries, "ground", 1.0)
        r_fast = range_estimate(power_model, batteries, "ground", 4.1)
        assert r_slow == pytest.approx(11_500.0, rel=0.05)
        assert r_fast == pytest.approx(8_200.0, rel=0.05)

    def test_range_linear_in_energy(self, power_model, batteries):
        r1 = range_estimate(power_model, batteries, "ground", 1.0)
        doubled = batteries + [
            Battery(battery_id=b.battery_id, cells_series=b.cells_series,
                    capacity_ah=b.capacity_ah, usable_fraction=b.usable_fraction)
            for b in batteries if b.is_propulsion
        ]
        r2 = range_estimate(power_model, doubled, "ground", 1.0)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_range_needs_motion(self, power_model, batteries):
        with pytest.raises(ValueError):
            range_estimate(power_model, batteries, "ground", 0.0)

    def test_usable_energy_excludes_electronics(self, batteries):
        usable = usable_propulsion_energy_wh(batteries)
        assert usable == pytest.approx(95.2)


class TestLedger:
    def test_totals_conserve(self):
        ledger = EnergyLedger()
        record(ledger, 1.0, 100.0, "ground")
        record(ledger, 1.0, 50.0, "hover")
        record(ledger, 2.0, 25.0, "ground")
        per_mode = ledger.per_mode_wh
        assert ledger.total_wh == pytest.approx(sum(per_mode.values()), abs=1e-6)
        assert per_mode["ground"] == pytest.approx(150.0 / 3600.0)

    def test_per_battery_ah(self):
        ledger = EnergyLedger()
        pack = make_pack()
        record(ledger, 3600.0, 14.8, "ground", battery=pack)
        assert ledger.per_battery_ah["prop_a"] == pytest.approx(1.0)

    def test_to_dict_is_json_ready(self):
        import json

        ledger = EnergyLedger()
        record(ledger, 1.0, 10.0, "wall")
        doc = json.loads(json.dumps(ledger.to_dict()))
        assert doc["per_mode_wh"]["wall"] > 0


def test_default_calibration_table_shape():
    # two payload configurations, each anchored at the measured 1 m/s point
    assert set(GROUND_CALIBRATION_POINTS) == {0.0, 2.0}
    for pts in GROUND_CALIBRATION_POINTS.values():
        assert len(pts) == 2
