import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import flydrive
from flydrive import vehicle
from reference_rotor import command_at, outcome, reference_realise
from flydrive.vehicle import (
    MassComponent,
    RotorModel,
    RotorTableError,
    ThrustSaturationError,
    VehicleParams,
    design_metrics,
    load_mass_budget,
    load_rotor_table,
    load_rotor_table_file,
)


def test_default_params_masses(params):
    assert params.empty_mass == 2.7
    assert params.mtom == 4.0
    assert params.total_mass(1.3) == 4.0


def test_total_mass_rejects_overload(params):
    with pytest.raises(ValueError):
        params.total_mass(1.5)
    with pytest.raises(ValueError):
        params.total_mass(-0.1)
    with pytest.raises(ValueError, match="payload must be >= 0"):
        params.total_mass(math.nan)  # used to return NaN


@pytest.mark.parametrize("usable_wh", [0.0, -1.0, math.inf, math.nan])
def test_design_metrics_rejects_usable_energy(params, rotor, usable_wh):
    with pytest.raises(ValueError, match="usable_energy_wh must be finite and > 0"):
        vehicle.design_metrics(params, rotor, usable_wh)


def test_params_reject_budget_overflow():
    with pytest.raises(ValueError, match="empty_mass 4.5 kg exceeds mtom 4.0 kg"):
        VehicleParams(empty_mass=4.5, mtom=4.0)
    assert VehicleParams(empty_mass=4.0, mtom=4.0).total_mass() == 4.0


class TestRotorTable:
    def test_endpoints(self, rotor):
        assert rotor.thrust_at(0.0) == 0.0
        assert rotor.thrust_at(1.0) == pytest.approx(18.08)
        assert rotor.max_thrust == pytest.approx(18.08)

    def test_interpolation_is_monotone(self, rotor):
        prev = -1.0
        for i in range(101):
            t = rotor.thrust_at(i / 100.0)
            assert t > prev or (i == 0 and t == 0.0)
            prev = t

    def test_command_thrust_round_trip(self, rotor):
        for c in (0.05, 0.25, 0.5, 0.777, 1.0):
            assert command_at(rotor, rotor.thrust_at(c)) == pytest.approx(c, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=18.08))
    def test_power_increases_with_thrust(self, thrust):
        # session fixture not available inside @given, rebuild is cheap
        from flydrive.defaults import default_rotor

        r = default_rotor()
        p1 = r.power_at_thrust(thrust)
        p2 = r.power_at_thrust(min(thrust + 0.5, r.max_thrust))
        assert p2 >= p1 >= 0.0

    def test_command_out_of_range(self, rotor):
        with pytest.raises(ValueError):
            rotor.thrust_at(1.2)
        with pytest.raises(ValueError):
            rotor.thrust_at(-0.1)

    def test_saturation_error(self, rotor):
        with pytest.raises(ThrustSaturationError):
            command_at(rotor, 18.09)

    def test_bad_header_reports_line(self):
        with pytest.raises(RotorTableError) as err:
            load_rotor_table("command,thrust\n0,0\n")
        assert "line 1" in str(err.value)

    def test_non_monotone_rejected(self):
        text = "command,thrust_n,power_w\n0,0,0\n0.5,9,100\n1.0,8,200\n"
        with pytest.raises(RotorTableError) as err:
            load_rotor_table(text)
        assert "line 4" in str(err.value)

    @pytest.mark.parametrize("row", ["0.5,nan,100", "0.5,9,inf", "nan,9,100"])
    def test_non_finite_cell_rejected(self, row):
        text = f"command,thrust_n,power_w\n0,0,0\n{row}\n1.0,18,350\n"
        with pytest.raises(RotorTableError, match="line 3: non-finite value"):
            load_rotor_table(text)

    def test_model_rejects_non_finite_samples(self):
        with pytest.raises(RotorTableError, match="finite"):
            RotorModel((0.0, 1.0), (0.0, math.nan), (0.0, 100.0))

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "weak.csv"
        path.write_text("command,thrust_n,power_w\n0,0,0\n", encoding="utf-8")
        with pytest.raises(RotorTableError) as err:
            load_rotor_table_file(path)
        assert str(err.value) == f"{path}: need at least 2 data rows, got 1"

    def test_comments_and_blanks_ignored(self):
        text = (
            "# bench data\ncommand,thrust_n,power_w\n0,0,0\n\n"
            "# midpoint\n0.5,6.0,70\n1.0,18.0,350\n"
        )
        rotor = load_rotor_table(text)
        assert rotor.max_thrust == 18.0

    def test_interp_matches_numpy_bit_for_bit(self, rotor):
        """`interp` with each map's slopes, and the model's lookup through
        it wherever the lookup takes its argument, give numpy.interp's bits."""
        np = pytest.importorskip("numpy")
        rng = random.Random(20230301)
        maps = (
            (rotor.commands, rotor.thrusts, rotor._thrust_slopes, rotor.thrust_at),
            (rotor.thrusts, rotor.powers, rotor._power_slopes, rotor.power_at_thrust),
            (rotor.thrusts, rotor.commands, rotor._command_slopes,
             lambda x: command_at(rotor, x)),
        )
        for xs, ys, slopes, lookup in maps:
            assert slopes == vehicle._slopes(xs, ys)
            lo, hi = xs[0], xs[-1]
            span = hi - lo
            points = [rng.uniform(lo - 0.1 * span, hi + 0.1 * span) for _ in range(20000)]
            for x in xs:  # every sample and its two neighbouring doubles
                points += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
            points += [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
            points += [lo - span, hi + span, -0.0, -1e300, 1e300]
            for x in points:
                want = float(np.interp(x, xs, ys)).hex()
                assert vehicle.interp(x, xs, ys, slopes).hex() == want, x
                if 0.0 <= x <= xs[-1]:
                    assert lookup(x).hex() == want, x

    def test_realise_is_command_then_thrust(self, rotor):
        """`realise` returns, bit for bit, or raises, with the same message,
        what `command_at` and then `thrust_at` do: over a dense sweep past
        both ends, at each sample and its neighbouring doubles, at +-0.0,
        at the saturation limit and at NaN."""
        rng = random.Random(20230304)
        top = rotor.max_thrust
        points = [rng.uniform(-0.05 * top, 1.05 * top) for _ in range(100000)]
        for x in rotor.thrusts:
            points += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        limit = top * (1 + 1e-12)
        points += [0.0, -0.0, top, limit, math.nextafter(limit, math.inf), -1e-300, 1e300,
                   math.nan]
        for x in points:
            assert outcome(rotor.realise, x) == outcome(reference_realise, rotor, x), x
        assert outcome(rotor.realise, -1.0) == ("ValueError", "thrust -1.0 must be >= 0")
        with pytest.raises(ThrustSaturationError, match="exceeds max 18.080 N"):
            rotor.realise(18.1)

    @pytest.mark.parametrize("commands", [(-1e-13, 0.5, 1.0), (0.0, 0.5, 1.0 + 1e-13)])
    def test_realise_on_a_table_that_strays_past_the_command_range(self, commands):
        """A table may put its end commands up to 1e-12 outside [0, 1]; a
        thrust whose command falls outside raises `thrust_at`'s ValueError
        from `realise` too."""
        rotor = RotorModel(commands, (0.0, 6.0, 18.0), (0.0, 70.0, 350.0))
        rng = random.Random(20230305)
        points = [rng.uniform(0.0, 18.0) for _ in range(20000)]
        points += [0.0, -0.0, 1e-300, 5e-324, 6.0, 18.0, 18.0 * (1 + 1e-12)]
        for x in points:
            assert outcome(rotor.realise, x) == outcome(reference_realise, rotor, x), x
        stray = commands[0] if commands[0] < 0.0 else commands[-1]
        end = 0.0 if commands[0] < 0.0 else 18.0
        assert outcome(rotor.realise, end) == ("ValueError", f"command {stray} outside [0, 1]")


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(flydrive.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, flydrive; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


class TestMassBudget:
    def test_default_budget_totals(self):
        from flydrive.defaults import default_mass_budget

        budget = default_mass_budget()
        assert budget.empty_mass == pytest.approx(2.7, abs=1e-9)
        assert budget.gam_mass == pytest.approx(0.3288, abs=1e-9)
        assert budget.category_total("payload") == pytest.approx(1.3)

    def test_default_budget_matches_params(self, params):
        from flydrive.defaults import default_mass_budget

        default_mass_budget().validate_against(params)  # should not raise

    def test_mismatch_detected(self, params):
        budget = load_mass_budget(
            "name,mass_kg,category\nframe,1.0,structure\n"
        )
        with pytest.raises(ValueError):
            budget.validate_against(params)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError) as err:
            load_mass_budget("name,mass_kg,category\nwidget,0.1,misc\n")
        assert "line 2" in str(err.value)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            MassComponent("ghost", -0.1, "structure")


class TestDesignMetrics:
    def test_headline_numbers(self, params, rotor):
        m = design_metrics(params, rotor, usable_energy_wh=95.2)
        assert m.tw_ratio == pytest.approx(1.843, abs=1e-3)
        assert m.payload_capacity == pytest.approx(1.3, abs=1e-3)
        assert m.gam_mass_fraction == pytest.approx(0.0822, abs=5e-4)

    def test_hover_endurance_scales_with_energy(self, params, rotor):
        a = design_metrics(params, rotor, usable_energy_wh=50.0)
        b = design_metrics(params, rotor, usable_energy_wh=100.0)
        assert b.hover_endurance_estimate == pytest.approx(
            2.0 * a.hover_endurance_estimate
        )

    def test_rejects_nonpositive_energy(self, params, rotor):
        with pytest.raises(ValueError):
            design_metrics(params, rotor, usable_energy_wh=0.0)

