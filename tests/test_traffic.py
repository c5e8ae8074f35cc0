import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from rspool import (ActivationCurve, AlarmScenario, ExpDecayCorrelation,
                    RegularTrafficParams, SqrtCapCorrelation, UnitCorrelation,
                    activation_curve, beta_pdf, fit_beta, place_stations)
from rspool.traffic import AlarmTimeError


class TestPlacement:
    def test_single_station_contained(self):
        geom = place_stations(1, 10.0, seed=1)
        assert geom.n_stations == 1
        assert np.hypot(*geom.positions[0]) <= 10.0

    def test_radial_law_mean_distance(self):
        # uniform over the disk has density 2d/r^2, so E[d] = 2r/3
        geom = place_stations(8000, 1000.0, seed=2)
        d = np.hypot(geom.positions[:, 0], geom.positions[:, 1])
        assert abs(d.mean() - 2000.0 / 3.0) / (2000.0 / 3.0) < 0.01

    def test_small_dense_cell(self):
        geom = place_stations(1000, 10.0, seed=3)
        d = np.hypot(geom.positions[:, 0], geom.positions[:, 1])
        assert geom.n_stations == 1000
        assert d.max() <= 10.0

    def test_deterministic_for_seed(self):
        a = place_stations(100, 50.0, seed=7)
        b = place_stations(100, 50.0, seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)

    @pytest.mark.parametrize("n,r", [(0, 10.0), (5, 0.0), (5, -1.0)])
    def test_rejects_degenerate_cells(self, n, r):
        with pytest.raises(ValueError):
            place_stations(n, r, seed=1)


class TestSpatialCorrelation:
    def test_unit_model_is_constant(self):
        assert UnitCorrelation().factor(500.0) == 1.0

    def test_exp_decay_values(self):
        model = ExpDecayCorrelation(a=0.005)
        assert model.factor(0.0) == pytest.approx(1.0)
        assert model.factor(1000.0) == pytest.approx(math.exp(-5), rel=1e-12)

    def test_sqrt_cap_boundaries(self):
        model = SqrtCapCorrelation(d_max=500.0)
        assert model.factor(500.0) == 0.0
        assert model.factor(0.0) == pytest.approx(1.0)
        assert model.factor(600.0) == 0.0

    @pytest.mark.parametrize("model", [
        UnitCorrelation(),
        ExpDecayCorrelation(a=0.005),
        ExpDecayCorrelation(a=1.2),
        SqrtCapCorrelation(d_max=500.0),
        SqrtCapCorrelation(d_max=4.0),
    ])
    def test_bounded_and_non_increasing(self, model):
        d = np.linspace(0.0, 2000.0, 4001)
        vals = model.factor(d)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_far_stations_get_zero_without_overflow_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ExpDecayCorrelation(a=1e300).factor(1e300) == 0.0
            assert SqrtCapCorrelation(d_max=500.0).factor(1e300) == 0.0

    @pytest.mark.parametrize("d_max", [0.0, float("nan"), float("inf"), 1e308])
    def test_sqrt_cap_reach_needs_a_finite_square(self, d_max):
        with pytest.raises(ValueError):
            SqrtCapCorrelation(d_max=d_max)

    @pytest.mark.parametrize("t_ri", [0.0, -1.0, float("nan")])
    def test_reporting_interval_must_be_positive(self, t_ri):
        with pytest.raises(ValueError, match="reporting interval"):
            RegularTrafficParams.from_reporting_interval(t_ri)

    @pytest.mark.parametrize("lambda_d", [-1.0, float("nan")])
    def test_on_demand_rate_must_be_non_negative(self, lambda_d):
        with pytest.raises(ValueError, match="on-demand rate"):
            RegularTrafficParams.from_reporting_interval(300.0, lambda_d)


class TestAlarmScenario:
    @pytest.mark.parametrize("v,t_a", [(0.0, 0.0), (float("nan"), 0.0),
                                       (float("inf"), 0.0), (4000.0, float("inf")),
                                       (4000.0, float("-inf")), (4000.0, float("nan"))])
    def test_rejects_non_finite_speed_or_event_time(self, v, t_a):
        with pytest.raises(ValueError):
            AlarmScenario((0, 0), v, t_a)

    @pytest.mark.parametrize("v,t_a", [(1e-310, 0.0), (1e-304, 1.7e308)])
    def test_front_beyond_float_range_rejected_without_warnings(self, v, t_a):
        # both values are finite, the arrival instants are not: d / v
        # overflows, or t_a + d / v does
        geom = place_stations(10, 1000.0, seed=1)
        scenario = AlarmScenario((1000.0, 0.0), v, t_a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AlarmTimeError, match="non-finite"):
                scenario.arrival_times(geom)
            with pytest.raises(AlarmTimeError):
                activation_curve(geom, scenario, 0.005, seed=1)


class TestActivationCurves:
    def test_unit_model_total_and_span(self, ref_geometry):
        scenario = AlarmScenario(epicenter=(0, 0), v=4000.0, t_a=0.0)
        curve = activation_curve(ref_geometry, scenario, bin_width=0.005, seed=11)
        assert curve.total == ref_geometry.n_stations
        assert abs(curve.nonzero_span() - 0.25) <= 0.005

    def test_sqrt_cap_total_matches_mc_integral(self, ref_geometry):
        scenario = AlarmScenario(epicenter=(0, 0), v=4000.0, t_a=0.0,
                                 correlation=SqrtCapCorrelation(d_max=500.0))
        curve = activation_curve(ref_geometry, scenario, bin_width=0.005, seed=12)
        # independent Monte-Carlo integration of the expected trigger count
        mc = np.random.default_rng(99)
        d = 1000.0 * np.sqrt(mc.random(1_000_000))
        psi = np.where(d <= 500.0, np.sqrt(np.clip(500.0**2 - d**2, 0, None)) / 500.0, 0.0)
        expected = ref_geometry.n_stations * psi.mean()
        sigma = math.sqrt(ref_geometry.n_stations * psi.mean() * (1 - psi.mean()))
        assert abs(curve.total - expected) < 3 * sigma

    def test_model_ordering(self):
        geom = place_stations(1000, 1000.0, seed=44)
        sq = activation_curve(
            geom, AlarmScenario((0, 0), 4000.0, 0.0, SqrtCapCorrelation(500.0)),
            bin_width=0.005, seed=13)
        ex = activation_curve(
            geom, AlarmScenario((0, 0), 4000.0, 0.0, ExpDecayCorrelation(0.005)),
            bin_width=0.005, seed=14)
        assert sq.total > ex.total
        assert ex.nonzero_span() > sq.nonzero_span()

    def test_counts_bounded_by_population(self, ref_geometry):
        scenario = AlarmScenario(epicenter=(0, 0), v=4000.0, t_a=0.0)
        curve = activation_curve(ref_geometry, scenario, bin_width=0.01, seed=15)
        assert curve.total <= ref_geometry.n_stations


class TestBetaModel:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (3.0, 4.0), (2.0, 8.0)])
    def test_density_integrates_to_one(self, alpha, beta):
        t_span = 10.0
        val, _ = integrate.quad(lambda t: beta_pdf(t, alpha, beta, t_span),
                                0.0, t_span, limit=200)
        assert abs(val - 1.0) < 1e-6

    def test_round_trip_recovers_shape_parameters(self):
        rng = np.random.default_rng(2024)
        samples = 10.0 * rng.beta(3.0, 4.0, size=1_000_000)
        counts = np.bincount((samples / 0.005).astype(int))
        curve = ActivationCurve(bin_width=0.005, counts=counts)
        fit = fit_beta(curve)
        assert abs(fit.alpha - 3.0) / 3.0 < 0.05
        assert abs(fit.beta - 4.0) / 4.0 < 0.05
        assert abs(fit.t_span - 10.0) / 10.0 < 0.05

    def test_symmetric_curve_gives_equal_shapes(self):
        rng = np.random.default_rng(5)
        samples = rng.beta(2.5, 2.5, size=500_000)
        counts = np.bincount((samples / 0.005).astype(int))
        fit = fit_beta(ActivationCurve(bin_width=0.005, counts=counts))
        assert abs(fit.alpha - fit.beta) / fit.alpha < 0.05

    def test_propagating_event_span_far_below_standard_value(self, ref_geometry):
        scenario = AlarmScenario(epicenter=(0, 0), v=4000.0, t_a=0.0)
        curve = activation_curve(ref_geometry, scenario, bin_width=0.005, seed=16)
        fit = fit_beta(curve)
        assert fit.t_span <= 1.0  # an order of magnitude under the 10 s default

    def test_degenerate_curve_reported_unfittable(self):
        curve = ActivationCurve(bin_width=0.005, counts=np.array([0, 500, 0]))
        with pytest.raises(ValueError, match="degenerate"):
            fit_beta(curve)
