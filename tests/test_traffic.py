import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from rspool import (ActivationCurve, AlarmScenario, CellGeometry,
                    ExpDecayCorrelation,
                    RegularTrafficParams, SqrtCapCorrelation, UnitCorrelation,
                    activation_curve, beta_pdf, fit_beta, place_stations)
from rspool import traffic
from rspool.traffic import AlarmTimeError, child_seed


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

    @pytest.mark.parametrize("n,r", [(0, 10.0), (5, 0.0), (5, -1.0),
                                     (3, math.inf), (3, math.nan)])
    def test_rejects_degenerate_cells(self, n, r):
        with pytest.raises(ValueError):
            place_stations(n, r, seed=1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_uniform_over_sectors_and_rings(self, seed):
        # 16 equal sectors by 10 equal-area rings: 160 cells of equal
        # probability, 125 stations expected in each
        r = 1000.0
        geom = place_stations(20_000, r, seed)
        x, y = geom.positions[:, 0], geom.positions[:, 1]
        sector = np.floor(np.mod(np.arctan2(y, x), 2 * math.pi) / (2 * math.pi) * 16)
        ring = np.floor(10 * (np.hypot(x, y) / r) ** 2)
        cells = np.bincount((np.minimum(ring, 9) * 16 + np.minimum(sector, 15)).astype(int),
                            minlength=160)
        assert cells.size == 160
        assert stats.chisquare(cells).pvalue > 1e-3

    @pytest.mark.parametrize("r", [1e-300, 1.0, 1e3, 1e300])
    def test_every_station_inside(self, r):
        for seed in range(5):
            p = place_stations(20_000, r, seed).positions / r
            assert np.all(p[:, 0] ** 2 + p[:, 1] ** 2 <= 1.0)

    @staticmethod
    def _reference(r, u_radius, u_angle):
        d = r * np.sqrt(u_radius)
        phi = 2 * math.pi * u_angle
        return d * np.cos(phi), d * np.sin(phi)

    @pytest.mark.parametrize("r", [1e-300, 1.0, 1e3, 1e300])
    def test_positions_match_cos_sin_of_the_stream(self, r):
        rng = np.random.default_rng(17)
        u_radius, u_angle = rng.random(20_000), rng.random(20_000)
        x, y = self._reference(r, u_radius, u_angle)
        geom = place_stations(20_000, r, 17)
        tol = 4 * np.spacing(r)
        assert np.max(np.abs(geom.positions[:, 0] - x)) <= tol
        assert np.max(np.abs(geom.positions[:, 1] - y)) <= tol

    @pytest.mark.parametrize("r", [1e-300, 1.0, 1e3, 1e300])
    def test_positions_near_the_axes(self, r, monkeypatch):
        # angles at and one or two ulps either side of 0, pi/2, pi and 3pi/2,
        # where cos or sin is tiny and tan(pi u) is 0, 1 or huge
        eps = 2.0**-53
        quarters = [q + k * eps for q in (0.25, 0.5, 0.75) for k in (-2, -1, 0, 1, 2)]
        u_angle = np.array([0.0, eps, 2 * eps, 1e-9, 1 - eps, 1 - 2 * eps] + quarters)
        u_radius = np.resize([1 - eps, 0.5, 1e-6, 0.0, 1.0], u_angle.size)

        class Stream:
            draws = [u_radius, u_angle]

            def random(self, n):
                return self.draws.pop(0).copy()

        monkeypatch.setattr(traffic.np.random, "default_rng", lambda seed: Stream())
        geom = place_stations(u_angle.size, r, seed=0)
        x, y = self._reference(r, u_radius, u_angle)
        tol = 4 * np.spacing(r)
        assert np.all(np.abs(geom.positions[:, 0] - x) <= tol)
        assert np.all(np.abs(geom.positions[:, 1] - y) <= tol)


class TestChildSeed:
    @pytest.mark.parametrize("i", [0, 1, 3])
    @pytest.mark.parametrize("parent", [
        lambda: 12345, lambda: np.random.SeedSequence(12345),
        lambda: np.random.SeedSequence(2**64 - 1).spawn(3)[2]],
        ids=["int", "seed-sequence", "spawned"])
    def test_is_the_child_spawn_gives(self, parent, i):
        ss = parent()
        expected = (np.random.SeedSequence(ss) if isinstance(ss, int)
                    else parent()).spawn(i + 1)[i]
        child = child_seed(ss, i)
        assert child.spawn_key == expected.spawn_key
        np.testing.assert_array_equal(child.generate_state(8),
                                      expected.generate_state(8))

    def test_leaves_the_parent_as_it_was(self):
        ss = np.random.SeedSequence(7)
        first = child_seed(ss, 0).generate_state(4)
        assert ss.n_children_spawned == 0
        np.testing.assert_array_equal(child_seed(ss, 0).generate_state(4), first)


class TestCellRadiusCheck:
    @pytest.mark.parametrize("r", [1e-200, 1.0, 1000.0, 1e200])
    def test_station_on_the_edge_accepted(self, r):
        positions = [[r, 0.0], [0.0, -r], [0.6 * r, 0.8 * r], [0.0, 0.0]]
        geom = CellGeometry(r, np.array(positions))
        assert geom.n_stations == 4

    @pytest.mark.parametrize("r", [1e-200, 1.0, 1000.0, 1e200])
    @pytest.mark.parametrize("scale", [1 + 1e-9, 10.0, 1e200])
    def test_station_past_the_edge_rejected(self, r, scale):
        # extreme radii included: a squared norm in metres would underflow
        # or overflow there
        outside = np.array([[0.0, 0.0], [0.0, -r * scale]])
        with pytest.raises(ValueError, match="inside the cell radius"):
            CellGeometry(r, outside)

    @pytest.mark.parametrize("r,positions", [
        (math.nan, [[0.0, 0.0]]), (math.inf, [[0.0, 0.0]]),
        (1.0, [[math.nan, 0.0]]), (1.0, [[0.0, 0.0], [0.0, math.nan]])])
    def test_non_finite_cell_rejected(self, r, positions):
        with pytest.raises(ValueError, match="finite"):
            CellGeometry(r, np.array(positions))

    @pytest.mark.parametrize("positions,message", [
        ([[math.nan, 0.0], [2.0, 0.0]], "inside the cell radius"),
        ([[2.0, 0.0], [0.0, math.nan]], "inside the cell radius"),
        ([[math.inf, 0.0]], "inside the cell radius"),
        ([[math.inf, math.nan]], "finite"),
        ([[0.5, 0.5], [-math.inf, math.nan]], "finite")])
    def test_outside_reported_before_non_finite(self, positions, message):
        with pytest.raises(ValueError, match=message):
            CellGeometry(1.0, np.array(positions))


class TestDistances:
    """The distances to the last point asked for are kept on the geometry,
    so the trigger and arrival draws of one epicentre share one pass."""

    def test_one_pass_per_point(self):
        positions = np.array([[3.0, 4.0], [0.0, 0.0], [-3.0, -4.0]])
        geom = CellGeometry(20.0, positions)
        first = geom.distances_to((0, 0))
        assert geom.distances_to((0.0, 0.0)) is first
        np.testing.assert_array_equal(first, [5.0, 0.0, 5.0])
        np.testing.assert_array_equal(geom.distances_to((3.0, 4.0)), [0.0, 5.0, 10.0])
        np.testing.assert_array_equal(geom.distances_to((0, 0)), first)
        for kept in (first, geom.positions):
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 1.0

    def test_trigger_and_arrival_draws_share_one_pass(self, monkeypatch):
        # each distance pass picks its power-of-two scale with one frexp
        geom = place_stations(50, 100.0, seed=1)
        calls = []
        frexp = math.frexp
        monkeypatch.setattr(traffic.math, "frexp", lambda x: calls.append(1) or frexp(x))
        scenario = AlarmScenario((10.0, 0.0), 4000.0, 0.0, SqrtCapCorrelation(50.0))
        for _ in range(3):
            AlarmScenario((10.0, 0.0), 4000.0, 1.0).arrival_times(geom)
            scenario.trigger_probs(geom)
        assert len(calls) == 1

    @pytest.mark.parametrize("r", [1e-300, 1.0, 1e3, 1e300])
    @pytest.mark.parametrize("x,y,unit", [
        (0.0, 0.0, "r"), (0.3, -0.4, "r"), (1.0, 1.0, "r"), (-2.0, 0.5, "r"),
        (1e300, -1e300, "m"), (-1e300, 3.0, "m"), (7e299, 1e-300, "m"), (5e-324, 0.0, "m")])
    def test_within_two_ulp_of_hypot(self, r, x, y, unit):
        geom = place_stations(2000, r, seed=5)
        p = (x * r, y * r) if unit == "r" else (x, y)
        d = geom.distances_to(p)
        h = np.hypot(geom.positions[:, 0] - p[0], geom.positions[:, 1] - p[1])
        assert np.all(np.isfinite(d)) and np.all(np.isfinite(h))
        assert np.all(np.abs(d - h) <= 2 * np.spacing(h))

    @pytest.mark.parametrize("r,p", [(1e300, (1.7e308, 0.0)), (1e300, (-1.2e308, 1.2e308)),
                                     (1.7e308, (0.0, 0.0)), (1e-310, (0.0, 1e-310)),
                                     (1e-320, (1e-320, -1e-320))])
    def test_finite_wherever_hypot_is(self, r, p):
        positions = np.array([[0.0, 0.0], [r, 0.0], [0.0, -r], [-0.6 * r, 0.8 * r]])
        geom = CellGeometry(r, positions)
        with np.errstate(over="ignore"):
            h = np.hypot(positions[:, 0] - p[0], positions[:, 1] - p[1])
            d = geom.distances_to(p)
        finite = np.isfinite(h)
        assert finite.any()
        assert np.all(np.isfinite(d[finite]))
        assert np.all(np.abs(d[finite] - h[finite]) <= 2 * np.spacing(h[finite]))


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

    # an infinite interval has rate 0; 1e-320's reciprocal overflows to inf
    @pytest.mark.parametrize("t_ri", [0.0, -1.0, float("nan"), float("inf"), 1e-320])
    def test_reporting_interval_must_be_positive(self, t_ri):
        with pytest.raises(ValueError, match="reporting interval"):
            RegularTrafficParams(t_ri)

    @pytest.mark.parametrize("lambda_d", [-1.0, float("nan")])
    def test_on_demand_rate_must_be_non_negative(self, lambda_d):
        with pytest.raises(ValueError, match="on-demand rate"):
            RegularTrafficParams(300.0, lambda_d)


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
            # the arrival times are checked before the bin width they
            # also make infinite (1000 m / (50 * 1e-310 m/s))
            with pytest.raises(AlarmTimeError, match="non-finite"):
                activation_curve(geom, scenario, seed=1)

    @pytest.mark.parametrize("epicenter", [(0.0, 0.0), (1.0, 0.0)],
                             ids=["triggered", "none-triggered"])
    def test_underflowing_bin_width_rejected(self, epicenter):
        # 1e-300 m / (50 * 1e300 m/s) underflows to 0; 1 m away no station
        # is within the 0.5 m reach
        geom = CellGeometry(1e-300, np.zeros((3, 2)))
        scenario = AlarmScenario(epicenter, 1e300, 0.0, SqrtCapCorrelation(0.5))
        with pytest.raises(AlarmTimeError, match="activation bin"):
            activation_curve(geom, scenario, seed=1)


class TestActivationCurves:
    def test_unit_model_total_and_span(self, ref_geometry):
        scenario = AlarmScenario(epicenter=(0, 0), v=4000.0, t_a=0.0)
        curve = activation_curve(ref_geometry, scenario, seed=11)
        assert curve.total == ref_geometry.n_stations
        assert abs(curve.nonzero_span() - 0.25) <= 0.005

    def test_sqrt_cap_total_matches_mc_integral(self, ref_geometry):
        scenario = AlarmScenario(epicenter=(0, 0), v=4000.0, t_a=0.0,
                                 correlation=SqrtCapCorrelation(d_max=500.0))
        curve = activation_curve(ref_geometry, scenario, seed=12)
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
            seed=13)
        ex = activation_curve(
            geom, AlarmScenario((0, 0), 4000.0, 0.0, ExpDecayCorrelation(0.005)),
            seed=14)
        assert sq.total > ex.total
        assert ex.nonzero_span() > sq.nonzero_span()

    def test_counts_bounded_by_population(self, ref_geometry):
        scenario = AlarmScenario(epicenter=(0, 0), v=4000.0, t_a=0.0)
        curve = activation_curve(ref_geometry, scenario, seed=15)
        assert curve.total <= ref_geometry.n_stations


class TestBetaModel:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (3.0, 4.0), (2.0, 8.0)])
    def test_density_integrates_to_one(self, alpha, beta):
        t_span = 10.0
        val, _ = integrate.quad(lambda t: beta_pdf(t, alpha, beta, t_span),
                                0.0, t_span, limit=200)
        assert abs(val - 1.0) < 1e-6

    def test_large_shapes_over_a_long_window_stay_finite(self):
        # 10 ** 999 overflows; in normalised time the density is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = beta_pdf([5.0], 500.0, 500.0, 10.0)
        assert np.isfinite(val).all()
        assert val[0] == pytest.approx(stats.beta(500.0, 500.0).pdf(0.5) / 10.0, rel=1e-9)

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
        curve = activation_curve(ref_geometry, scenario, seed=16)
        fit = fit_beta(curve)
        assert fit.t_span <= 1.0  # an order of magnitude under the 10 s default

    def test_window_too_long_to_fit_reported_unfittable(self):
        # a 5e300 s window: its square overflows, without a warning
        curve = ActivationCurve(bin_width=1e300, counts=np.array([1, 3, 4, 2, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows the fit"):
                fit_beta(curve)

    def test_degenerate_curve_reported_unfittable(self):
        curve = ActivationCurve(bin_width=0.005, counts=np.array([0, 500, 0]))
        with pytest.raises(ValueError, match="degenerate"):
            fit_beta(curve)
