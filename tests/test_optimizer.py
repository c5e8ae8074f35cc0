import math

import pytest

from rspool import analysis
from rspool import (AlarmScenario, Deadlines, InfeasibleConfigError,
                    ProtocolParams, RegularTrafficParams, SqrtCapCorrelation,
                    SweepBase, SweepGrid, compare_naive, expected_costs,
                    frames_for, sweep)
from rspool.optimizer import (DEFAULT_DELTA_C_PCTS, DEFAULT_OMEGAS, FRACTION_STEPS,
                              _evaluate_point, _searched_frames)
from tests.conftest import N, P_H1, RS_DURATION, T_R


@pytest.fixture(scope="module")
def base(ref_geometry, ref_traffic, ref_deadlines):
    alarm = AlarmScenario((0, 0), 4000.0, t_a=0.0,
                          correlation=SqrtCapCorrelation(500.0))
    return SweepBase(geometry=ref_geometry, traffic=ref_traffic,
                     deadlines=ref_deadlines, t_r=T_R, rs_duration=RS_DURATION,
                     p_h1=P_H1, alarm=alarm)


class TestSweep:
    def test_single_point_matches_direct_analysis(self, base):
        grid = SweepGrid(omega_values=(40,), delta_c_pcts=(50.0,))
        result = sweep(grid, base)
        row = result.rows[0]
        params = ProtocolParams(n=N, omega=40, delta_c=100, l1=24, l2=16,
                                t_r=T_R, rs_duration=RS_DURATION)
        report = expected_costs(params, base.activity(), P_H1)
        assert row.e_c_analytical == pytest.approx(report.e_c, rel=1e-12)
        assert row.p11 == pytest.approx(report.p_11, rel=1e-12)
        assert result.argmin is row

    def test_degenerate_group_size_costs_whole_population(self, base):
        grid = SweepGrid(omega_values=(1,), delta_c_pcts=(50.0,))
        result = sweep(grid, base)
        assert result.argmin.e_c_analytical == pytest.approx(N)

    def test_cost_curve_dips_then_rises(self, base):
        grid = SweepGrid(omega_values=(1, 10, 20, 30, 40, 60, 100, 150, 200),
                         delta_c_pcts=(50.0,))
        result = sweep(grid, base)
        costs = [r.e_c_analytical for r in result.rows]
        best = min(costs)
        # strictly worse at both ends than at the interior minimum
        assert costs[0] > 2 * best
        assert costs[-1] > 2 * best
        assert costs.index(best) not in (0, len(costs) - 1)

    def test_argmin_deterministic_for_analytical_evaluation(self, base):
        grid = SweepGrid(omega_values=(20, 30, 40, 60), delta_c_pcts=(25.0, 50.0))
        a = sweep(grid, base)
        b = sweep(grid, base)
        assert (a.argmin.omega, a.argmin.delta_c_pct) == \
            (b.argmin.omega, b.argmin.delta_c_pct)

    def test_near_optimal_rows_include_argmin(self, base):
        grid = SweepGrid(omega_values=(20, 25, 30, 35, 40, 50), delta_c_pcts=(50.0,))
        result = sweep(grid, base)
        best = result.argmin.e_c_analytical
        region = [r for r in result.rows
                  if r.feasible and r.e_c_analytical <= best * 1.15]
        assert result.argmin in region
        assert len(region) >= 2

    def test_infeasible_rows_flagged_not_skipped(self, ref_geometry, ref_traffic):
        # one-slot groups finish worst-case in 1.6 s, well inside 4.12 s of
        # slack; forty-wide groups need up to 1.64 s and miss it
        tight = Deadlines(tau_a=4.12, tau_d=60.0, tau_p=300.0)
        base = SweepBase(geometry=ref_geometry, traffic=ref_traffic,
                         deadlines=tight, t_r=T_R, rs_duration=RS_DURATION,
                         p_h1=P_H1)
        grid = SweepGrid(omega_values=(1, 40), delta_c_pcts=(50.0,))
        result = sweep(grid, base)
        flags = {r.omega: r.feasible for r in result.rows}
        assert flags[40] is False  # worst case exceeds the slack
        assert result.argmin.omega == 1

    def test_fully_infeasible_grid_raises(self, ref_geometry, ref_traffic):
        tight = Deadlines(tau_a=2.51, tau_d=60.0, tau_p=300.0)
        base = SweepBase(geometry=ref_geometry, traffic=ref_traffic,
                         deadlines=tight, t_r=T_R, rs_duration=RS_DURATION,
                         p_h1=P_H1)
        grid = SweepGrid(omega_values=(20, 40), delta_c_pcts=(50.0,))
        with pytest.raises(InfeasibleConfigError):
            sweep(grid, base)

    def test_simulated_evaluation_agrees_with_analytical(self, base):
        grid = SweepGrid(omega_values=(40,), delta_c_pcts=(50.0,),
                         simulate_pools=400)
        result = sweep(grid, base, seed=2025)
        row = result.rows[0]
        assert not math.isnan(row.e_c_simulated)
        assert abs(row.e_c_simulated - row.e_c_analytical) < \
            3 * row.e_c_simulated_stderr + 0.01 * row.e_c_analytical

    def test_simulated_sweep_requires_seed(self, base):
        grid = SweepGrid(omega_values=(40,), delta_c_pcts=(50.0,),
                         simulate_pools=10)
        with pytest.raises(ValueError, match="seed"):
            sweep(grid, base)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            SweepGrid(omega_values=(), delta_c_pcts=(50.0,))


class TestFrameFractionSearch:
    def test_search_returns_ordered_frames(self, base):
        l1, l2 = _searched_frames(base, omega=20, delta_c_pct=50.0)
        assert 1 <= l2 <= l1 < 20

    def test_search_not_worse_than_default_split(self, base):
        l1, l2 = _searched_frames(base, omega=40, delta_c_pct=50.0)
        best = _evaluate_point(base, 40, 50.0, l1, l2, 0, None)
        default = _evaluate_point(base, 40, 50.0, 24, 16, 0, None)
        assert best.e_c_analytical <= default.e_c_analytical + 1e-9

    @pytest.mark.parametrize("omega", [1, 10, 40, 200])
    @pytest.mark.parametrize("pct", [10.0, 50.0, 90.0])
    def test_searched_frames_match_exhaustive_evaluation(self, base, omega, pct):
        # every fraction pair evaluated, duplicates included; first minimum wins
        best = (math.inf, frames_for(omega, 0.6, 0.4))
        for f1 in FRACTION_STEPS:
            for f2 in FRACTION_STEPS:
                if f2 > f1:
                    continue
                frames = frames_for(omega, f1, f2)
                row = _evaluate_point(base, omega, pct, *frames, 0, None)
                if row.feasible and row.e_c_analytical < best[0]:
                    best = (row.e_c_analytical, frames)
        assert _searched_frames(base, omega, pct) == best[1]

    # the 11 x 5 reference grid, and the [compare] group sizes off it
    @pytest.mark.parametrize("omega,pct", [
        *((omega, pct) for omega in DEFAULT_OMEGAS for pct in DEFAULT_DELTA_C_PCTS),
        (15, 50.0), (25, 50.0)])
    def test_searched_frames_match_exhaustive_evaluation_on_reference_grid(
            self, base, omega, pct):
        self.test_searched_frames_match_exhaustive_evaluation(base, omega, pct)

    def test_no_deadline_feasible_pair_keeps_default_split(
            self, ref_geometry, ref_traffic):
        # 2.51 s leaves 10 ms after the 2.5 s period, less than the 40 ms
        # preallocated pool of omega = 40 alone
        tight = Deadlines(tau_a=2.51, tau_d=60.0, tau_p=300.0)
        base = SweepBase(geometry=ref_geometry, traffic=ref_traffic,
                         deadlines=tight, t_r=T_R, rs_duration=RS_DURATION,
                         p_h1=P_H1)
        for l1, l2 in dict.fromkeys(frames_for(40, f1, f2) for f1 in FRACTION_STEPS
                                    for f2 in FRACTION_STEPS if f2 <= f1):
            assert not _evaluate_point(base, 40, 50.0, l1, l2, 0, None).feasible
        assert _searched_frames(base, 40, 50.0) == (24, 16)

    def test_undefined_costs_keep_default_split(self, base, monkeypatch):
        # a regular-regime branch with mass but no defined mean leaves every
        # pair's cost NaN
        nan = float("nan")
        monkeypatch.setattr(analysis, "_conditional_collision_means",
                            lambda pool, p_c, delta_c: (1.0, nan, 0.0, nan))
        assert math.isnan(_evaluate_point(base, 40, 50.0, 4, 4, 0, None).e_c_analytical)
        assert _searched_frames(base, 40, 50.0) == (24, 16)

    def test_equal_costs_keep_first_pair_in_grid_order(self, ref_geometry,
                                                        ref_deadlines):
        # activity rounds to zero: no slot ever collides, and every pair
        # costs the bare pool
        silent = RegularTrafficParams(1e18, 0.0)
        base = SweepBase(geometry=ref_geometry, traffic=silent,
                         deadlines=ref_deadlines, t_r=T_R,
                         rs_duration=RS_DURATION, p_h1=0.0)
        assert base.activity().p_a0 == 0.0
        for frames in [(4, 4), (24, 16), (39, 39)]:
            row = _evaluate_point(base, 40, 50.0, *frames, 0, None)
            assert row.feasible and row.e_c_analytical == N / 40
        assert _searched_frames(base, 40, 50.0) == frames_for(40, 0.1, 0.1) == (4, 4)

    def test_single_station_groups(self, base):
        assert _searched_frames(base, 1, 50.0) == (1, 1)
        searched = sweep(SweepGrid(omega_values=(1,), delta_c_pcts=(50.0,),
                                   l1_frac="search", l2_frac="search"), base)
        assert searched.rows[0].e_c_analytical == pytest.approx(N)


class TestSearchCost:
    def test_searched_sweep_costs_each_row_once(self, base, monkeypatch):
        # the search scores its candidates in one array pass per point; only
        # the row of each point goes through expected_costs
        calls = []
        full_report = analysis.expected_costs

        def counted(*args):
            calls.append(args[0])
            return full_report(*args)

        monkeypatch.setattr(analysis, "expected_costs", counted)
        grid = SweepGrid(l1_frac="search", l2_frac="search")
        rows = sweep(grid, base).rows
        assert all(r.feasible for r in rows)
        assert len(calls) == len(rows) == len(DEFAULT_OMEGAS) * len(DEFAULT_DELTA_C_PCTS)
        assert [(p.omega, p.l1, p.l2) for p in calls] == \
            [(r.omega, r.l1, r.l2) for r in rows]


class TestCompareNaive:
    def test_degenerate_group_size_equal_costs(self, base):
        result = compare_naive(base, omega_values=(1,))
        row = result.rows[0]
        assert row.e_c_adaptive == pytest.approx(N)
        assert row.e_c_naive == pytest.approx(N)

    def test_vanishing_traffic_ratio_tends_to_one(self, ref_geometry, ref_deadlines):
        quiet = RegularTrafficParams(3.0e7, 0.0)
        base = SweepBase(geometry=ref_geometry, traffic=quiet,
                         deadlines=ref_deadlines, t_r=T_R,
                         rs_duration=RS_DURATION, p_h1=0.0)
        result = compare_naive(base, omega_values=(20, 40))
        assert result.min_ratio == pytest.approx(1.0, abs=1e-3)
        for row in result.rows:
            pool = math.ceil(N / row.omega)
            assert row.e_c_adaptive == pytest.approx(pool, rel=1e-3)

    def test_naive_never_cheaper_at_the_minima(self, base):
        result = compare_naive(base, omega_values=(10, 20, 30, 40, 60, 100))
        assert result.min_naive >= result.min_adaptive
        assert result.min_ratio >= 1.0

    def test_row_costs_positive_and_finite(self, base):
        result = compare_naive(base, omega_values=(10, 40, 100))
        for row in result.rows:
            assert 0 < row.e_c_adaptive < float("inf")
            assert 0 < row.e_c_naive < float("inf")


class TestCompareNaiveSearchedFrames:
    def test_adaptive_rows_are_searched_sweep_rows(self, base):
        omegas = (10, 20, 40, 60)
        result = compare_naive(base, omega_values=omegas, delta_c_pct=50.0)
        searched = sweep(SweepGrid(omega_values=omegas, delta_c_pcts=(50.0,),
                                   l1_frac="search", l2_frac="search"), base)
        default = sweep(SweepGrid(omega_values=omegas, delta_c_pcts=(50.0,)), base)
        assert [r.omega for r in result.rows] == list(omegas)
        for row, found, split in zip(result.rows, searched.rows, default.rows):
            assert (found.omega, split.omega) == (row.omega, row.omega)
            assert row.e_c_adaptive == found.e_c_analytical
            assert row.e_c_adaptive <= split.e_c_analytical
