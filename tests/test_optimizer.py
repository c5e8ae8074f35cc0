import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from rspool import analysis, simulator
from rspool import (AlarmScenario, Deadlines, InfeasibleConfigError,
                    ProtocolParams, RegularTrafficParams, SqrtCapCorrelation,
                    SweepBase, SweepGrid, compare_naive, delta_c_from_pct,
                    expected_costs, frames_for, sweep)
from rspool.optimizer import (DEFAULT_DELTA_C_PCTS, DEFAULT_OMEGAS, FRACTION_STEPS,
                              _evaluate_point, _frame_table)
from tests.conftest import N, P_H1, RS_DURATION, T_R

FRACTION_PAIRS = [(f1, f2) for f1 in FRACTION_STEPS for f2 in FRACTION_STEPS
                  if f2 <= f1]


def searched_row(base, omega, pct):
    return _evaluate_point(base, omega, pct, "search", "search")[0]


def fixed_row(base, omega, pct, l1_frac, l2_frac):
    return _evaluate_point(base, omega, pct, l1_frac, l2_frac)[0]


def tight_base(ref_geometry, ref_traffic, tau_a):
    return SweepBase(geometry=ref_geometry, traffic=ref_traffic,
                     deadlines=Deadlines(tau_a=tau_a),
                     t_r=T_R, rs_duration=RS_DURATION, p_h1=P_H1)


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
        tight = Deadlines(tau_a=4.12)
        base = SweepBase(geometry=ref_geometry, traffic=ref_traffic,
                         deadlines=tight, t_r=T_R, rs_duration=RS_DURATION,
                         p_h1=P_H1)
        grid = SweepGrid(omega_values=(1, 40), delta_c_pcts=(50.0,))
        result = sweep(grid, base)
        flags = {r.omega: r.feasible for r in result.rows}
        assert flags[40] is False  # worst case exceeds the slack
        assert result.argmin.omega == 1

    def test_fully_infeasible_grid_raises(self, ref_geometry, ref_traffic):
        tight = Deadlines(tau_a=2.51)
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

    def test_simulated_rows_share_their_arrivals(self, base, monkeypatch):
        totals = []
        run_scenario = simulator.run_scenario

        def spy(*args, **kwargs):
            stats = run_scenario(*args, **kwargs)
            totals.append(stats.reports_total)
            return stats

        monkeypatch.setattr(simulator, "run_scenario", spy)
        grid = SweepGrid(omega_values=(20, 40), delta_c_pcts=(25.0, 50.0),
                         simulate_pools=200)
        # a SeedSequence, as the command line passes
        result = sweep(grid, base, seed=np.random.SeedSequence(2025))
        assert len(totals) == sum(r.feasible for r in result.rows) == 4
        assert len(set(totals)) == 1

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
        row = searched_row(base, 20, 50.0)
        assert row.feasible and 1 <= row.l2 <= row.l1 < 20

    def test_search_not_worse_than_default_split(self, base):
        best = searched_row(base, 40, 50.0)
        default = fixed_row(base, 40, 50.0, 0.6, 0.4)
        assert (default.l1, default.l2) == (24, 16)
        assert best.e_c_analytical <= default.e_c_analytical + 1e-9

    @pytest.mark.parametrize("omega", [1, 10, 40, 200])
    @pytest.mark.parametrize("pct", [10.0, 50.0, 90.0])
    def test_frame_search_matches_exhaustive_evaluation(self, base, omega, pct):
        # every fraction pair evaluated on its own, duplicates included;
        # first minimum wins
        best = (math.inf, frames_for(omega, 0.6, 0.4))
        for fractions in FRACTION_PAIRS:
            row = fixed_row(base, omega, pct, *fractions)
            if row.feasible and row.e_c_analytical < best[0]:
                best = (row.e_c_analytical, (row.l1, row.l2))
        found = searched_row(base, omega, pct)
        assert (found.l1, found.l2) == best[1]
        if best[0] < math.inf:
            assert found.e_c_analytical == best[0]

    # the 11 x 5 reference grid, and the [compare] group sizes off it
    @pytest.mark.parametrize("omega,pct", [
        *((omega, pct) for omega in DEFAULT_OMEGAS for pct in DEFAULT_DELTA_C_PCTS),
        (15, 50.0), (25, 50.0)])
    def test_frame_search_matches_exhaustive_evaluation_on_reference_grid(
            self, base, omega, pct):
        self.test_frame_search_matches_exhaustive_evaluation(base, omega, pct)

    def test_no_deadline_feasible_pair_keeps_default_split(
            self, ref_geometry, ref_traffic):
        # 2.51 s leaves 10 ms after the 2.5 s period, less than the 40 ms
        # preallocated pool of omega = 40 alone
        base = tight_base(ref_geometry, ref_traffic, 2.51)
        for fractions in FRACTION_PAIRS:
            row = fixed_row(base, 40, 50.0, *fractions)
            assert not row.feasible
            assert (row.l1, row.l2) == frames_for(40, *fractions)
        row = searched_row(base, 40, 50.0)
        assert not row.feasible and (row.l1, row.l2) == (24, 16)

    def test_equal_costs_keep_first_pair_in_grid_order(self, ref_geometry,
                                                        ref_deadlines):
        # activity rounds to zero: no slot ever collides, and every pair
        # costs the bare pool
        silent = RegularTrafficParams(1e18, 0.0)
        base = SweepBase(geometry=ref_geometry, traffic=silent,
                         deadlines=ref_deadlines, t_r=T_R,
                         rs_duration=RS_DURATION, p_h1=0.0)
        assert base.activity().p_a0 == 0.0
        for fractions, frames in [((0.1, 0.1), (4, 4)), ((0.6, 0.4), (24, 16)),
                                  ((1.0, 1.0), (39, 39))]:
            row = fixed_row(base, 40, 50.0, *fractions)
            assert (row.l1, row.l2) == frames
            assert row.feasible and row.e_c_analytical == N / 40
        row = searched_row(base, 40, 50.0)
        assert (row.l1, row.l2) == frames_for(40, 0.1, 0.1) == (4, 4)

    def test_single_station_groups(self, base):
        row = searched_row(base, 1, 50.0)
        assert (row.l1, row.l2) == (1, 1)
        searched = sweep(SweepGrid(omega_values=(1,), delta_c_pcts=(50.0,),
                                   l1_frac="search", l2_frac="search"), base)
        assert searched.rows[0].e_c_analytical == pytest.approx(N)


@pytest.fixture
def costed(monkeypatch):
    """The (params, figures) of every cost_mix call."""
    calls = []
    cost_mix = analysis.cost_mix

    def counted(params, activity, p_h1, figures):
        calls.append((params, figures))
        return cost_mix(params, activity, p_h1, figures)

    monkeypatch.setattr(analysis, "cost_mix", counted)
    return calls


@pytest.fixture
def resolved(monkeypatch):
    """The group size of every resolution_probs call, from a cleared frame
    table cache."""
    calls = []
    resolution_probs = analysis.resolution_probs

    def counted(omega, l1, l2, p_a):
        calls.append(omega)
        return resolution_probs(omega, l1, l2, p_a)

    monkeypatch.setattr(analysis, "resolution_probs", counted)
    _frame_table.cache_clear()
    return calls


@pytest.fixture(params=["reference", "heavy", "tight"])
def search_base(request, base, ref_geometry, ref_traffic):
    """The reference base; the same at heavy load (t_ri = 30 s, on-demand
    every 300 s); and, without the alarm, under a 5.5 s alarm deadline."""
    if request.param == "heavy":
        return dataclasses.replace(base, traffic=RegularTrafficParams(30.0, 1 / 300))
    if request.param == "tight":
        return tight_base(ref_geometry, ref_traffic, 5.5)
    return base


def per_point_reference(base, omega, pct):
    """A searched grid point scored on its own: the distinct pairs of the
    fraction grid, the deadline mask over them, one cost_mix call over the
    frame figures of the feasible ones, and the first least cost. Returns
    the row's fields and whether the mask dropped some pairs but not all."""
    default = frames_for(omega, 0.6, 0.4)
    pairs = list(dict.fromkeys(frames_for(omega, *f) for f in FRACTION_PAIRS))
    l1, l2 = (np.array(v) for v in zip(*pairs))
    params = ProtocolParams(n=N, omega=omega, l1=default[0], l2=default[1], t_r=T_R,
                            delta_c=delta_c_from_pct(pct, math.ceil(N / omega)),
                            rs_duration=RS_DURATION)
    worst = simulator.worst_case_pool_duration(params, (l1, l2))
    f = simulator.meets_deadline(params, base.deadlines, worst)
    assert f.any()
    activity = base.activity()
    report = analysis.cost_mix(params, activity, base.p_h1,
                               analysis.frame_figures(omega, l1[f], l2[f], activity.p_a0))
    best = int(np.argmin(report.e_c))
    assert report.e_c[best] < math.inf
    row = (int(l1[f][best]), int(l2[f][best]), True, float(report.e_c[best]),
           report.p_11, report.p_10)
    return row, 0 < f.sum() < f.size


def row_fields(row):
    return (row.l1, row.l2, row.feasible, row.e_c_analytical, row.p11, row.p10)


class TestSearchCost:
    def test_searched_sweep_builds_one_table_per_group_size(self, search_base, resolved):
        # one resolution pass per group size with a collision serves all
        # its thresholds; every row is the row the point scored on its own
        # gives, to the bit
        rows = sweep(SweepGrid(l1_frac="search", l2_frac="search"), search_base).rows
        assert resolved == [omega for omega in DEFAULT_OMEGAS if omega >= 2]
        assert [(r.omega, r.delta_c_pct) for r in rows] == \
            [(o, p) for o in DEFAULT_OMEGAS for p in DEFAULT_DELTA_C_PCTS]
        masked = 0
        for row in rows:
            want, partial = per_point_reference(search_base, row.omega, row.delta_c_pct)
            assert row_fields(row) == want, (row.omega, row.delta_c_pct)
            masked += partial
        # the deadline mask drops some pairs, not all, at 20 of the 55 points
        assert masked == 20

    def test_rows_do_not_depend_on_cache_state_or_order(self, search_base):
        grid = SweepGrid(l1_frac="search", l2_frac="search")
        _frame_table.cache_clear()
        whole = [row_fields(r) for r in sweep(grid, search_base).rows]
        points = [(o, p) for o in DEFAULT_OMEGAS for p in DEFAULT_DELTA_C_PCTS]

        def one_point(omega, pct):
            point = dataclasses.replace(grid, omega_values=(omega,), delta_c_pcts=(pct,))
            [row] = sweep(point, search_base).rows
            return row_fields(row)

        cold = []
        for omega, pct in points:
            _frame_table.cache_clear()
            cold.append(one_point(omega, pct))
        # tables of another activity in the cache must not leak into these rows
        sweep(grid, dataclasses.replace(search_base, traffic=RegularTrafficParams(60.0, 0.0)))
        warm_reversed = [one_point(o, p) for o, p in reversed(points)][::-1]
        assert whole == cold == warm_reversed

    def test_naive_side_is_the_delta_c_one_report(self, search_base):
        omegas = (1, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100)
        result = compare_naive(search_base, omega_values=omegas)
        assert [r.omega for r in result.rows] == list(omegas)
        for row in result.rows:
            params = _evaluate_point(search_base, row.omega, 50.0, "search", "search")[1]
            naive = dataclasses.replace(params, delta_c=1)
            want = expected_costs(naive, search_base.activity(), search_base.p_h1).e_c
            assert row.e_c_naive == want

    def test_frame_table_is_read_only(self, base):
        table = _frame_table(40, "search", "search", base.activity().p_a0)
        for figure in (table.l1, table.l2, table.r1, table.r2, table.e_s):
            with pytest.raises(ValueError):
                figure[0] = 0

    def test_search_costs_only_deadline_feasible_pairs(self, ref_geometry,
                                                       ref_traffic, costed):
        # at omega = 40, delta_c = 90 % the worst case grows with l1 + l2,
        # and 3 s of slack after the period admits only the shorter pairs
        base = tight_base(ref_geometry, ref_traffic, 5.5)
        row = searched_row(base, 40, 90.0)
        [(params, figures)] = costed
        l1, l2 = figures.l1, figures.l2
        worst = simulator.worst_case_pool_duration(params, (l1, l2))
        assert simulator.meets_deadline(params, base.deadlines, worst).all()
        table = _frame_table(40, "search", "search", base.activity().p_a0)
        assert 0 < l1.size < table.l1.size
        assert row.feasible and (row.l1, row.l2) in set(zip(l1.tolist(), l2.tolist()))

    def test_searched_simulated_sweep_runs_the_row_frames(self, base, monkeypatch):
        runs = []

        def stub(geometry, params, *args, **kwargs):
            runs.append(params)
            return SimpleNamespace(mean_rs_per_pool=1.5, stderr_rs_per_pool=0.5)

        monkeypatch.setattr(simulator, "run_scenario", stub)
        grid = SweepGrid(omega_values=(40,), delta_c_pcts=(50.0,),
                         l1_frac="search", l2_frac="search", simulate_pools=3)
        row = sweep(grid, base, seed=7).rows[0]
        assert (row.l1, row.l2) != frames_for(40, 0.6, 0.4)
        assert [(p.omega, p.l1, p.l2) for p in runs] == [(40, row.l1, row.l2)]
        assert (row.e_c_simulated, row.e_c_simulated_stderr) == (1.5, 0.5)


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
