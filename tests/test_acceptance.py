"""Acceptance suite: one test per stated criterion, each printing a PASS/FAIL
line with the measured values (run with -s to see every line).

The heavy scenario runs are shared across criteria through module fixtures.
"""

import io
import math

import numpy as np
import pytest

from rspool import (ActivityProbs, AlarmProcess, AlarmScenario, Deadlines,
                    ProtocolParams, RegularTrafficParams, SqrtCapCorrelation,
                    SweepBase, UnitCorrelation, activation_curve,
                    activity_prob_alarm, activity_prob_regular, collision_prob,
                    compare_naive, expected_costs, fit_beta,
                    place_stations, run_scenario)
from rspool.analysis import _survivor_table
from rspool.traffic import ActivationCurve
from tests.chi_square import kc_chi_square
from tests.conftest import (DC_PCT, L1, L2, LAMBDA_D, N, OMEGA, P_H1, RADIUS,
                            RS_DURATION, T_R, T_RI, TAU_A,
                            read_trace)

POOLS_AT_OPTIMUM = 10_000
DETECTION_REPS = 1_000
DETECTION_SEED = 314_159  # root of the per-event streams, one child per d_max
META_REPS = 100
POOLS_PER_META_REP = 1_000


def report_line(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def optimum_params() -> ProtocolParams:
    return ProtocolParams(n=N, omega=OMEGA, delta_c=100, l1=L1, l2=L2,
                          t_r=T_R, rs_duration=RS_DURATION)


@pytest.fixture(scope="module")
def traffic_params() -> RegularTrafficParams:
    return RegularTrafficParams(T_RI, LAMBDA_D)


@pytest.fixture(scope="module")
def deadlines() -> Deadlines:
    return Deadlines(tau_a=TAU_A)


@pytest.fixture(scope="module")
def geometry():
    return place_stations(N, RADIUS, seed=810)


@pytest.fixture(scope="module")
def alarm_template() -> AlarmScenario:
    return AlarmScenario((0.0, 0.0), v=4000.0, t_a=0.0,
                         correlation=SqrtCapCorrelation(d_max=500.0))


@pytest.fixture(scope="module")
def analytical_report(optimum_params, traffic_params, geometry, alarm_template):
    p_a0 = activity_prob_regular(traffic_params.lambda_p, traffic_params.lambda_d, T_R)
    p_a1 = activity_prob_alarm(alarm_template, geometry, traffic_params, T_R)
    return expected_costs(optimum_params, ActivityProbs(p_a0, p_a1), P_H1)


@pytest.fixture(scope="module")
def optimum_mixture_run(optimum_params, traffic_params, deadlines, geometry,
                        alarm_template):
    """The reference operating point simulated for 10^4 pool periods, alarm
    events occurring independently per pool with the configured prior."""
    process = AlarmProcess(prob_per_pool=P_H1, template=alarm_template)
    return run_scenario(geometry, optimum_params, traffic_params, deadlines,
                        alarms=[], horizon=POOLS_AT_OPTIMUM * T_R,
                        seed=271828, alarm_process=process)


@pytest.fixture(scope="module")
def detection_runs(optimum_params, traffic_params, deadlines):
    """Per-event replications: fresh placement and triggers for each alarm;
    records the collided-slot count of the pool serving the event plus the
    reliability counters."""
    out = {}
    d_maxes = (250.0, 500.0)
    roots = np.random.SeedSequence(DETECTION_SEED).spawn(len(d_maxes))
    for d_max, ss in zip(d_maxes, roots):
        kc = np.empty(DETECTION_REPS, dtype=int)
        max_alarm_delay = 0.0
        dropped = unresolved = 0
        alarm_reports = 0
        for i, child in enumerate(ss.spawn(DETECTION_REPS)):
            g_seed, r_seed = child.spawn(2)
            geom = place_stations(N, RADIUS, g_seed)
            alarm = AlarmScenario((0.0, 0.0), v=4000.0, t_a=0.1,
                                  correlation=SqrtCapCorrelation(d_max=d_max))
            sink = io.StringIO()
            stats = run_scenario(geom, optimum_params, traffic_params, deadlines,
                                 alarms=[alarm], horizon=2 * T_R,
                                 seed=r_seed, trace=sink)
            trace = read_trace(sink)
            assert trace[0]["hypothesis"] == "h1"
            kc[i] = trace[0]["k_c"]
            max_alarm_delay = max(max_alarm_delay,
                                  stats.max_delay_by_kind.get("alarm", 0.0))
            dropped += stats.dropped_reports
            unresolved += stats.unresolved_active
            alarm_reports += stats.reports_by_kind.get("alarm", 0)
        out[d_max] = dict(kc=kc, max_alarm_delay=max_alarm_delay,
                          dropped=dropped, unresolved=unresolved,
                          alarm_reports=alarm_reports)
    return out


class TestCriterion01OptimalConfigCost:
    def test_analytical_cost_near_stated_optimum(self, analytical_report):
        e_c = analytical_report.e_c
        ok = 360.0 <= e_c <= 440.0
        report_line(1, "optimal-config analytical E[C] in [360, 440] RS", ok,
                    f"analytical E[C] = {e_c:.1f} RS")
        assert ok, (
            f"analytical E[C] = {e_c:.1f} RS falls outside [360, 440]; the "
            "cost identities as printed give ~538 RS at this configuration, "
            "and at least 489 RS with l1 = 24 (see DECISIONS.md)")

    def test_simulation_agrees_with_analysis(self, analytical_report,
                                             optimum_mixture_run):
        sim = optimum_mixture_run
        diff = abs(sim.mean_rs_per_pool - analytical_report.e_c)
        bound = 3 * sim.stderr_rs_per_pool
        ok = diff < bound
        report_line(1, "optimal-config simulation within 3 SE of analysis", ok,
                    f"simulated {sim.mean_rs_per_pool:.1f} vs analytical "
                    f"{analytical_report.e_c:.1f}, |diff| = {diff:.1f}, "
                    f"3 SE = {bound:.1f} over {sim.pools_run} pools")
        assert ok


class TestCriterion02DegeneratePolling:
    def test_one_slot_per_station(self, traffic_params, deadlines, geometry):
        params = ProtocolParams(n=N, omega=1, delta_c=100, l1=1, l2=1,
                                t_r=T_R, rs_duration=RS_DURATION)
        stats = run_scenario(geometry, params, traffic_params, deadlines,
                             alarms=[], horizon=20 * T_R, seed=161803)
        ok = (stats.mean_rs_per_pool == N
              and stats.std_rs_per_pool == 0.0
              and abs(stats.mean_pool_duration - 1.6) < 1e-12)
        report_line(2, "degenerate polling costs 8000 RS / 1.6 s", ok,
                    f"mean {stats.mean_rs_per_pool:.0f} RS, "
                    f"duration {stats.mean_pool_duration * 1e3:.1f} ms")
        assert ok


class TestCriterion03PoolDurationAtOptimum:
    def test_simulated_duration(self, optimum_mixture_run):
        mean_ms = optimum_mixture_run.mean_pool_duration * 1e3
        ok = 72.0 <= mean_ms <= 88.0
        report_line(3, "pool duration at optimum in [72, 88] ms", ok,
                    f"simulated mean {mean_ms:.1f} ms")
        assert ok, (
            f"simulated mean pool duration {mean_ms:.1f} ms falls outside "
            "[72, 88]; consistent with E[C] ~ 538 RS (see DECISIONS.md)")


class TestCriterion04PerStationOverhead:
    def test_slots_per_station_per_interval(self, optimum_mixture_run):
        value = optimum_mixture_run.rs_per_station_per_ri
        ok = 5.0 <= value <= 7.0
        report_line(4, "RS per station per reporting interval in [5, 7]", ok,
                    f"simulated {value:.2f}")
        assert ok, (
            f"simulated {value:.2f} RS per station per interval falls outside "
            "[5, 7]; consistent with E[C] ~ 538 RS (see DECISIONS.md)")


class TestCriterion05NaiveBaselineRatio:
    def test_min_cost_ratio(self, geometry, traffic_params, deadlines,
                            alarm_template):
        base = SweepBase(geometry=geometry, traffic=traffic_params,
                         deadlines=deadlines, t_r=T_R, rs_duration=RS_DURATION,
                         p_h1=P_H1, alarm=alarm_template)
        result = compare_naive(base, omega_values=tuple(range(10, 105, 5)),
                               delta_c_pct=DC_PCT)
        ratio = result.min_ratio
        ok = 1.5 <= ratio <= 2.5
        report_line(5, "naive / adaptive min-cost ratio in [1.5, 2.5]", ok,
                    f"min naive {result.min_naive:.1f} RS / min adaptive "
                    f"{result.min_adaptive:.1f} RS = {ratio:.3f}")
        assert ok, (
            f"minimum-cost ratio {ratio:.3f} falls outside [1.5, 2.5]; both "
            "minima are over group sizes, the adaptive side at its searched "
            "frames (see DECISIONS.md)")


class TestCriterion06DetectionCurves:
    @pytest.mark.parametrize("d_max,max_pct", [(250.0, 25.0), (500.0, 75.0)])
    def test_analytical_detection(self, geometry, traffic_params, d_max, max_pct):
        alarm = AlarmScenario((0.0, 0.0), v=4000.0, t_a=0.0,
                              correlation=SqrtCapCorrelation(d_max=d_max))
        activity = ActivityProbs(
            activity_prob_regular(traffic_params.lambda_p,
                                  traffic_params.lambda_d, T_R),
            activity_prob_alarm(alarm, geometry, traffic_params, T_R))
        pool = math.ceil(N / OMEGA)
        worst = 1.0
        for pct in np.arange(5.0, max_pct + 1e-9, 5.0):
            delta_c = math.ceil(pct / 100 * pool)
            params = ProtocolParams(n=N, omega=OMEGA, delta_c=delta_c, l1=L1,
                                    l2=L2, t_r=T_R, rs_duration=RS_DURATION)
            worst = min(worst, expected_costs(params, activity, P_H1).p_11)
        ok = worst >= 0.99
        report_line(6, f"analytical P(H1|H1), d_max={d_max:.0f} m, "
                       f"thresholds up to {max_pct:.0f}%", ok,
                    f"worst-case detection probability {worst:.6f}")
        assert ok

    @pytest.mark.parametrize("d_max,max_pct", [(250.0, 25.0), (500.0, 75.0)])
    def test_simulated_detection(self, detection_runs, d_max, max_pct):
        kc = detection_runs[d_max]["kc"]
        pool = math.ceil(N / OMEGA)
        worst = 1.0
        for pct in np.arange(5.0, max_pct + 1e-9, 5.0):
            delta_c = math.ceil(pct / 100 * pool)
            worst = min(worst, float((kc >= delta_c).mean()))
        ok = worst >= 0.99
        report_line(6, f"simulated P(H1|H1), d_max={d_max:.0f} m, "
                       f"thresholds up to {max_pct:.0f}%", ok,
                    f"worst empirical detection {worst:.4f} over {kc.size} events")
        assert ok


class TestCriterion07Reliability:
    def test_no_unresolved_and_no_late_alarms(self, optimum_mixture_run,
                                              detection_runs):
        unresolved = optimum_mixture_run.unresolved_active
        dropped = optimum_mixture_run.dropped_reports
        worst_alarm = optimum_mixture_run.max_delay_by_kind.get("alarm", 0.0)
        for rec in detection_runs.values():
            unresolved += rec["unresolved"]
            dropped += rec["dropped"]
            worst_alarm = max(worst_alarm, rec["max_alarm_delay"])
        ok = unresolved == 0 and dropped == 0 and worst_alarm <= TAU_A
        report_line(7, "reliability: all actives resolved, alarms within 5 s", ok,
                    f"unresolved {unresolved}, dropped {dropped}, "
                    f"worst alarm delay {worst_alarm:.2f} s")
        assert ok


def enumerated_resolution_dist(m: int, l: int, chunk: int = 100_000) -> np.ndarray:
    """Distribution of the resolved-user count over all l**m slot assignments,
    by explicit enumeration (vectorised, chunked)."""
    total = l**m
    place = l ** np.arange(m, dtype=np.int64)
    counts = np.zeros(min(m, l) + 1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // place[None, :]) % l
        eq = digits[:, :, None] == digits[:, None, :]
        resolved = (eq.sum(axis=2) == 1).sum(axis=1)
        counts += np.bincount(resolved, minlength=counts.size)
    return counts / total


class TestCriterion08CombinatorialOracle:
    def test_matches_enumeration_everywhere_tractable(self):
        worst = 0.0
        pairs = 0
        for l in range(1, 101):
            m = 1
            while l**m <= 1_000_000 and m <= 20:
                oracle = enumerated_resolution_dist(m, l)
                table = _survivor_table(l, m)
                for h in range(min(m, l) + 1):
                    worst = max(worst, abs(table[m, m - h] - oracle[h]))
                pairs += 1
                m += 1
        # a couple of wide-frame pair cases beyond the dense grid
        for l in (500, 1000):
            oracle = enumerated_resolution_dist(2, l)
            table = _survivor_table(l, 2)
            for h in (0, 2):
                worst = max(worst, abs(table[2, 2 - h] - oracle[h]))
            pairs += 1
        ok = worst <= 1e-10
        report_line(8, "resolution probabilities match enumeration", ok,
                    f"{pairs} (m, L) pairs, worst |error| = {worst:.2e}")
        assert ok

    def test_distributions_normalised(self):
        worst = 0.0
        for m in range(1, 9):
            for l in range(1, 9):
                table = _survivor_table(l, m)
                total = sum(table[m, m - h] for h in range(min(m, l) + 1))
                worst = max(worst, abs(total - 1.0))
        ok = worst <= 1e-10
        report_line(8, "resolution distributions sum to one (m, L <= 8)", ok,
                    f"worst |sum - 1| = {worst:.2e}")
        assert ok


class TestCriterion09TrafficModel:
    def test_activation_span_full_population(self, geometry):
        scenario = AlarmScenario((0.0, 0.0), v=4000.0, t_a=0.0,
                                 correlation=UnitCorrelation())
        curve = activation_curve(geometry, scenario, seed=55)
        span = curve.nonzero_span()
        ok = abs(span - 0.25) <= 0.005
        report_line(9, "all-affected activation span 0.25 s (+/- one bin)", ok,
                    f"span {span * 1e3:.0f} ms")
        assert ok

    def test_beta_round_trip(self):
        rng = np.random.default_rng(333)
        samples = 10.0 * rng.beta(3.0, 4.0, size=1_000_000)
        counts = np.bincount((samples / 0.005).astype(int))
        fit = fit_beta(ActivationCurve(bin_width=0.005, counts=counts))
        errs = (abs(fit.alpha - 3.0) / 3.0, abs(fit.beta - 4.0) / 4.0,
                abs(fit.t_span - 10.0) / 10.0)
        ok = max(errs) < 0.05
        report_line(9, "shape-parameter round trip within 5%", ok,
                    f"alpha {fit.alpha:.3f}, beta {fit.beta:.3f}, "
                    f"span {fit.t_span:.3f} s")
        assert ok


class TestCriterion10IndependentSlotsAssumption:
    def test_chi_square_meta_replications(self, optimum_params, traffic_params,
                                          deadlines):
        p_c = collision_prob(
            activity_prob_regular(traffic_params.lambda_p,
                                  traffic_params.lambda_d, T_R), OMEGA)
        passes = 0
        ss = np.random.SeedSequence(123_454_321)
        for i, child in enumerate(ss.spawn(META_REPS)):
            g_seed, r_seed = child.spawn(2)
            geom = place_stations(N, RADIUS, g_seed)
            stats = run_scenario(geom, optimum_params, traffic_params, deadlines,
                                 alarms=[], horizon=POOLS_PER_META_REP * T_R,
                                 seed=r_seed)
            _, pvalue, _ = kc_chi_square(stats.kc_counts,
                                         optimum_params.pool_size, p_c)
            passes += pvalue > 0.01
        ok = passes >= 95
        report_line(10, "collided-slot counts pass binomial chi-square", ok,
                    f"{passes}/{META_REPS} meta-replications above the 0.01 level")
        assert ok
