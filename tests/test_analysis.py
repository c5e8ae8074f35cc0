import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rspool import (ActivityProbs, AlarmScenario, ProtocolParams,
                    SqrtCapCorrelation, SweepBase, UnitCorrelation,
                    activity_prob_alarm, activity_prob_regular, collision_prob,
                    compare_naive, delta_c_from_pct, expected_costs,
                    frames_for, resolution_probs, truncated_active_dist)
from rspool.analysis import (_TAIL_EPS, _assoc_stirling, _binom_pmf,
                             _no_singleton_counts, _survivor_table, cost_mix,
                             frame_chain_cost, frame_figures)
from rspool.optimizer import DEFAULT_DELTA_C_PCTS, DEFAULT_OMEGAS, _frame_table
from tests.conftest import (DC_PCT, L1, L2, N, OMEGA, P_H1, RADIUS,
                           RS_DURATION, T_R)

P_A0 = 1 - math.exp(-0.01)  # reference regular activity per pool
# heavy load: t_ri = 30 s, lambda_d = 1/300 per second, over one pool period
P_A0_HEAVY = 1 - math.exp(-(1 / 30 + 1 / 300) * T_R)
# activities at and next to the ends of [0, 1], or anywhere in it
EDGE_PROBS = st.sampled_from([0.0, 2.0**-53, 1 - 2.0**-53, 1.0]) | st.floats(0.0, 1.0)


def no_singleton_placements(u: int, v: int) -> int:
    """Number of ways to place v labelled users into u slots with no slot
    holding exactly one user, by inclusion-exclusion over the users that sit
    alone (exact integer arithmetic); oracle for the S2 table."""
    total = 0
    for t in range(v + 1):
        ff = 1
        for j in range(t):
            ff *= u - j
        total += (-1) ** t * math.comb(v, t) * ff * (u - t) ** (v - t)
    return total


@functools.lru_cache(maxsize=None)
def oracle_resolve_prob(h: int, m: int, l: int) -> float:
    """R(h|m,l) from the inclusion-exclusion count, rounded once."""
    num = math.comb(l, h) * math.perm(m, h) * no_singleton_placements(l - h, m - h)
    return num / l**m


def per_pair_resolution_probs(omega: int, l1: int, l2: int, p_a: float):
    """r1 and r2 of one frame pair by the double loop over multiplicities m
    and second-frame contenders h over the whole contender distribution,
    stopping where the remaining mass falls below _TAIL_EPS; reference for
    the array pass."""
    pa = _binom_pmf(omega, p_a)
    pa[:2] = 0.0
    pa /= pa.sum()
    r1 = r2 = 0.0
    remaining = 1.0
    for m in range(2, omega + 1):
        w = pa[m]
        remaining -= w
        if w > 0.0:
            if m <= l1:
                r1 += oracle_resolve_prob(m, m, l1) * w
            acc = 0.0
            for h in range(2, m + 1):
                if h <= l2 and m - h <= l1:
                    acc += oracle_resolve_prob(h, h, l2) * oracle_resolve_prob(m - h, m, l1)
            r2 += acc * w
        if remaining < _TAIL_EPS:
            break
    return r1, r2


def brute_force_resolution_dist(m: int, l: int) -> np.ndarray:
    """Exhaustive enumeration of slot assignments; oracle for the survivor
    table."""
    counts = np.zeros(min(m, l) + 1)
    for assign in itertools.product(range(l), repeat=m):
        occ = [0] * l
        for a in assign:
            occ[a] += 1
        resolved = sum(1 for a in assign if occ[a] == 1)
        counts[resolved] += 1
    return counts / l**m


class TestActivityProbs:
    def test_no_traffic(self):
        assert activity_prob_regular(0.0, 0.0, 2.5) == 0.0

    def test_reference_rates(self):
        p = activity_prob_regular(1 / 300, 1 / 1500, 2.5)
        assert p == pytest.approx(1 - math.exp(-0.01), rel=1e-12)
        assert p == pytest.approx(0.00995, abs=1e-5)

    def test_saturation(self):
        assert activity_prob_regular(1e6, 0.0, 2.5) == pytest.approx(1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            activity_prob_regular(-1.0, 0.0, 2.5)
        with pytest.raises(ValueError):
            activity_prob_regular(1.0, 0.0, 0.0)

    def test_alarm_window_without_event_reduces_to_regular(self, ref_geometry, ref_traffic):
        # the event's reach ends a cell radius short of the nearest station
        scenario = AlarmScenario((3 * RADIUS, 0), 4000.0, t_a=0.0,
                                 correlation=SqrtCapCorrelation(RADIUS))
        assert not scenario.trigger_probs(ref_geometry).any()
        p = activity_prob_alarm(scenario, ref_geometry, ref_traffic, T_R)
        assert p == pytest.approx(activity_prob_regular(
            ref_traffic.lambda_p, ref_traffic.lambda_d, T_R), rel=1e-12)

    def test_alarm_activity_unit_model(self, ref_geometry, ref_traffic):
        scenario = AlarmScenario((0, 0), 4000.0, t_a=0.0,
                                 correlation=UnitCorrelation())
        p = activity_prob_alarm(scenario, ref_geometry, ref_traffic, T_R)
        # every station reports: the activity is 1 whatever its regular traffic
        assert p == pytest.approx(1.0, rel=1e-12)

    def test_alarm_activity_against_mc_station_frequency(self, ref_geometry, ref_traffic):
        scenario = AlarmScenario((0, 0), 4000.0, t_a=0.0,
                                 correlation=SqrtCapCorrelation(500.0))
        p = activity_prob_alarm(scenario, ref_geometry, ref_traffic, T_R)
        # Monte-Carlo oracle: a station is active if its regular
        # Bernoulli(p_a0) or its alarm Bernoulli(psi) fires
        rng = np.random.default_rng(321)
        p_a0 = activity_prob_regular(ref_traffic.lambda_p, ref_traffic.lambda_d, T_R)
        reps = 200
        psi = np.tile(scenario.trigger_probs(ref_geometry), reps)
        active = (rng.random(psi.size) < p_a0) | (rng.random(psi.size) < psi)
        est = active.mean()
        sigma = math.sqrt(est * (1 - est) / active.size)
        assert abs(p - est) < 3 * sigma


class TestCollisionProb:
    def test_single_station_never_collides(self):
        assert collision_prob(0.5, 1) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert collision_prob(P_A0, 40) == pytest.approx(0.0602, abs=2e-4)

    def test_certain_activity_pair_always_collides(self):
        assert collision_prob(1.0, 2) == pytest.approx(1.0)

    def test_exact_at_small_and_large_activity(self):
        # P(>= 2) = 1 - q^omega - omega p q^(omega-1) in exact rationals of
        # the float p; below p ~ 1e-8 the direct float form loses every digit
        ps = [10.0 ** (-12 + 12 * i / 48) for i in range(48)] + [0.5, 0.9, 0.99]
        for omega in [*range(2, 41), 50, 100, 200]:
            for p in ps:
                f = Fraction(p)
                exact = 1 - (1 - f) ** omega - omega * f * (1 - f) ** (omega - 1)
                got = collision_prob(p, omega)
                assert got >= 0.0, (omega, p)
                assert abs(Fraction(got) - exact) <= Fraction(1, 10**12) * exact, (omega, p)

    @pytest.mark.parametrize("p", [0.0, 1e-300, 0.3, 1.0])
    def test_single_station_exactly_zero(self, p):
        assert collision_prob(p, 1) == 0.0

    def test_against_monte_carlo_slot_draws(self):
        rng = np.random.default_rng(77)
        draws = rng.random((1_000_000, 8)) < 0.1
        observed = (draws.sum(axis=1) >= 2).mean()
        expected = collision_prob(0.1, 8)
        sigma = math.sqrt(expected * (1 - expected) / 1_000_000)
        assert abs(observed - expected) < 3 * sigma

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_activity(self, p1, p2, omega):
        lo, hi = sorted((p1, p2))
        assert collision_prob(lo, omega) <= collision_prob(hi, omega) + 1e-12

    @given(st.floats(0.0, 1.0), st.integers(1, 199))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_group_size(self, p, omega):
        assert collision_prob(p, omega) <= collision_prob(p, omega + 1) + 1e-12


class TestResolveProb:
    """R(h|m,l), the probability that h of m contenders pick a singleton of
    l slots, read from the survivor table as _survivor_table(l, m)[m, m - h]."""

    @pytest.mark.parametrize("l", [1, 2, 5, 40])
    def test_lone_transmitter_always_succeeds(self, l):
        assert _survivor_table(l, 1)[1, 0] == 1.0

    def test_two_users_two_slots(self):
        assert _survivor_table(2, 2)[2, 0] == 0.5

    def test_two_users_one_slot_never_resolve(self):
        assert _survivor_table(1, 2)[2, 2] == 1.0

    def test_rejects_impossible_counts(self):
        # no mass on resolving more users than contend (s > m) or than
        # slots exist (m - s > l)
        for l in range(1, 9):
            table = _survivor_table(l, 12)
            for m in range(13):
                assert not table[m, m + 1:].any()
                assert not table[m, :max(m - l, 0)].any()
                assert table[m, max(m - l, 0):m + 1].sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m,l", [(2, 3), (3, 3), (4, 3), (5, 2), (3, 6), (6, 4)])
    def test_matches_exhaustive_enumeration(self, m, l):
        oracle = brute_force_resolution_dist(m, l)
        table = _survivor_table(l, m)
        for h in range(min(m, l) + 1):
            assert table[m, m - h] == pytest.approx(oracle[h], abs=1e-12)

    def test_distribution_sums_to_one_small_grid(self):
        for m in range(1, 9):
            for l in range(1, 9):
                table = _survivor_table(l, m)
                total = sum(table[m, m - h] for h in range(min(m, l) + 1))
                assert abs(total - 1.0) < 1e-10

    def test_equals_exact_fraction_reference(self):
        # one exact Fraction per value, rounded once to float
        for l in range(1, 25):
            for m in range(25):
                table = _survivor_table(l, m)
                for h in range(min(m, l) + 1):
                    num = (math.comb(l, h) * math.perm(m, h)
                           * no_singleton_placements(l - h, m - h))
                    assert table[m, m - h] == float(Fraction(num, l**m))

    def test_placement_count_is_exact_integer(self):
        # 2 users, one shared slot out of u: u placements with no singleton
        assert no_singleton_placements(5, 2) == 5
        assert no_singleton_placements(3, 0) == 1
        assert no_singleton_placements(0, 3) == 0

    def test_stirling_count_matches_inclusion_exclusion(self):
        s2 = _assoc_stirling(60)
        for u in [*range(61), 150, 199, 500]:
            counts = _no_singleton_counts(u, s2)
            assert counts == [no_singleton_placements(u, v) for v in range(61)], u


class TestTruncatedDist:
    def test_normalised(self):
        dist = truncated_active_dist(40, P_A0)
        assert dist[:2].sum() == 0.0
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pair_group_degenerate(self):
        dist = truncated_active_dist(2, 0.3)
        assert dist[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_rejects_degenerate_activity(self, p):
        with pytest.raises(ValueError):
            truncated_active_dist(4, p)

    def test_matches_conditional_mc_multiplicity(self):
        rng = np.random.default_rng(31)
        actives = (rng.random((2_000_000, 10)) < 0.05).sum(axis=1)
        collided = actives[actives >= 2]
        dist = truncated_active_dist(10, 0.05)
        for m in range(2, 7):
            observed = (collided == m).mean()
            sigma = math.sqrt(dist[m] * (1 - dist[m]) / collided.size)
            assert abs(observed - dist[m]) < 3 * sigma


def simulate_collision_resolutions(omega, l1, l2, p_a, reps, seed):
    """Event-level two-frame contention oracle over collided groups.

    Returns per-replication flags (resolved in frame 1, resolved by frame 2)
    and the per-collision slot cost including the fallback frame.
    """
    rng = np.random.default_rng(seed)
    f1 = np.zeros(reps, dtype=bool)
    f2 = np.zeros(reps, dtype=bool)
    cost = np.zeros(reps)
    done = 0
    while done < reps:
        actives = (rng.random((reps, omega)) < p_a).sum(axis=1)
        for m in actives[actives >= 2]:
            if done >= reps:
                break
            c = l1
            slots = rng.integers(0, l1, size=m)
            occ = np.bincount(slots, minlength=l1)
            survivors = int((occ[slots] > 1).sum())
            if survivors == 0:
                f1[done] = True
            else:
                c += l2
                slots2 = rng.integers(0, l2, size=survivors)
                occ2 = np.bincount(slots2, minlength=l2)
                left = int((occ2[slots2] > 1).sum())
                if left == 0:
                    f2[done] = True
                else:
                    c += omega
            cost[done] = c
            done += 1
    return f1, f2, cost


class TestResolutionProbs:
    def test_single_slot_frame_never_resolves(self):
        r1, _ = resolution_probs(4, 1, 1, 0.2)
        assert r1 == 0.0

    def test_pair_dominated_regime_closed_form(self):
        # with vanishing activity only pairs collide: r1 -> 1 - 1/l1
        r1, _ = resolution_probs(40, 24, 16, 1e-6)
        assert r1 == pytest.approx(1 - 1 / 24, abs=1e-4)

    @pytest.mark.parametrize("p_a", [P_A0, P_A0_HEAVY], ids=["reference", "heavy"])
    def test_array_pass_matches_per_pair_loop(self, p_a):
        for omega in DEFAULT_OMEGAS:
            if omega < 2:
                continue
            table = _frame_table(omega, "search", "search", p_a)
            l1, l2 = table.l1, table.l2
            r1, r2 = resolution_probs(omega, l1, l2, p_a)
            assert np.array_equal(table.r1, r1) and np.array_equal(table.r2, r2)
            for i, (a, b) in enumerate(zip(l1.tolist(), l2.tolist())):
                want1, want2 = per_pair_resolution_probs(omega, a, b, p_a)
                assert r1[i] == pytest.approx(want1, rel=1e-14, abs=0), (omega, a, b)
                assert r2[i] == pytest.approx(want2, rel=1e-14, abs=0), (omega, a, b)

    def test_scalar_call_equals_one_pair_array_call(self):
        for l1, l2 in [(24, 16), (3, 3), (1, 1), (39, 2)]:
            r1, r2 = resolution_probs(OMEGA, np.array([l1]), np.array([l2]), P_A0)
            assert resolution_probs(OMEGA, l1, l2, P_A0) == (r1[0], r2[0])

    def test_reference_values_against_event_mc(self):
        r1, r2 = resolution_probs(OMEGA, L1, L2, P_A0)
        f1, f2, _ = simulate_collision_resolutions(OMEGA, L1, L2, P_A0,
                                                   reps=200_000, seed=8)
        for closed, flags in ((r1, f1), (r2, f2)):
            est = flags.mean()
            sigma = math.sqrt(est * (1 - est) / flags.size)
            assert abs(closed - est) < 3 * sigma
        assert 0 <= r1 <= 1 and 0 <= r2 <= 1 and r1 + r2 <= 1


class TestFrameCost:
    """E[S] as `frame_figures` forms it: frame_chain_cost at reach
    (1 - r1, 1 - (r1 + r2))."""

    def test_always_first_frame(self):  # r1 = 1, r2 = 0
        assert frame_chain_cost(40, 24, 16, 0.0, 0.0) == 24

    def test_full_escalation(self):  # r1 = r2 = 0
        assert frame_chain_cost(40, 24, 16, 1.0, 1.0) == 24 + 16 + 40

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_escalation_extremes(self, r1, scale):
        r2 = (1 - r1) * scale
        cost = frame_chain_cost(40, 24, 16, 1 - r1, 1 - (r1 + r2))
        assert 24 - 1e-9 <= cost <= 24 + 16 + 40 + 1e-9

    def test_reference_cost_matches_simulated_per_collision_cost(self):
        expected = frame_figures(OMEGA, L1, L2, P_A0).e_s
        _, _, cost = simulate_collision_resolutions(OMEGA, L1, L2, P_A0,
                                                    reps=200_000, seed=9)
        assert abs(cost.mean() - expected) / expected < 0.02


PMF_NS = list(range(61)) + [100, 150, 200, 400, 1000]
PMF_PS = [1e-4, 0.003, 0.0602, 0.25, 0.5, 0.77, 0.999]


class TestBinomPmf:
    """The package's own binomial pmf against scipy's, which serves as the
    oracle: scipy stays a dependency, but the analysis path does not load it."""

    @pytest.mark.parametrize("p", PMF_PS)
    def test_matches_scipy(self, p):
        for n in PMF_NS:
            ref = stats.binom.pmf(np.arange(n + 1), n, p)
            got = _binom_pmf(n, p)
            shown = ref > 1e-290
            np.testing.assert_allclose(got[shown], ref[shown], rtol=1e-11, atol=0,
                                       err_msg=f"n={n}")
            assert abs(got.sum() - 1.0) <= 1e-12, n

    def test_finite_where_direct_product_underflows(self):
        n, p = 150, 1e-4
        k = np.arange(n + 1)
        ref = stats.binom.pmf(k, n, p)
        direct = np.array([math.comb(n, i) for i in k], dtype=float) * p**k * (1 - p) ** (n - k)
        lost = (direct == 0.0) & (ref > 1e-290)
        assert lost.any()
        np.testing.assert_allclose(_binom_pmf(n, p)[lost], ref[lost], rtol=1e-11, atol=0)

    @pytest.mark.parametrize("n", [0, 1, 7, 200])
    def test_certain_outcomes_are_point_masses(self, n):
        # no log(0): the RuntimeWarning filter turns any warning into a failure
        assert _binom_pmf(n, 0.0).tolist() == [1.0] + [0.0] * n
        assert _binom_pmf(n, 1.0).tolist() == [0.0] * n + [1.0]

    @pytest.mark.parametrize("p", [-1e-17, 1.5, float("nan")])
    def test_outside_unit_interval_is_nan_like_scipy(self, p):
        assert np.isnan(_binom_pmf(5, p)).all()
        assert np.isnan(stats.binom.pmf(np.arange(6), 5, p)).all()


def pmf_oracle(pool: int, p: float) -> np.ndarray:
    """scipy's binomial pmf, independent of the package's, for conditional-mean
    checks."""
    return stats.binom.pmf(np.arange(pool + 1), pool, p)


def branch_report(p_a0: float, p_a1: float, delta_c: int, n: int = N,
                  omega: int = OMEGA, l1: int = L1, l2: int = L2):
    """Expected-cost report whose collided-slot figures the branch tests read."""
    params = ProtocolParams(n=n, omega=omega, delta_c=delta_c, l1=l1, l2=l2,
                            t_r=T_R, rs_duration=RS_DURATION)
    return expected_costs(params, ActivityProbs(p_a0, p_a1), P_H1)


class TestCollisionCounts:
    def test_no_collisions(self):
        assert branch_report(0.0, 0.0, 100).e_k_00 == 0.0

    def test_vacuous_conditioning_gives_unconditional_mean(self):
        # at the largest threshold only a fully collided pool (mass ~1e-244)
        # lies at or above it
        pool = math.ceil(N / OMEGA)
        report = branch_report(P_A0, P_A0, pool)
        assert report.e_k_00 == pytest.approx(pool * report.p_c_h0, rel=1e-9)
        assert report.e_k_10 == pool
        # a silent cell never reaches it: that mean is undefined
        assert math.isnan(branch_report(0.0, 0.0, pool).e_k_10)

    def test_against_direct_pmf_summation(self):
        pc = collision_prob(P_A0, OMEGA)
        pool = math.ceil(N / OMEGA)
        delta_c = 100
        pmf = pmf_oracle(pool, pc)
        k = np.arange(pool + 1)
        lo = (k[:delta_c] * pmf[:delta_c]).sum() / pmf[:delta_c].sum()
        report = branch_report(P_A0, P_A0, delta_c)
        assert report.e_k_00 == pytest.approx(lo, rel=1e-9)
        assert report.e_k_01 == pytest.approx(lo, rel=1e-9)
        # the at-or-above branch at this threshold is unreachable regular
        # traffic: its mass underflows and the mean is undefined
        hi_mass = pmf[delta_c:].sum()
        if hi_mass > 0:
            hi = (k[delta_c:] * pmf[delta_c:]).sum() / hi_mass
            assert report.e_k_10 == pytest.approx(hi, rel=1e-6)

    def test_moderate_threshold_matches_oracle(self):
        n, omega, delta_c = 500, 10, 15
        report = branch_report(0.1, 0.1, delta_c, n=n, omega=omega, l1=6, l2=4)
        pool = math.ceil(n / omega)
        pmf = pmf_oracle(pool, report.p_c_h0)
        k = np.arange(pool + 1)
        lo = (k[:delta_c] * pmf[:delta_c]).sum() / pmf[:delta_c].sum()
        hi = (k[delta_c:] * pmf[delta_c:]).sum() / pmf[delta_c:].sum()
        assert report.e_k_00 == pytest.approx(lo, rel=1e-9)
        assert report.e_k_10 == pytest.approx(hi, rel=1e-9)


class TestDetectionProbs:
    def test_certain_collisions_always_detected(self):
        assert branch_report(P_A0, 1.0, 100).p_11 == 1.0

    def test_rows_sum_to_one(self):
        report = branch_report(P_A0, 0.12, 100)
        assert report.p_00 + report.p_10 == pytest.approx(1.0, abs=1e-12)
        assert report.p_01 + report.p_11 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p_a0", [P_A0, P_A0_HEAVY], ids=["reference", "heavy"])
    def test_reference_grid_probabilities_lie_in_unit_interval(self, ref_geometry,
                                                               ref_traffic, p_a0):
        scenario = AlarmScenario((0, 0), 4000.0, t_a=0.0,
                                 correlation=SqrtCapCorrelation(500.0))
        activity = ActivityProbs(p_a0, activity_prob_alarm(scenario, ref_geometry,
                                                           ref_traffic, T_R))
        for omega in DEFAULT_OMEGAS:
            l1, l2 = frames_for(omega, 0.6, 0.4)
            for pct in DEFAULT_DELTA_C_PCTS:
                params = ProtocolParams(
                    n=N, omega=omega, l1=l1, l2=l2, t_r=T_R, rs_duration=RS_DURATION,
                    delta_c=delta_c_from_pct(pct, math.ceil(N / omega)))
                report = expected_costs(params, activity, P_H1)
                probs = (report.p_00, report.p_10, report.p_01, report.p_11)
                assert all(0.0 <= p <= 1.0 for p in probs), (omega, pct, probs)
                assert abs(report.p_00 + report.p_10 - 1.0) <= 2 * math.ulp(1.0)

    def test_non_increasing_in_threshold(self):
        pool = math.ceil(N / OMEGA)
        prev10, prev11 = 1.0, 1.0
        for delta_c in range(1, pool + 1, 10):
            report = branch_report(P_A0, 0.12, delta_c)
            assert report.p_10 <= prev10 + 1e-12
            assert report.p_11 <= prev11 + 1e-12
            prev10, prev11 = report.p_10, report.p_11


class TestExpectedCosts:
    def make_params(self, omega=OMEGA, delta_c=100, l1=L1, l2=L2):
        return ProtocolParams(n=N, omega=omega, delta_c=delta_c, l1=l1, l2=l2,
                              t_r=T_R, rs_duration=RS_DURATION)

    def test_single_station_groups_cost_whole_population(self):
        params = ProtocolParams(n=N, omega=1, delta_c=100, l1=1, l2=1,
                                t_r=T_R, rs_duration=RS_DURATION)
        report = expected_costs(params, ActivityProbs(P_A0, 0.9), P_H1)
        assert report.e_c == pytest.approx(N)
        assert report.e_c * RS_DURATION == pytest.approx(1.6)

    def test_finite_at_tiny_regular_activity(self):
        # p_c near 8e-22: every figure of the regular branch is finite
        report = expected_costs(self.make_params(), ActivityProbs(1e-12, 0.1), P_H1)
        for name in ("p_c_h0", "p_00", "p_10", "e_k_00", "e_c_00", "r1", "r2",
                     "e_s", "e_c"):
            assert math.isfinite(getattr(report, name)), name
        assert report.p_c_h0 > 0.0 and report.p_00 == 1.0

    def test_silent_cell_costs_preallocated_pool_only(self):
        params = self.make_params()
        report = expected_costs(params, ActivityProbs(0.0, 0.0), 0.0)
        assert report.e_c == pytest.approx(params.pool_size)

    def test_reference_configuration_report(self, ref_geometry, ref_traffic):
        scenario = AlarmScenario((0, 0), 4000.0, t_a=0.0,
                                 correlation=SqrtCapCorrelation(500.0))
        p_a1 = activity_prob_alarm(scenario, ref_geometry, ref_traffic, T_R)
        report = expected_costs(self.make_params(),
                                ActivityProbs(P_A0, p_a1), P_H1)
        assert report.p_c_h0 == pytest.approx(0.0602, abs=2e-4)
        assert report.p_00 == pytest.approx(1.0, abs=1e-9)
        assert report.p_11 == pytest.approx(1.0, abs=1e-9)
        assert report.e_k_00 == pytest.approx(200 * report.p_c_h0, rel=1e-3)
        assert report.e_s == pytest.approx(24.98, abs=0.02)
        # regression anchors for the full cost assembly
        assert report.e_c_00 == pytest.approx(500.8, abs=0.5)
        assert report.e_c == pytest.approx(539.1, abs=1.0)

    @pytest.mark.parametrize("omega,p_a0,step", [
        (2, P_A0, 1), (10, P_A0, 1), (40, P_A0, 3), (40, 0.0, 3), (200, 0.05, 23)])
    def test_array_frames_give_the_scalar_report_bits(self, omega, p_a0, step):
        # pairs 1 <= l2 <= l1 < omega (every step-th of each) at once,
        # against one report each
        activity = ActivityProbs(p_a0, 0.2)
        l1, l2 = (np.array(v) for v in zip(*((a, b) for a in range(1, omega, step)
                                            for b in range(1, a + 1, step))))
        params = self.make_params(omega=omega, delta_c=3, l1=1, l2=1)
        costs = cost_mix(params, activity, P_H1, frame_figures(omega, l1, l2, p_a0))
        per_pair = {"r1", "r2", "e_s", "e_c_00", "e_c_01", "e_c"}
        for name, value in costs.__dict__.items():
            assert np.shape(value) == (l1.shape if name in per_pair else ()), name
        for i, (a, b) in enumerate(zip(l1.tolist(), l2.tolist())):
            report = expected_costs(self.make_params(omega=omega, delta_c=3, l1=a, l2=b),
                                    activity, P_H1)
            for name, want in report.__dict__.items():
                got = getattr(costs, name)
                got = got[i] if name in per_pair else got
                assert got == want or (math.isnan(got) and math.isnan(want)), name

    def test_decision_rows_sum_to_one(self):
        report = expected_costs(self.make_params(), ActivityProbs(P_A0, 0.5), P_H1)
        assert report.p_00 + report.p_10 == pytest.approx(1.0, abs=1e-12)
        assert report.p_01 + report.p_11 == pytest.approx(1.0, abs=1e-12)

    def test_costs_bounded_below_by_pool(self):
        report = expected_costs(self.make_params(), ActivityProbs(P_A0, 0.5), P_H1)
        pool = self.make_params().pool_size
        for cost in (report.e_c_00, report.e_c_10, report.e_c_01, report.e_c_11,
                     report.e_c):
            if not math.isnan(cost):
                assert cost >= pool - 1e-9

    def test_undefined_branches_carry_zero_weight(self):
        # regular traffic so light the alarm branch under H0 is unreachable
        report = expected_costs(self.make_params(), ActivityProbs(P_A0, P_A0), P_H1)
        assert math.isnan(report.e_k_10) or report.p_10 > 0
        assert not math.isnan(report.e_c)

    def test_repeated_calls_return_equal_reports(self):
        params = self.make_params()
        activity = ActivityProbs(P_A0, 0.3)
        first = vars(expected_costs(params, activity, P_H1))
        np.testing.assert_equal(vars(expected_costs(params, activity, P_H1)), first)

    @settings(max_examples=40, deadline=None)
    @given(omega=st.integers(1, 60), n=st.integers(1, 8000),
           delta_c=st.sampled_from([1, math.inf]) | st.integers(1, 8000),
           p_a0=EDGE_PROBS, p_a1=EDGE_PROBS,
           p_h1=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           draws=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
                          min_size=1, max_size=4))
    @example(omega=1, n=8000, delta_c=1, p_a0=1.0, p_a1=1.0, p_h1=1.0, draws=[(0, 0)])
    @example(omega=40, n=8000, delta_c=math.inf, p_a0=1 - 2.0**-53, p_a1=1.0,
             p_h1=0.0, draws=[(0, 0), (38, 38)])
    @example(omega=40, n=8000, delta_c=1, p_a0=2.0**-53, p_a1=0.0, p_h1=1.0,
             draws=[(23, 15)])
    def test_every_accepted_input_has_a_finite_cost(self, omega, n, delta_c, p_a0,
                                                    p_a1, p_h1, draws):
        # the sweep takes the cheapest pair by e_c, so no pair may be undefined;
        # delta_c = inf stands for the pool size
        n = max(n, omega)
        params = ProtocolParams(n=n, omega=omega, delta_c=min(delta_c, math.ceil(n / omega)),
                                l1=1, l2=1, t_r=T_R, rs_duration=RS_DURATION)
        l1 = np.array([1 + i % max(omega - 1, 1) for i, _ in draws])
        l2 = np.array([1 + j % a for (_, j), a in zip(draws, l1.tolist())])
        report = cost_mix(params, ActivityProbs(p_a0, p_a1), p_h1,
                          frame_figures(omega, l1, l2, p_a0))
        assert np.shape(report.e_c) == l1.shape
        assert np.all(np.isfinite(report.e_c)), report.e_c

    @pytest.mark.parametrize("p_h1", [0.0, P_H1])
    def test_naive_cost_reference(self, ref_geometry, ref_traffic, ref_deadlines,
                                  p_h1):
        # the naive scheme expands every collided slot into a dedicated
        # frame, E[C] = P + P p_c omega under each hypothesis; compare_naive
        # reads it off the cost pass at delta_c = 1
        quake = AlarmScenario((0.0, 0.0), 4000.0, 10.0, SqrtCapCorrelation(500.0))
        base = SweepBase(geometry=ref_geometry, traffic=ref_traffic,
                         deadlines=ref_deadlines, t_r=T_R, rs_duration=RS_DURATION,
                         p_h1=p_h1, alarm=quake)
        [row] = compare_naive(base, omega_values=(OMEGA,)).rows
        pc = [collision_prob(p_a, OMEGA) for p_a in (base.activity().p_a0,
                                                    base.activity().p_a1)]
        assert pc[1] > pc[0]
        pool = 200
        assert row.e_c_naive == pytest.approx(
            (1 - p_h1) * (pool + pool * pc[0] * OMEGA) + p_h1 * (pool + pool * pc[1] * OMEGA),
            rel=1e-12)


class TestProtocolParams:
    def test_pool_size_rounds_up(self):
        params = ProtocolParams(n=8001, omega=40, delta_c=10, l1=24, l2=16,
                                t_r=T_R, rs_duration=RS_DURATION)
        assert params.pool_size == 201

    def test_default_frames_and_threshold(self):
        assert frames_for(OMEGA, 0.6, 0.4) == (24, 16)
        assert delta_c_from_pct(DC_PCT, math.ceil(N / OMEGA)) == 100

    @pytest.mark.parametrize("kwargs", [
        dict(omega=0), dict(omega=9000), dict(delta_c=0), dict(delta_c=300),
        dict(l1=40), dict(l2=30),
    ])
    def test_rejects_invalid_parameters(self, kwargs):
        base = dict(n=N, omega=OMEGA, delta_c=100, l1=L1, l2=L2,
                    t_r=T_R, rs_duration=RS_DURATION)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ProtocolParams(**base)
