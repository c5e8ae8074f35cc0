import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspool import (ActivityProbs, AlarmScenario, ProtocolParams,
                    SqrtCapCorrelation, UnitCorrelation, activity_prob_alarm,
                    activity_prob_regular, collision_prob, delta_c_from_pct,
                    expected_costs, expected_frame_cost, frames_for,
                    naive_expected_cost, resolution_probs, resolve_prob,
                    truncated_active_dist)
from rspool.analysis import no_singleton_placements
from tests.conftest import DC_PCT, L1, L2, N, OMEGA, P_H1, RS_DURATION, T_R

P_A0 = 1 - math.exp(-0.01)  # reference regular activity per pool


def brute_force_resolution_dist(m: int, l: int) -> np.ndarray:
    """Exhaustive enumeration of slot assignments; oracle for resolve_prob."""
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
        scenario = AlarmScenario((0, 0), 4000.0, t_a=100.0,
                                 correlation=UnitCorrelation())
        p = activity_prob_alarm(scenario, ref_geometry, ref_traffic, T_R,
                                window=(0.0, T_R))
        assert p == pytest.approx(activity_prob_regular(
            ref_traffic.lambda_p, ref_traffic.lambda_d, T_R), rel=1e-12)

    def test_alarm_activity_unit_model(self, ref_geometry, ref_traffic):
        scenario = AlarmScenario((0, 0), 4000.0, t_a=0.0,
                                 correlation=UnitCorrelation())
        p = activity_prob_alarm(scenario, ref_geometry, ref_traffic, T_R)
        assert p == pytest.approx(1 - math.exp(-(0.01 + 1.0)), rel=1e-12)

    def test_alarm_activity_against_mc_station_frequency(self, ref_geometry, ref_traffic):
        scenario = AlarmScenario((0, 0), 4000.0, t_a=0.0,
                                 correlation=SqrtCapCorrelation(500.0))
        p = activity_prob_alarm(scenario, ref_geometry, ref_traffic, T_R)
        # Monte-Carlo oracle drawing Poisson counts at the aggregated rates
        rng = np.random.default_rng(321)
        psi = scenario.trigger_probs(ref_geometry)
        lam = ref_traffic.total_rate * T_R + psi
        reps = 200
        active = rng.poisson(np.tile(lam, reps)) >= 1
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
    @pytest.mark.parametrize("l", [1, 2, 5, 40])
    def test_lone_transmitter_always_succeeds(self, l):
        assert resolve_prob(1, 1, l) == 1.0

    def test_two_users_two_slots(self):
        assert resolve_prob(2, 2, 2) == 0.5

    def test_two_users_one_slot_never_resolve(self):
        assert resolve_prob(0, 2, 1) == 1.0

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            resolve_prob(3, 2, 5)
        with pytest.raises(ValueError):
            resolve_prob(3, 5, 2)

    @pytest.mark.parametrize("m,l", [(2, 3), (3, 3), (4, 3), (5, 2), (3, 6), (6, 4)])
    def test_matches_exhaustive_enumeration(self, m, l):
        oracle = brute_force_resolution_dist(m, l)
        for h in range(min(m, l) + 1):
            assert resolve_prob(h, m, l) == pytest.approx(oracle[h], abs=1e-12)

    def test_distribution_sums_to_one_small_grid(self):
        for m in range(1, 9):
            for l in range(1, 9):
                total = sum(resolve_prob(h, m, l) for h in range(min(m, l) + 1))
                assert abs(total - 1.0) < 1e-10

    def test_equals_exact_fraction_reference(self):
        # one exact Fraction per value, rounded once to float
        for l in range(1, 25):
            for m in range(25):
                for h in range(min(m, l) + 1):
                    num = (math.comb(l, h) * math.perm(m, h)
                           * no_singleton_placements(l - h, m - h))
                    assert resolve_prob(h, m, l) == float(Fraction(num, l**m))

    def test_placement_count_is_exact_integer(self):
        # 2 users, one shared slot out of u: u placements with no singleton
        assert no_singleton_placements(5, 2) == 5
        assert no_singleton_placements(3, 0) == 1
        assert no_singleton_placements(0, 3) == 0


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
    def test_always_first_frame(self):
        assert expected_frame_cost(40, 24, 16, 1.0, 0.0) == 24

    def test_full_escalation(self):
        assert expected_frame_cost(40, 24, 16, 0.0, 0.0) == 24 + 16 + 40

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_escalation_extremes(self, r1, scale):
        r2 = (1 - r1) * scale
        cost = expected_frame_cost(40, 24, 16, r1, r2)
        assert 24 - 1e-9 <= cost <= 24 + 16 + 40 + 1e-9

    def test_reference_cost_matches_simulated_per_collision_cost(self):
        r1, r2 = resolution_probs(OMEGA, L1, L2, P_A0)
        expected = expected_frame_cost(OMEGA, L1, L2, r1, r2)
        _, _, cost = simulate_collision_resolutions(OMEGA, L1, L2, P_A0,
                                                    reps=200_000, seed=9)
        assert abs(cost.mean() - expected) / expected < 0.02


def pmf_oracle(pool: int, p: float) -> np.ndarray:
    """Independent binomial pmf via log-gamma, for conditional-mean checks."""
    k = np.arange(pool + 1)
    if p == 0.0:
        out = np.zeros(pool + 1)
        out[0] = 1.0
        return out
    logc = (math.lgamma(pool + 1) - np.array([math.lgamma(x + 1) for x in k])
            - np.array([math.lgamma(pool - x + 1) for x in k]))
    return np.exp(logc + k * math.log(p) + (pool - k) * math.log1p(-p))


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
        assert report.e_c == pytest.approx(538.1, abs=1.0)

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

    def test_report_serialisation_maps_nan_to_null(self):
        report = expected_costs(self.make_params(), ActivityProbs(0.0, 0.0), 0.0)
        record = report.to_dict()
        assert record["e_k_10"] is None
        assert record["e_c"] == pytest.approx(200.0)

    def test_repeated_calls_return_equal_reports(self):
        params = self.make_params()
        activity = ActivityProbs(P_A0, 0.3)
        first = expected_costs(params, activity, P_H1).to_dict()
        assert expected_costs(params, activity, P_H1).to_dict() == first

    def test_cached_distribution_is_read_only(self):
        dist = truncated_active_dist(OMEGA, P_A0)
        with pytest.raises(ValueError):
            dist[2] = 0.0
        assert truncated_active_dist(OMEGA, P_A0)[2] > 0.0

    def test_naive_cost_reference(self):
        params = self.make_params()
        naive = naive_expected_cost(params, ActivityProbs(P_A0, P_A0), 0.0)
        pc = collision_prob(P_A0, OMEGA)
        assert naive == pytest.approx(200 + 200 * pc * OMEGA, rel=1e-12)


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
