import math

import numpy as np
import pytest

from rspool import (AlarmProcess, AlarmScenario, Decision, Deadlines,
                    GroupAssignment, InfeasibleConfigError, Mode, ProtocolParams,
                    SlotKind, SqrtCapCorrelation, StationState,
                    activity_prob_regular, collision_prob,
                    empirical_kc_distribution, expected_costs, kc_chi_square,
                    run_pool, run_scenario, validate_deadline,
                    worst_case_pool_duration)
from rspool.analysis import ActivityProbs
from tests.conftest import LAMBDA_D, N, OMEGA, RS_DURATION, T_R, TAU_A

P_A0 = activity_prob_regular(1 / 300, LAMBDA_D, T_R)


def small_params(**overrides):
    defaults = dict(n=200, omega=10, delta_c=5, l1=6, l2=4, t_r=T_R,
                    rs_duration=RS_DURATION)
    defaults.update(overrides)
    return ProtocolParams(**defaults)


class TestGroupAssignment:
    def test_contiguous_partition(self):
        a = GroupAssignment(n=95, omega=10)
        assert a.n_groups == 10
        ids = np.arange(95)
        groups = a.group_of(ids)
        assert groups.min() == 0 and groups.max() == 9
        sizes = [a.group_size(g) for g in range(a.n_groups)]
        assert sizes == [10] * 9 + [5]
        assert sum(sizes) == 95
        np.testing.assert_array_equal(a.in_group_index(ids), ids % 10)

    def test_collidable_counts_groups_with_two_plus_members(self):
        assert GroupAssignment(n=21, omega=10).collidable_groups == 2
        assert GroupAssignment(n=8, omega=1).collidable_groups == 0

    def test_collidable_matches_brute_force_count(self):
        for n in range(1, 61):
            for omega in range(1, n + 1):
                sizes = np.bincount(np.arange(n) // omega)
                assert GroupAssignment(n=n, omega=omega).collidable_groups \
                    == int((sizes >= 2).sum()), (n, omega)


class TestRunPool:
    def test_empty_pool(self, rng):
        params = small_params()
        a = GroupAssignment(n=params.n, omega=params.omega)
        outcome = run_pool([], a, params, Mode.ADAPTIVE, rng)
        assert outcome.k_c == 0
        assert outcome.decision is Decision.REGULAR
        assert outcome.total_rs == params.pool_size
        assert all(s.kind is SlotKind.IDLE for s in outcome.preallocated)
        assert outcome.resolved == {}

    def test_one_station_per_group_all_singletons(self, rng):
        params = small_params()
        a = GroupAssignment(n=params.n, omega=params.omega)
        active = np.arange(0, params.n, params.omega)  # one per group
        outcome = run_pool(active, a, params, Mode.ADAPTIVE, rng)
        assert outcome.k_c == 0
        assert outcome.total_rs == params.pool_size
        assert all(s.kind is SlotKind.SINGLETON for s in outcome.preallocated)
        assert set(outcome.resolved) == set(int(s) for s in active)

    def test_saturated_cell_goes_contention_free(self, rng):
        params = ProtocolParams(n=N, omega=OMEGA, delta_c=100, l1=24, l2=16,
                                t_r=T_R, rs_duration=RS_DURATION)
        a = GroupAssignment(n=N, omega=OMEGA)
        outcome = run_pool(np.arange(N), a, params, Mode.ADAPTIVE, rng)
        assert outcome.k_c == params.pool_size
        assert outcome.decision is Decision.ALARM
        assert outcome.total_rs == 200 + 200 * 40
        assert len(outcome.resolved) == N

    def test_cost_accounting_identity(self, rng):
        params = small_params()
        a = GroupAssignment(n=params.n, omega=params.omega)
        active = np.flatnonzero(np.random.default_rng(4).random(params.n) < 0.2)
        outcome = run_pool(active, a, params, Mode.ADAPTIVE, rng)
        frame_total = sum(res.cost for res in outcome.common_pool)
        assert outcome.total_rs == params.pool_size + frame_total
        assert outcome.pool_duration == pytest.approx(
            outcome.total_rs * params.rs_duration)

    def test_decision_rule_is_exact_threshold(self, rng):
        params = small_params(delta_c=3)
        a = GroupAssignment(n=params.n, omega=params.omega)
        for trial in range(40):
            active = np.flatnonzero(np.random.default_rng(trial).random(params.n) < 0.25)
            outcome = run_pool(active, a, params, Mode.ADAPTIVE, rng)
            assert (outcome.decision is Decision.ALARM) == (outcome.k_c >= 3)

    def test_all_active_stations_resolved(self, rng):
        params = small_params(delta_c=8)
        a = GroupAssignment(n=params.n, omega=params.omega)
        for trial in range(25):
            active = np.flatnonzero(np.random.default_rng(100 + trial).random(params.n) < 0.3)
            outcome = run_pool(active, a, params, Mode.ADAPTIVE, rng)
            assert set(outcome.resolved) == set(int(s) for s in active)

    def test_station_state_inputs_accepted(self, rng):
        params = small_params()
        a = GroupAssignment(n=params.n, omega=params.omega)
        states = [StationState(3, pending=[("periodic", 0.0)]),
                  StationState(7),
                  StationState(45, pending=[("alarm", 0.1)])]
        outcome = run_pool(states, a, params, Mode.ADAPTIVE, rng)
        assert set(outcome.resolved) == {3, 45}

    def test_naive_mode_expands_every_collision_to_dedicated_frame(self, rng):
        params = small_params(delta_c=8)
        a = GroupAssignment(n=params.n, omega=params.omega)
        # two colliding groups, below the adaptive threshold
        active = np.array([0, 1, 10, 11])
        naive = run_pool(active, a, params, Mode.NAIVE_CONTENTION_FREE, rng)
        assert naive.total_rs == params.pool_size + 2 * params.omega
        for res in naive.common_pool:
            assert len(res.frames) == 1 and res.frames[0].contention_free

    def test_adaptive_below_threshold_uses_contention_frames(self, rng):
        params = small_params(delta_c=8)
        a = GroupAssignment(n=params.n, omega=params.omega)
        outcome = run_pool(np.array([0, 1]), a, params, Mode.ADAPTIVE, rng)
        res = outcome.common_pool[0]
        assert res.frames[0].length == params.l1
        assert not res.frames[0].contention_free

    def test_alarm_branch_dedicates_slot_per_member_index(self, rng):
        params = small_params(delta_c=1)
        a = GroupAssignment(n=params.n, omega=params.omega)
        active = np.array([20, 21, 22])
        outcome = run_pool(active, a, params, Mode.ADAPTIVE, rng)
        assert outcome.decision is Decision.ALARM
        assert outcome.total_rs == params.pool_size + params.omega
        base = params.pool_size
        for st in active:
            slot = base + (st % params.omega)
            assert outcome.resolved[int(st)] == pytest.approx(
                (slot + 1) * params.rs_duration)


class TestFeasibility:
    def test_reference_configuration_is_feasible(self):
        params = ProtocolParams(n=N, omega=OMEGA, delta_c=100, l1=24, l2=16,
                                t_r=T_R, rs_duration=RS_DURATION)
        a = GroupAssignment(n=N, omega=OMEGA)
        worst = worst_case_pool_duration(params, a)
        # 200 dedicated expansions dominate 99 full escalations
        assert worst == pytest.approx((200 + 200 * 40) * RS_DURATION)
        validate_deadline(params, a, Deadlines(TAU_A, 60.0, 300.0))

    def test_single_station_groups_cannot_collide(self):
        params = ProtocolParams(n=N, omega=1, delta_c=100, l1=1, l2=1,
                                t_r=T_R, rs_duration=RS_DURATION)
        a = GroupAssignment(n=N, omega=1)
        assert worst_case_pool_duration(params, a) == pytest.approx(N * RS_DURATION)
        validate_deadline(params, a, Deadlines(TAU_A, 60.0, 300.0))

    def test_tight_deadline_rejected(self):
        params = ProtocolParams(n=N, omega=OMEGA, delta_c=100, l1=24, l2=16,
                                t_r=T_R, rs_duration=RS_DURATION)
        a = GroupAssignment(n=N, omega=OMEGA)
        with pytest.raises(InfeasibleConfigError, match="worst-case"):
            validate_deadline(params, a, Deadlines(4.0, 60.0, 300.0))

    def test_naive_worst_case(self):
        params = small_params()
        a = GroupAssignment(n=params.n, omega=params.omega)
        worst = worst_case_pool_duration(params, a, Mode.NAIVE_CONTENTION_FREE)
        assert worst == pytest.approx((20 + 20 * 10) * RS_DURATION)


@pytest.fixture(scope="module")
def h0_run(ref_geometry, ref_params, ref_traffic, ref_deadlines):
    return run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                        alarms=[], horizon=2000 * T_R, mode=Mode.ADAPTIVE,
                        seed=424242)


class TestRunScenario:
    def test_deterministic_for_seed(self, ref_geometry, ref_params, ref_traffic,
                                    ref_deadlines):
        kwargs = dict(alarms=[], horizon=50 * T_R, mode=Mode.ADAPTIVE, seed=99)
        a = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines, **kwargs)
        b = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines, **kwargs)
        assert a.to_dict() == b.to_dict()
        assert a.kc_samples == b.kc_samples

    def test_mean_cost_matches_closed_form(self, h0_run, ref_params):
        report = expected_costs(ref_params, ActivityProbs(P_A0, P_A0), 0.0)
        se = h0_run.stderr_rs_per_pool
        assert abs(h0_run.mean_rs_per_pool - report.e_c) < 3 * se

    def test_activity_rate_matches_model(self, h0_run):
        per_pool = h0_run.reports_total / h0_run.pools_run
        expected = N * P_A0
        sigma = math.sqrt(N * P_A0 * (1 - P_A0) / h0_run.pools_run)
        assert abs(per_pool - expected) < 3 * sigma

    def test_regular_only_run_is_all_h0(self, h0_run):
        assert h0_run.pools_h1 == 0
        assert h0_run.pools_h0 == h0_run.pools_run == 2000

    def test_no_drops_no_unresolved(self, h0_run):
        assert h0_run.dropped_reports == 0
        assert h0_run.unresolved_active == 0

    def test_gated_delay_bound(self, h0_run, ref_params, ref_deadlines):
        a = GroupAssignment(n=N, omega=OMEGA)
        bound = T_R + worst_case_pool_duration(ref_params, a)
        for kind, worst in h0_run.max_delay_by_kind.items():
            assert worst <= bound

    def test_kc_distribution_consistent_with_binomial(self, h0_run, ref_params):
        pc = collision_prob(P_A0, OMEGA)
        hist = empirical_kc_distribution(h0_run.kc_samples)
        assert hist.sum() == h0_run.pools_run
        _, pvalue, dof = kc_chi_square(h0_run.kc_samples, ref_params.pool_size, pc)
        assert dof >= 5
        assert pvalue > 1e-3

    def test_alarm_event_detected_and_within_deadline(self, ref_geometry,
                                                      ref_params, ref_traffic,
                                                      ref_deadlines):
        alarm = AlarmScenario((0, 0), 4000.0, t_a=6.0,
                              correlation=SqrtCapCorrelation(500.0))
        stats = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                             alarms=[alarm], horizon=10 * T_R,
                             mode=Mode.ADAPTIVE, seed=5150)
        assert stats.pools_h1 == 1
        assert stats.p_alarm_given_h1 == 1.0
        assert stats.p_alarm_given_h0 == 0.0
        assert stats.reports_by_kind.get("alarm", 0) > 500
        assert stats.max_delay_by_kind["alarm"] <= TAU_A
        assert stats.dropped_reports == 0

    def test_alarm_process_injects_events(self, ref_geometry, ref_params,
                                          ref_traffic, ref_deadlines):
        process = AlarmProcess(prob_per_pool=0.2,
                               template=AlarmScenario((0, 0), 4000.0, 0.0,
                                                      SqrtCapCorrelation(500.0)))
        stats = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                             alarms=[], horizon=100 * T_R, mode=Mode.ADAPTIVE,
                             seed=31337, alarm_process=process)
        # about 20 of 100 windows should carry an event; events drawn close
        # to a window boundary split their reports across two pools, so
        # per-pool detection can fall just short of certainty
        assert 5 <= stats.pools_h1 <= 40
        assert stats.p_alarm_given_h1 >= 0.85

    def test_naive_mode_costs_more_than_adaptive_under_h0(self, ref_geometry,
                                                          ref_params, ref_traffic,
                                                          ref_deadlines):
        naive = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                             alarms=[], horizon=300 * T_R,
                             mode=Mode.NAIVE_CONTENTION_FREE, seed=777)
        adaptive = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                                alarms=[], horizon=300 * T_R,
                                mode=Mode.ADAPTIVE, seed=777)
        assert naive.mean_rs_per_pool > adaptive.mean_rs_per_pool

    def test_trace_records_every_pool(self, ref_geometry, ref_params, ref_traffic,
                                      ref_deadlines):
        trace = []
        stats = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                             alarms=[], horizon=20 * T_R, mode=Mode.ADAPTIVE,
                             seed=1, trace=trace)
        assert len(trace) == stats.pools_run == 20
        assert all(t["total_rs"] >= ref_params.pool_size for t in trace)

    def test_merge_combines_replications(self, ref_geometry, ref_params,
                                         ref_traffic, ref_deadlines):
        kwargs = dict(alarms=[], horizon=30 * T_R, mode=Mode.ADAPTIVE)
        a = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                         seed=10, **kwargs)
        b = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                         seed=11, **kwargs)
        total_rs = a.sum_rs + b.sum_rs
        a.merge(b)
        assert a.pools_run == 60
        assert a.sum_rs == total_rs
        assert len(a.kc_samples) == 60

    def test_rejects_short_horizon(self, ref_geometry, ref_params, ref_traffic,
                                   ref_deadlines):
        with pytest.raises(ValueError):
            run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                         alarms=[], horizon=1.0, mode=Mode.ADAPTIVE, seed=1)

    def test_degenerate_polling_cost_is_constant(self, ref_geometry, ref_traffic,
                                                 ref_deadlines):
        params = ProtocolParams(n=N, omega=1, delta_c=100, l1=1, l2=1,
                                t_r=T_R, rs_duration=RS_DURATION)
        stats = run_scenario(ref_geometry, params, ref_traffic, ref_deadlines,
                             alarms=[], horizon=20 * T_R, mode=Mode.ADAPTIVE,
                             seed=2)
        assert stats.mean_rs_per_pool == N
        assert stats.std_rs_per_pool == 0.0
        assert stats.mean_pool_duration == pytest.approx(1.6)


class TestKcGoodnessOfFit:
    def test_histogram_requires_samples(self):
        with pytest.raises(ValueError):
            empirical_kc_distribution([])

    def test_point_mass_regime(self):
        hist = empirical_kc_distribution([0, 0, 0, 0])
        assert hist.tolist() == [4]

    def test_chi_square_rejects_wrong_model(self, rng):
        samples = rng.binomial(200, 0.12, size=2000)
        _, pvalue, _ = kc_chi_square(samples, 200, 0.0602)
        assert pvalue < 1e-6

    def test_chi_square_needs_spread(self):
        with pytest.raises(ValueError):
            kc_chi_square([0] * 100, 200, 0.0)
