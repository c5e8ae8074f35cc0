import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from rspool import (AlarmProcess, AlarmScenario, CellGeometry, Decision,
                    Deadlines, GroupAssignment, InfeasibleConfigError, Mode,
                    ProtocolParams, RegularTrafficParams, SqrtCapCorrelation,
                    UnitCorrelation, activity_prob_regular, collision_prob,
                    expected_costs, kc_chi_square, place_stations, run_pool,
                    run_scenario, validate_deadline, worst_case_pool_duration)
from rspool.analysis import ActivityProbs
from rspool.simulator import CHUNK_POOLS
from rspool.traffic import AlarmTimeError
from tests.conftest import L1, L2, LAMBDA_D, N, OMEGA, RS_DURATION, T_R, TAU_A

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
        sizes = np.bincount(groups).tolist()
        assert sizes == [10] * 9 + [5]
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
        assert outcome.resolved_slot == {}

    def test_one_station_per_group_resolves_in_own_slot(self, rng):
        params = small_params()
        a = GroupAssignment(n=params.n, omega=params.omega)
        active = np.arange(0, params.n, params.omega)  # one per group
        outcome = run_pool(active, a, params, Mode.ADAPTIVE, rng)
        assert outcome.k_c == 0
        assert outcome.total_rs == params.pool_size
        assert outcome.resolved_slot == {int(s): int(s) // params.omega for s in active}

    def test_saturated_cell_goes_contention_free(self, rng):
        params = ProtocolParams(n=N, omega=OMEGA, delta_c=100, l1=24, l2=16,
                                t_r=T_R, rs_duration=RS_DURATION)
        a = GroupAssignment(n=N, omega=OMEGA)
        outcome = run_pool(np.arange(N), a, params, Mode.ADAPTIVE, rng)
        assert outcome.k_c == params.pool_size
        assert outcome.decision is Decision.ALARM
        assert outcome.total_rs == 200 + 200 * 40
        assert len(outcome.resolved_slot) == N

    def test_cost_accounting_identity(self, rng):
        # below the threshold each collided slot costs l1, l1 + l2 or
        # l1 + l2 + omega slots, and every resolving slot lies inside the pool
        params = small_params(delta_c=20)
        a = GroupAssignment(n=params.n, omega=params.omega)
        active = np.flatnonzero(np.random.default_rng(4).random(params.n) < 0.2)
        outcome = run_pool(active, a, params, Mode.ADAPTIVE, rng)
        assert outcome.decision is Decision.REGULAR and outcome.k_c > 0
        common = outcome.total_rs - params.pool_size
        assert outcome.k_c * params.l1 <= common
        assert common <= outcome.k_c * (params.l1 + params.l2 + params.omega)
        assert max(outcome.resolved_slot.values()) < outcome.total_rs

    def test_decision_rule_is_exact_threshold(self, rng):
        params = small_params(delta_c=3)
        a = GroupAssignment(n=params.n, omega=params.omega)
        for trial in range(40):
            active = np.flatnonzero(np.random.default_rng(trial).random(params.n) < 0.25)
            outcome = run_pool(active, a, params, Mode.ADAPTIVE, rng)
            assert (outcome.decision is Decision.ALARM) == (outcome.k_c >= 3)

    # at delta_c = 8 every pool here declares the alarm regime; at 20 none
    # does, and the collided groups go through the contention frames
    @pytest.mark.parametrize("delta_c", [8, 20])
    def test_all_active_stations_resolved(self, rng, delta_c):
        params = small_params(delta_c=delta_c)
        a = GroupAssignment(n=params.n, omega=params.omega)
        for trial in range(25):
            active = np.flatnonzero(np.random.default_rng(100 + trial).random(params.n) < 0.3)
            outcome = run_pool(active, a, params, Mode.ADAPTIVE, rng)
            assert (outcome.decision is Decision.ALARM) == (delta_c == 8)
            assert set(outcome.resolved_slot) == set(int(s) for s in active)
            assert max(outcome.resolved_slot.values()) < outcome.total_rs
            slots = list(outcome.resolved_slot.values())
            assert len(set(slots)) == len(slots)  # no two stations share a slot

    def test_unsorted_duplicate_ids_count_once(self, rng):
        params = small_params()
        a = GroupAssignment(n=params.n, omega=params.omega)
        outcome = run_pool([45, 3, 45], a, params, Mode.ADAPTIVE, rng)
        assert outcome.k_c == 0
        assert outcome.resolved_slot == {3: 0, 45: 4}

    @pytest.mark.parametrize("ids", [[-1], [0, 200]])
    def test_out_of_range_ids_rejected(self, rng, ids):
        params = small_params()
        a = GroupAssignment(n=params.n, omega=params.omega)
        with pytest.raises(ValueError, match="out of range"):
            run_pool(ids, a, params, Mode.ADAPTIVE, rng)

    def test_naive_mode_expands_every_collision_to_dedicated_frame(self, rng):
        params = small_params(delta_c=8)
        a = GroupAssignment(n=params.n, omega=params.omega)
        # two colliding groups, below the adaptive threshold
        active = np.array([0, 1, 10, 11])
        naive = run_pool(active, a, params, Mode.NAIVE_CONTENTION_FREE, rng)
        assert naive.total_rs == params.pool_size + 2 * params.omega
        base = params.pool_size
        assert naive.resolved_slot == {0: base, 1: base + 1,
                                       10: base + params.omega,
                                       11: base + params.omega + 1}

    def test_adaptive_below_threshold_uses_contention_frames(self, rng):
        # l1 + l2 differs from omega, so the cost tells the branches apart
        params = small_params(delta_c=8, l1=5, l2=2)
        a = GroupAssignment(n=params.n, omega=params.omega)
        outcome = run_pool(np.array([0, 1]), a, params, Mode.ADAPTIVE, rng)
        assert outcome.total_rs - params.pool_size in (5, 5 + 2, 5 + 2 + params.omega)
        assert min(outcome.resolved_slot.values()) >= params.pool_size

    def test_alarm_branch_dedicates_slot_per_member_index(self, rng):
        params = small_params(delta_c=1)
        a = GroupAssignment(n=params.n, omega=params.omega)
        active = np.array([20, 21, 22])
        outcome = run_pool(active, a, params, Mode.ADAPTIVE, rng)
        assert outcome.decision is Decision.ALARM
        assert outcome.total_rs == params.pool_size + params.omega
        base = params.pool_size
        for st in active:
            assert outcome.resolved_slot[int(st)] == base + (st % params.omega)


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
        np.testing.assert_array_equal(a.kc_counts, b.kc_counts)

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

    @pytest.mark.parametrize("delta_c", [8, 12, 16])
    def test_branch_figures_match_closed_form(self, h0_run, ref_params, delta_c):
        # p_10 and E[K] on each side of the threshold, read off the k_c
        # histogram, against the closed form at the same threshold
        params = dataclasses.replace(ref_params, delta_c=delta_c)
        report = expected_costs(params, ActivityProbs(P_A0, P_A0), 0.0)
        counts = h0_run.kc_counts
        k = np.arange(counts.size)
        n = counts.sum()
        p_10 = counts[delta_c:].sum() / n
        assert abs(p_10 - report.p_10) < 3 * math.sqrt(report.p_10 * (1 - report.p_10) / n)
        for side, closed_form in ((slice(0, delta_c), report.e_k_00),
                                  (slice(delta_c, None), report.e_k_10)):
            m = counts[side].sum()
            mean = (k[side] * counts[side]).sum() / m
            var = ((k[side] - mean) ** 2 * counts[side]).sum() / (m - 1)
            assert abs(mean - closed_form) < 3 * math.sqrt(var / m), side

    def test_contention_frames_match_closed_form(self, h0_run, ref_params):
        # every collided group of a regular-decision pool ends after l1, after
        # l2 or in the dedicated frame; the shares are r1, r2 and 1 - r1 - r2,
        # and the mean slots per group is E[S]
        report = expected_costs(ref_params, ActivityProbs(P_A0, P_A0), 0.0)
        ends = h0_run.groups_ended
        groups = ends.sum()
        assert groups == (h0_run.kc_counts * np.arange(h0_run.kc_counts.size)).sum()
        for share, closed_form in ((ends[0] / groups, report.r1),
                                   (ends[1] / groups, report.r2)):
            se = math.sqrt(closed_form * (1 - closed_form) / groups)
            assert abs(share - closed_form) < 3 * se
        l1, l2, omega = ref_params.l1, ref_params.l2, ref_params.omega
        cost = np.array([l1, l1 + l2, l1 + l2 + omega])
        mean = (cost * ends).sum() / groups
        var = ((cost - mean) ** 2 * ends).sum() / (groups - 1)
        assert abs(mean - report.e_s) < 3 * math.sqrt(var / groups)
        # the slots by part add up to the pool costs
        preallocated, in_l1, in_l2, dedicated = h0_run.slots_by_part
        assert preallocated == h0_run.pools_run * ref_params.pool_size
        assert (in_l1, in_l2, dedicated) == (l1 * groups, l2 * (ends[1] + ends[2]),
                                             omega * ends[2])
        assert h0_run.slots_by_part.sum() == h0_run.sum_rs

    def test_kc_distribution_consistent_with_binomial(self, h0_run, ref_params):
        pc = collision_prob(P_A0, OMEGA)
        assert h0_run.kc_counts.shape == (ref_params.pool_size + 1,)
        assert h0_run.kc_counts.sum() == h0_run.pools_run
        _, pvalue, dof = kc_chi_square(h0_run.kc_counts, ref_params.pool_size, pc)
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

    @pytest.mark.parametrize("mode", list(Mode))
    def test_traced_pools_within_worst_case(self, mode):
        # about 14 of 20 slots collide in a regular pool, either side of the
        # threshold of 15, so both decisions occur, the regular ones with up
        # to 14 frame chains; alarm events collide every slot
        params = small_params(delta_c=15)
        geometry = place_stations(params.n, 1000.0, seed=4)
        process = AlarmProcess(prob_per_pool=0.2, template=AlarmScenario(
            (0, 0), 4000.0, 0.0, UnitCorrelation()))
        trace = []
        run_scenario(geometry, params, RegularTrafficParams.from_reporting_interval(10.0),
                     Deadlines(TAU_A, 60.0, 300.0), alarms=[], horizon=300 * T_R,
                     mode=mode, seed=6, alarm_process=process, trace=trace)
        assert {t["decision"] for t in trace} == {"regular", "alarm"}
        assert {t["hypothesis"] for t in trace} == {"h0", "h1"}
        assignment = GroupAssignment(n=params.n, omega=params.omega)
        # the bound is a whole number of slots times the slot length
        bound = round(worst_case_pool_duration(params, assignment, mode)
                      / params.rs_duration)
        assert max(t["total_rs"] for t in trace) <= bound

    def test_one_poll_per_station_and_alarm_supersedes_regular(self):
        # every station holds a regular report in every window (p_active is
        # 1 at a 10 ms reporting interval), and the window [2.5, 5) s also
        # brings an alarm to about 63% of them
        params = small_params()
        geometry = place_stations(params.n, 1000.0, seed=3)
        traffic = RegularTrafficParams.from_reporting_interval(0.01)
        alarm = AlarmScenario((0, 0), 4000.0, t_a=3.0, correlation=UnitCorrelation())
        stats = run_scenario(geometry, params, traffic,
                             Deadlines(TAU_A, 60.0, 300.0), alarms=[alarm],
                             horizon=4 * T_R, mode=Mode.ADAPTIVE, seed=8)
        assert stats.pools_h1 == 1
        assert stats.unresolved_active == 0
        # one poll per station per pool, however many arrivals it drew
        assert stats.reports_total == 4 * params.n
        # each alarm replaced its station's periodic report in that pool
        alarms = stats.reports_by_kind["alarm"]
        assert 0.5 * params.n < alarms < 0.8 * params.n
        assert stats.reports_by_kind["periodic"] == 4 * params.n - alarms

    def test_alarm_in_next_chunk_is_served(self, ref_traffic):
        # the triggers are drawn before the first pool, so the same seed gives
        # the same alarm reports wherever the event falls; one landing in the
        # first window of the second chunk must be served all the same
        params = small_params()
        geometry = place_stations(params.n, 1000.0, seed=3)
        served = []
        for window in (0, CHUNK_POOLS):
            alarm = AlarmScenario((0, 0), 4000.0, t_a=(window + 0.1) * T_R,
                                  correlation=UnitCorrelation())
            trace = []
            stats = run_scenario(geometry, params, ref_traffic,
                                 Deadlines(TAU_A, 60.0, 300.0), alarms=[alarm],
                                 horizon=(CHUNK_POOLS + 2) * T_R,
                                 mode=Mode.ADAPTIVE, seed=17, trace=trace)
            assert stats.pools_h1 == 1
            assert trace[window]["hypothesis"] == "h1"
            assert trace[window]["decision"] == "alarm"
            assert stats.unresolved_active == stats.dropped_reports == 0
            served.append(stats.reports_by_kind["alarm"])
        assert served[0] == served[1] > 0.5 * params.n

    def test_alarm_process_event_in_last_pool_of_chunk_is_served(self):
        # every pool draws an event whose front reaches all stations exactly
        # one period later, so each event's reports belong to the next pool;
        # the event of a chunk's last pool is served in the next chunk
        params = small_params()
        geometry = CellGeometry(radius_m=1000.0, positions=np.zeros((params.n, 2)))
        process = AlarmProcess(prob_per_pool=1.0,
                               template=AlarmScenario((1000.0, 0.0), 1000.0 / T_R, 0.0))
        trace = []
        stats = run_scenario(geometry, params,
                             RegularTrafficParams.from_reporting_interval(1e9),
                             Deadlines(TAU_A, 60.0, 300.0), alarms=[],
                             horizon=(CHUNK_POOLS + 1) * T_R, mode=Mode.ADAPTIVE,
                             seed=23, alarm_process=process, trace=trace)
        assert [t["hypothesis"] for t in trace] == ["h0"] + ["h1"] * CHUNK_POOLS
        assert trace[CHUNK_POOLS]["decision"] == "alarm"
        assert stats.unresolved_active == stats.dropped_reports == 0
        # 1 - 1/e of the stations emit per event, one pool per event
        per_pool = stats.reports_by_kind["alarm"] / CHUNK_POOLS
        assert abs(per_pool / params.n - (1 - math.exp(-1))) < 0.02

    def test_memory_does_not_grow_with_horizon(self, ref_geometry, ref_params,
                                               ref_traffic, ref_deadlines):
        peaks = []
        for pools in (CHUNK_POOLS, 10 * CHUNK_POOLS):
            tracemalloc.start()
            try:
                run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                             alarms=[], horizon=pools * T_R, mode=Mode.ADAPTIVE,
                             seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_memory_bounded_when_every_station_reports(self, ref_geometry):
        # 8000 reports per pool: a CHUNK_POOLS chunk would hold 2M of them
        # (about 250 MB); chunks shrink to keep the working set small
        params = ProtocolParams(n=N, omega=OMEGA, delta_c=200, l1=L1, l2=L2,
                                t_r=T_R, rs_duration=RS_DURATION)
        tracemalloc.start()
        try:
            stats = run_scenario(ref_geometry, params,
                                 RegularTrafficParams.from_reporting_interval(0.01),
                                 Deadlines(50.0, 60.0, 300.0), alarms=[],
                                 horizon=40 * T_R, mode=Mode.ADAPTIVE, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.reports_total == 40 * N
        assert peak < 32e6, peak

    def test_rejects_alarm_front_beyond_float_range(self, ref_traffic):
        # a finite but tiny speed: 500 m / 1e-310 m/s is past the float range
        params = small_params()
        geometry = place_stations(params.n, 1000.0, seed=3)
        slow = AlarmScenario((500.0, 0.0), 1e-310, 0.0)
        for kwargs in (dict(alarms=[slow]),
                       dict(alarms=[], alarm_process=AlarmProcess(1.0, slow))):
            with pytest.raises(AlarmTimeError):
                run_scenario(geometry, params, ref_traffic,
                             Deadlines(TAU_A, 60.0, 300.0), horizon=2 * T_R,
                             mode=Mode.ADAPTIVE, seed=1, **kwargs)

    def test_horizon_counts_whole_periods_despite_rounding(self, ref_traffic):
        params = small_params(t_r=0.1)
        geometry = place_stations(params.n, 1000.0, seed=3)
        assert 0.3 / 0.1 < 3
        stats = run_scenario(geometry, params, ref_traffic,
                             Deadlines(TAU_A, 60.0, 300.0), alarms=[],
                             horizon=0.3, mode=Mode.ADAPTIVE, seed=1)
        assert stats.pools_run == 3

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
        # single-station groups never collide: the k_c histogram is a point mass
        assert stats.kc_counts[0] == stats.kc_counts.sum() == 20


class TestKcGoodnessOfFit:
    def test_chi_square_requires_two_samples(self):
        with pytest.raises(ValueError, match="two pool samples"):
            kc_chi_square(np.array([0, 1]), 200, 0.06)

    def test_histogram_longer_than_pool_rejected(self):
        with pytest.raises(ValueError):
            kc_chi_square(np.ones(5), 3, 0.5)

    def test_chi_square_rejects_wrong_model(self, rng):
        samples = rng.binomial(200, 0.12, size=2000)
        _, pvalue, _ = kc_chi_square(np.bincount(samples, minlength=201), 200, 0.0602)
        assert pvalue < 1e-6

    def test_chi_square_needs_spread(self):
        with pytest.raises(ValueError):
            kc_chi_square([100], 200, 0.0)
