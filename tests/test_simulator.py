import dataclasses
import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspool import (AlarmProcess, AlarmScenario, CellGeometry, Deadlines,
                    ExpDecayCorrelation, InfeasibleConfigError, ProtocolParams,
                    RegularTrafficParams, SqrtCapCorrelation, UnitCorrelation,
                    activity_prob_alarm, activity_prob_regular, collision_prob,
                    expected_costs,
                    place_stations, run_scenario,
                    validate_deadline, worst_case_pool_duration)
from rspool.analysis import ActivityProbs
from rspool.simulator import (CHUNK_POOLS, KINDS, _arrivals, _resolve_pools,
                              meets_deadline)
from rspool.traffic import AlarmTimeError
from tests.chi_square import kc_chi_square
from tests.conftest import (L1, L2, LAMBDA_D, N, OMEGA, RS_DURATION, T_R, TAU_A,
                            read_trace)

P_A0 = activity_prob_regular(1 / 300, LAMBDA_D, T_R)


def small_params(**overrides):
    defaults = dict(n=200, omega=10, delta_c=5, l1=6, l2=4, t_r=T_R,
                    rs_duration=RS_DURATION)
    defaults.update(overrides)
    return ProtocolParams(**defaults)


def resolve_pool(active, params, rng):
    """One pool through the batch resolver, for the stations `active`
    (sorted, distinct ids) holding a report: its k_c, alarm decision,
    total_rs and station id -> index of the resolving slot."""
    active = np.asarray(active, dtype=int)
    res = _resolve_pools(np.zeros(active.size, dtype=int), active, 1, params, rng)
    return SimpleNamespace(k_c=int(res.k_c[0]), alarm=bool(res.alarm[0]),
                           total_rs=int(res.total_rs[0]),
                           resolved_slot=dict(zip(active.tolist(), res.slot.tolist())))


def grouping(n, omega):
    """Parameters that fix only the grouping: n stations in groups of omega."""
    return ProtocolParams(n=n, omega=omega, delta_c=1, l1=1, l2=1, t_r=T_R,
                          rs_duration=RS_DURATION)


class TestGrouping:
    def test_contiguous_partition(self, rng):
        # a lone station resolves in its preallocated slot s // omega, also
        # in the short last group of five
        params = grouping(95, 10)
        assert params.pool_size == 10
        for s in range(95):
            assert resolve_pool([s], params, rng).resolved_slot == {s: s // 10}
        # a collided group's members take the dedicated slots at s % omega
        outcome = resolve_pool(np.arange(90, 95), params, rng)
        assert outcome.resolved_slot == {s: 10 + s % 10 for s in range(90, 95)}

    def test_collidable_counts_groups_with_two_plus_members(self):
        assert grouping(21, 10).collidable_groups == 2
        assert grouping(8, 1).collidable_groups == 0

    def test_collidable_matches_brute_force_count(self):
        for n in range(1, 61):
            for omega in range(1, n + 1):
                sizes = np.bincount(np.arange(n) // omega)
                assert grouping(n, omega).collidable_groups \
                    == int((sizes >= 2).sum()), (n, omega)


class TestResolvePool:
    def test_empty_pool(self, rng):
        params = small_params()
        outcome = resolve_pool([], params, rng)
        assert outcome.k_c == 0
        assert not outcome.alarm
        assert outcome.total_rs == params.pool_size
        assert outcome.resolved_slot == {}

    def test_one_station_per_group_resolves_in_own_slot(self, rng):
        params = small_params()
        active = np.arange(0, params.n, params.omega)  # one per group
        outcome = resolve_pool(active, params, rng)
        assert outcome.k_c == 0
        assert outcome.total_rs == params.pool_size
        assert outcome.resolved_slot == {int(s): int(s) // params.omega for s in active}

    def test_saturated_cell_goes_contention_free(self, rng):
        params = ProtocolParams(n=N, omega=OMEGA, delta_c=100, l1=24, l2=16,
                                t_r=T_R, rs_duration=RS_DURATION)
        outcome = resolve_pool(np.arange(N), params, rng)
        assert outcome.k_c == params.pool_size
        assert outcome.alarm
        assert outcome.total_rs == 200 + 200 * 40
        assert len(outcome.resolved_slot) == N

    def test_cost_accounting_identity(self, rng):
        # below the threshold each collided slot costs l1, l1 + l2 or
        # l1 + l2 + omega slots, and every resolving slot lies inside the pool
        params = small_params(delta_c=20)
        active = np.flatnonzero(np.random.default_rng(4).random(params.n) < 0.2)
        outcome = resolve_pool(active, params, rng)
        assert not outcome.alarm and outcome.k_c > 0
        common = outcome.total_rs - params.pool_size
        assert outcome.k_c * params.l1 <= common
        assert common <= outcome.k_c * (params.l1 + params.l2 + params.omega)
        assert max(outcome.resolved_slot.values()) < outcome.total_rs

    def test_decision_rule_is_exact_threshold(self, rng):
        params = small_params(delta_c=3)
        for trial in range(40):
            active = np.flatnonzero(np.random.default_rng(trial).random(params.n) < 0.25)
            outcome = resolve_pool(active, params, rng)
            assert outcome.alarm == (outcome.k_c >= 3)

    # at delta_c = 8 every pool here declares the alarm regime; at 20 none
    # does, and the collided groups go through the contention frames
    @pytest.mark.parametrize("delta_c", [8, 20])
    def test_all_active_stations_resolved(self, rng, delta_c):
        params = small_params(delta_c=delta_c)
        for trial in range(25):
            active = np.flatnonzero(np.random.default_rng(100 + trial).random(params.n) < 0.3)
            outcome = resolve_pool(active, params, rng)
            assert outcome.alarm == (delta_c == 8)
            assert set(outcome.resolved_slot) == set(int(s) for s in active)
            assert max(outcome.resolved_slot.values()) < outcome.total_rs
            slots = list(outcome.resolved_slot.values())
            assert len(set(slots)) == len(slots)  # no two stations share a slot

    def test_naive_mode_expands_every_collision_to_dedicated_frame(self, rng):
        # the naive scheme is the threshold test at delta_c = 1: two colliding
        # groups, which contend below a threshold of 8, go straight to their
        # dedicated frames
        params = small_params(delta_c=1)
        active = np.array([0, 1, 10, 11])
        naive = resolve_pool(active, params, rng)
        assert naive.alarm and naive.k_c == 2
        assert naive.total_rs == params.pool_size + 2 * params.omega
        base = params.pool_size
        assert naive.resolved_slot == {0: base, 1: base + 1,
                                       10: base + params.omega,
                                       11: base + params.omega + 1}

    def test_adaptive_below_threshold_uses_contention_frames(self, rng):
        # l1 + l2 differs from omega, so the cost tells the branches apart
        params = small_params(delta_c=8, l1=5, l2=2)
        outcome = resolve_pool(np.array([0, 1]), params, rng)
        assert outcome.total_rs - params.pool_size in (5, 5 + 2, 5 + 2 + params.omega)
        assert min(outcome.resolved_slot.values()) >= params.pool_size

    def test_alarm_branch_dedicates_slot_per_member_index(self, rng):
        params = small_params(delta_c=1)
        active = np.array([20, 21, 22])
        outcome = resolve_pool(active, params, rng)
        assert outcome.alarm
        assert outcome.total_rs == params.pool_size + params.omega
        base = params.pool_size
        for st in active:
            assert outcome.resolved_slot[int(st)] == base + (st % params.omega)


class TestFeasibility:
    def test_reference_configuration_is_feasible(self):
        params = ProtocolParams(n=N, omega=OMEGA, delta_c=100, l1=24, l2=16,
                                t_r=T_R, rs_duration=RS_DURATION)
        worst = worst_case_pool_duration(params)
        # 200 dedicated expansions dominate 99 full escalations
        assert worst == pytest.approx((200 + 200 * 40) * RS_DURATION)
        validate_deadline(params, Deadlines(TAU_A))

    def test_single_station_groups_cannot_collide(self):
        params = ProtocolParams(n=N, omega=1, delta_c=100, l1=1, l2=1,
                                t_r=T_R, rs_duration=RS_DURATION)
        assert worst_case_pool_duration(params) == pytest.approx(N * RS_DURATION)
        validate_deadline(params, Deadlines(TAU_A))

    def test_tight_deadline_rejected(self):
        params = ProtocolParams(n=N, omega=OMEGA, delta_c=100, l1=24, l2=16,
                                t_r=T_R, rs_duration=RS_DURATION)
        with pytest.raises(InfeasibleConfigError, match="worst-case"):
            validate_deadline(params, Deadlines(4.0))

    def test_frame_arrays_give_each_pair_its_worst_case(self):
        params = ProtocolParams(n=N, omega=OMEGA, delta_c=150, l1=24, l2=16,
                                t_r=T_R, rs_duration=RS_DURATION)
        l1 = np.array([1, 24, 39, 39])
        l2 = np.array([1, 16, 1, 39])
        worst = worst_case_pool_duration(params, (l1, l2))
        deadlines = Deadlines(T_R + worst[1] + 1e-9)
        for a, b, w in zip(l1.tolist(), l2.tolist(), worst):
            pair = ProtocolParams(n=N, omega=OMEGA, delta_c=150, l1=a, l2=b,
                                  t_r=T_R, rs_duration=RS_DURATION)
            assert w == worst_case_pool_duration(pair)
            fits = meets_deadline(pair, deadlines, w)
            assert fits == (w <= worst[1])
            if not fits:
                with pytest.raises(InfeasibleConfigError, match="worst-case"):
                    validate_deadline(pair, deadlines)

    def test_naive_worst_case(self):
        # at delta_c = 1 no slot escalates through the contention frames
        params = small_params(delta_c=1)
        worst = worst_case_pool_duration(params)
        assert worst == pytest.approx((20 + 20 * 10) * RS_DURATION)


@pytest.fixture(scope="module")
def h0_run(ref_geometry, ref_params, ref_traffic, ref_deadlines):
    return run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                        alarms=[], horizon=2000 * T_R, seed=424242)


class TestRunScenario:
    def test_deterministic_for_seed(self, ref_geometry, ref_params, ref_traffic,
                                    ref_deadlines):
        kwargs = dict(alarms=[], horizon=50 * T_R, seed=99)
        a = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines, **kwargs)
        b = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines, **kwargs)
        np.testing.assert_equal(a.to_dict(), b.to_dict())  # NaN equal to NaN
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
        bound = T_R + worst_case_pool_duration(ref_params)
        for kind, worst in h0_run.max_delay_by_kind.items():
            assert worst <= bound

    def test_every_kind_fills_at_most_100_delay_bins(self, ref_geometry, ref_params,
                                                     ref_traffic):
        # the delay bin is tau_a / 100 because validate_deadline keeps every
        # delay below tau_a; at delta_c = 1 with an alarm deadline just above
        # t_r plus the worst-case pool, the alarm reports come close to it
        params = dataclasses.replace(ref_params, delta_c=1)
        tau_a = T_R + worst_case_pool_duration(params) + 0.01
        assert tau_a == pytest.approx(4.15)
        deadlines = Deadlines(tau_a=tau_a)
        quake = AlarmScenario((0.0, 0.0), 4000.0, 0.0, SqrtCapCorrelation(500.0))
        stats = run_scenario(ref_geometry, params, ref_traffic, deadlines, alarms=[],
                             horizon=2000 * T_R, seed=2024,
                             alarm_process=AlarmProcess(0.05, quake))
        assert sorted(stats.delay_counts) == ["alarm", "on_demand", "periodic"]
        for kind, counts in stats.delay_counts.items():
            assert 0 < counts.size <= 100, kind
        assert stats.dropped_reports == 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_no_report_outlives_the_alarm_deadline(self, data):
        # a report generated in window w (t_gen >= w t_r) is served in pool
        # w + 1 at a slot s below that pool's length: its delay is at most
        # t_r + (s + 1) rs, so at most t_r plus the worst-case pool duration
        n = data.draw(st.integers(1, 400), label="n")
        omega = data.draw(st.sampled_from([1, n]) | st.integers(1, n), label="omega")
        pool = math.ceil(n / omega)
        delta_c = data.draw(st.sampled_from([1, pool]) | st.integers(1, pool), label="delta_c")
        l1 = data.draw(st.integers(1, max(omega - 1, 1)), label="l1")
        l2 = data.draw(st.integers(1, l1), label="l2")
        params = ProtocolParams(n=n, omega=omega, delta_c=delta_c, l1=l1, l2=l2,
                                t_r=T_R, rs_duration=RS_DURATION)
        traffic = RegularTrafficParams(data.draw(st.sampled_from([5.0, 30.0, 300.0])),
                                       data.draw(st.sampled_from([0.0, 0.01, 0.2])))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        # every station triggered, within 0.25 s: one burst of alarm reports
        quake = AlarmScenario((0.0, 0.0), 4000.0, data.draw(st.floats(0.0, 40 * T_R)),
                              UnitCorrelation())
        process = data.draw(st.none() | st.floats(0.0, 1.0).map(
            lambda p: AlarmProcess(p, quake)), label="alarm process")
        tau_a = T_R + worst_case_pool_duration(params) + 1e-9 * T_R
        stats = run_scenario(place_stations(n, 1000.0, seed=seed), params, traffic,
                             Deadlines(tau_a), alarms=[] if process else [quake],
                             horizon=40 * T_R, seed=seed, alarm_process=process)
        assert stats.dropped_reports == 0
        assert all(delay < tau_a for delay in stats.max_delay_by_kind.values())
        assert all(counts.size <= 100 for counts in stats.delay_counts.values())

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
                             alarms=[alarm], horizon=10 * T_R, seed=5150)
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
                             alarms=[], horizon=100 * T_R, seed=31337, alarm_process=process)
        # about 20 of 100 windows should carry an event; events drawn close
        # to a window boundary split their reports across two pools, so
        # per-pool detection can fall just short of certainty
        assert 5 <= stats.pools_h1 <= 40
        assert stats.p_alarm_given_h1 >= 0.85

    def test_naive_mode_costs_more_than_adaptive_under_h0(self, ref_geometry,
                                                          ref_params, ref_traffic,
                                                          ref_deadlines):
        naive = run_scenario(ref_geometry, dataclasses.replace(ref_params, delta_c=1),
                             ref_traffic, ref_deadlines, alarms=[],
                             horizon=300 * T_R, seed=777)
        adaptive = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                                alarms=[], horizon=300 * T_R, seed=777)
        assert naive.mean_rs_per_pool > adaptive.mean_rs_per_pool

    def test_trace_records_every_pool(self, ref_geometry, ref_params, ref_traffic,
                                      ref_deadlines):
        sink = io.StringIO()
        stats = run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                             alarms=[], horizon=20 * T_R, seed=1, trace=sink)
        trace = read_trace(sink)
        assert len(trace) == stats.pools_run == 20
        assert all(t["total_rs"] >= ref_params.pool_size for t in trace)

    @pytest.mark.parametrize("delta_c", [15, 1])
    def test_traced_pools_within_worst_case(self, delta_c):
        # about 14 of 20 slots collide in a regular pool, either side of the
        # threshold of 15, so both decisions occur, the regular ones with up
        # to 14 frame chains; alarm events collide every slot. At delta_c = 1
        # (the naive scheme) every pool with a collided slot is an alarm pool
        params = small_params(delta_c=delta_c)
        geometry = place_stations(params.n, 1000.0, seed=4)
        process = AlarmProcess(prob_per_pool=0.2, template=AlarmScenario(
            (0, 0), 4000.0, 0.0, UnitCorrelation()))
        sink = io.StringIO()
        run_scenario(geometry, params, RegularTrafficParams(10.0),
                     Deadlines(TAU_A), alarms=[], horizon=300 * T_R,
                     seed=6, alarm_process=process, trace=sink)
        trace = read_trace(sink)
        assert {t["decision"] for t in trace} == (
            {"regular", "alarm"} if delta_c == 15 else {"alarm"})
        assert {t["hypothesis"] for t in trace} == {"h0", "h1"}
        # the bound is a whole number of slots times the slot length
        bound = round(worst_case_pool_duration(params) / params.rs_duration)
        assert max(t["total_rs"] for t in trace) <= bound

    def test_one_poll_per_station_and_alarm_supersedes_regular(self):
        # every station holds a regular report in every window (p_active is
        # 1 at a 10 ms reporting interval), and the window [2.5, 5) s also
        # brings an alarm to every one of them
        params = small_params()
        geometry = place_stations(params.n, 1000.0, seed=3)
        traffic = RegularTrafficParams(0.01)
        alarm = AlarmScenario((0, 0), 4000.0, t_a=3.0, correlation=UnitCorrelation())
        stats = run_scenario(geometry, params, traffic,
                             Deadlines(TAU_A), alarms=[alarm],
                             horizon=4 * T_R, seed=8)
        assert stats.pools_h1 == 1
        assert stats.unresolved_active == 0
        # one poll per station per pool, however many arrivals it drew
        assert stats.reports_total == 4 * params.n
        # each alarm replaced its station's periodic report in that pool
        alarms = stats.reports_by_kind["alarm"]
        assert alarms == params.n
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
            sink = io.StringIO()
            stats = run_scenario(geometry, params, ref_traffic,
                                 Deadlines(TAU_A), alarms=[alarm],
                                 horizon=(CHUNK_POOLS + 2) * T_R,
                                 seed=17, trace=sink)
            trace = read_trace(sink)
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
        sink = io.StringIO()
        stats = run_scenario(geometry, params,
                             RegularTrafficParams(1e9),
                             Deadlines(TAU_A), alarms=[],
                             horizon=(CHUNK_POOLS + 1) * T_R, seed=23,
                             alarm_process=process, trace=sink)
        trace = read_trace(sink)
        assert [t["hypothesis"] for t in trace] == ["h0"] + ["h1"] * CHUNK_POOLS
        assert trace[CHUNK_POOLS]["decision"] == "alarm"
        assert stats.unresolved_active == stats.dropped_reports == 0
        # every station reports once per event, one pool per event
        assert stats.reports_by_kind["alarm"] == CHUNK_POOLS * params.n

    def test_memory_does_not_grow_with_horizon(self, ref_geometry, ref_params,
                                               ref_traffic, ref_deadlines):
        # traced into a sink that discards its input: the trace is written
        # per chunk, so it holds no memory across chunks either
        discard = SimpleNamespace(write=lambda text: None)
        for trace, longest in ((None, 10), (discard, 40)):
            peaks = []
            for pools in (CHUNK_POOLS, longest * CHUNK_POOLS):
                tracemalloc.start()
                try:
                    run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                                 alarms=[], horizon=pools * T_R, seed=5, trace=trace)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= 1.5 * peaks[0], (trace, peaks)

    def test_memory_bounded_when_every_station_reports(self, ref_geometry):
        # 8000 reports per pool: a CHUNK_POOLS chunk would hold 2M of them
        # (about 250 MB); chunks shrink to keep the working set small
        params = ProtocolParams(n=N, omega=OMEGA, delta_c=200, l1=L1, l2=L2,
                                t_r=T_R, rs_duration=RS_DURATION)
        tracemalloc.start()
        try:
            stats = run_scenario(ref_geometry, params,
                                 RegularTrafficParams(0.01),
                                 Deadlines(50.0), alarms=[],
                                 horizon=40 * T_R, seed=6)
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
                             Deadlines(TAU_A), horizon=2 * T_R,
                             seed=1, **kwargs)

    def test_horizon_counts_whole_periods_despite_rounding(self, ref_traffic):
        params = small_params(t_r=0.1)
        geometry = place_stations(params.n, 1000.0, seed=3)
        assert 0.3 / 0.1 < 3
        stats = run_scenario(geometry, params, ref_traffic,
                             Deadlines(TAU_A), alarms=[],
                             horizon=0.3, seed=1)
        assert stats.pools_run == 3

    def test_rejects_short_horizon(self, ref_geometry, ref_params, ref_traffic,
                                   ref_deadlines):
        with pytest.raises(ValueError):
            run_scenario(ref_geometry, ref_params, ref_traffic, ref_deadlines,
                         alarms=[], horizon=1.0, seed=1)

    def test_degenerate_polling_cost_is_constant(self, ref_geometry, ref_traffic,
                                                 ref_deadlines):
        params = ProtocolParams(n=N, omega=1, delta_c=100, l1=1, l2=1,
                                t_r=T_R, rs_duration=RS_DURATION)
        stats = run_scenario(ref_geometry, params, ref_traffic, ref_deadlines,
                             alarms=[], horizon=20 * T_R, seed=2)
        assert stats.mean_rs_per_pool == N
        assert stats.std_rs_per_pool == 0.0
        assert stats.mean_pool_duration == pytest.approx(1.6)
        # single-station groups never collide: the k_c histogram is a point mass
        assert stats.kc_counts[0] == stats.kc_counts.sum() == 20


class TestOneAlarmLaw:
    """psi is the probability that the event makes a station report, once:
    the simulator's H1 pools must hold the activity the closed form reads."""

    @pytest.mark.parametrize("psi", [0.5, 0.2])
    @pytest.mark.parametrize("omega", [5, 10])
    def test_h1_collided_slots_match_the_closed_form(self, ref_traffic, psi, omega):
        # a 1 m cell 1 km from the epicentre: every station has psi within
        # 0.2 % of the same value, and a 1e6 m/s front crosses the cell in
        # 2 us, so an event's reports share one window
        n, pools = 2000, 2000
        geometry = place_stations(n, 1.0, seed=41)
        quake = AlarmScenario((1000.0, 0.0), 1e6, 0.0,
                              ExpDecayCorrelation(-math.log(psi) / 1000.0))
        assert np.allclose(quake.trigger_probs(geometry), psi, rtol=2e-3)
        l1, l2 = (3, 2) if omega == 5 else (6, 4)
        params = ProtocolParams(n=n, omega=omega, delta_c=n // omega // 2, l1=l1,
                                l2=l2, t_r=T_R, rs_duration=RS_DURATION)
        sink = io.StringIO()
        run_scenario(geometry, params, ref_traffic, Deadlines(TAU_A), alarms=[],
                     horizon=pools * T_R, seed=19,
                     alarm_process=AlarmProcess(0.25, quake), trace=sink)
        k_c = np.array([t["k_c"] for t in read_trace(sink) if t["hypothesis"] == "h1"])
        assert k_c.size > 400
        p_a1 = activity_prob_alarm(quake, geometry, ref_traffic, T_R)
        expected = params.pool_size * collision_prob(p_a1, omega)
        se = k_c.std(ddof=1) / math.sqrt(k_c.size)
        assert abs(k_c.mean() - expected) < 3 * se, (k_c.mean(), expected, se)

    def test_h1_windows_are_the_windows_holding_alarm_reports(self, ref_traffic):
        # the alarm process over three chunks, slow fronts that split events
        # over two windows, and a static event queued for the second chunk
        params = small_params()
        geometry = place_stations(params.n, 1000.0, seed=5)
        template = AlarmScenario((0, 0), 400.0, 0.0, SqrtCapCorrelation(500.0))
        static = dataclasses.replace(template, t_a=(CHUNK_POOLS + 7.9) * T_R)
        n_pools = 2 * CHUNK_POOLS + 40
        chunks = list(_arrivals(geometry, ref_traffic, T_R, [static],
                                AlarmProcess(0.1, template), n_pools,
                                np.random.default_rng(29)))
        assert len(chunks) == 3
        for arrivals in chunks:
            holds_alarm = np.zeros(arrivals.h1.size, dtype=bool)
            holds_alarm[arrivals.pool[arrivals.kind == KINDS.index("alarm")]] = True
            np.testing.assert_array_equal(arrivals.h1, holds_alarm)
            assert arrivals.h1.any()
        assert chunks[1].h1[7] and chunks[1].h1[8]


class TestCommonArrivals:
    @pytest.mark.parametrize("seed_kind", ["int", "seed-sequence"])
    def test_arrivals_do_not_depend_on_the_design(self, ref_geometry, ref_traffic,
                                                  ref_deadlines, seed_kind):
        # one seed object serves every run: a SeedSequence must not advance
        seed = 8128 if seed_kind == "int" else np.random.SeedSequence(8128)
        process = AlarmProcess(prob_per_pool=0.2, template=AlarmScenario(
            (0, 0), 4000.0, 0.0, SqrtCapCorrelation(500.0)))
        arrivals, costs = [], set()
        for omega, l1, l2 in ((40, 24, 16), (50, 5, 5), (40, 5, 5)):
            for delta_c in (N // omega // 2, 1):
                params = ProtocolParams(n=N, omega=omega, delta_c=delta_c, l1=l1,
                                        l2=l2, t_r=T_R, rs_duration=RS_DURATION)
                sink = io.StringIO()
                # two chunks: the second's arrivals are drawn after the
                # first chunk's contention
                stats = run_scenario(ref_geometry, params, ref_traffic, ref_deadlines,
                                     alarms=[], horizon=(CHUNK_POOLS + 20) * T_R,
                                     seed=seed, alarm_process=process,
                                     trace=sink)
                trace = read_trace(sink)
                arrivals.append((stats.reports_total, stats.reports_by_kind,
                                 stats.pools_h1, [t["hypothesis"] for t in trace]))
                costs.add(stats.sum_rs)
        assert arrivals[0][2] > 0
        assert all(seen == arrivals[0] for seen in arrivals[1:])
        # at delta_c = 1 no pool contends, so l1 and l2 go unread and only
        # the two omega = 40 designs cost the same there
        assert len(costs) == 5
