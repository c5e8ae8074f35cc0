"""The pool engine against the straightforward forms it replaced.

The references below are the earlier chunk pipeline: a per-report run
index and cumulative sums in the resolver, the arrival times and report
delays computed out of place, and each report's pool and station split
from its merged key. The engine must give the same arrays from the same
generator calls.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rspool import (AlarmProcess, AlarmScenario, Deadlines, ProtocolParams,
                    RegularTrafficParams, SqrtCapCorrelation, UnitCorrelation,
                    place_stations)
from rspool.analysis import activity_prob_regular, frame_chain_cost
from rspool.simulator import (CHUNK_POOLS, CHUNK_REPORTS, KINDS, ScenarioStats,
                              _AlarmQueue, _Arrivals, _arrivals, _bernoulli_cells,
                              _resolve_pools, _Resolved)


def reference_resolve_pools(pool, station, n_pools, params, rng):
    g, omega, l1, l2 = params.pool_size, params.omega, params.l1, params.l2
    m = station.size
    group, rel = np.divmod(station, omega)
    gkey = pool * g + group
    first = np.ones(m, dtype=bool)
    first[1:] = gkey[1:] != gkey[:-1]
    run_start = np.flatnonzero(first)
    run_of = np.cumsum(first) - 1
    collided = np.diff(np.append(run_start, m)) >= 2
    cg_pool = pool[run_start[collided]]
    n_cg = cg_pool.size
    k_c = np.bincount(cg_pool, minlength=n_pools)
    alarm = k_c >= params.delta_c
    contends = ~alarm[cg_pool]

    members = np.flatnonzero(collided[run_of])
    cg_of = (np.cumsum(collided) - 1)[run_of]
    contenders = members[contends[cg_of[members]]]
    escalated = []
    for base, length in ((0, l1), (l1, l2)):
        choice = rng.integers(0, length, size=contenders.size)
        key = cg_of[contenders] * length + choice
        won = np.bincount(key)[key] == 1
        rel[contenders[won]] = base + choice[won]
        contenders = contenders[~won]
        escalated.append(np.bincount(cg_of[contenders], minlength=n_cg) > 0)
    rel[contenders] += l1 + l2
    to_l2, to_dedicated = escalated

    length = np.where(contends, frame_chain_cost(omega, l1, l2, to_l2, to_dedicated), omega)
    cum = np.concatenate(([0], np.cumsum(length)))
    before = cum[np.searchsorted(cg_pool, np.arange(n_pools + 1))]
    seg_start = g + cum[:-1] - before[cg_pool]
    slot = group.copy()
    slot[members] = seg_start[cg_of[members]] + rel[members]

    n_contended = int(contends.sum())
    n_l2, n_dedicated = int(to_l2.sum()), int(to_dedicated.sum())
    return _Resolved(
        slot=slot, k_c=k_c, alarm=alarm, total_rs=g + np.diff(before),
        groups_ended=np.array([n_contended - n_l2, n_l2 - n_dedicated, n_dedicated]),
        slots_by_part=np.array([g * n_pools, l1 * n_contended, l2 * n_l2,
                                omega * (n_dedicated + n_cg - n_contended)]))


def reference_arrivals(geometry, traffic, t_r, alarms, alarm_process, n_pools, rng):
    n = geometry.n_stations
    p_active = activity_prob_regular(traffic.lambda_p, traffic.lambda_d, t_r)
    p_periodic = traffic.lambda_p / traffic.total_rate
    rate = traffic.total_rate
    queue = _AlarmQueue(geometry, t_r, n_pools)
    for scenario in alarms:
        queue.schedule(scenario, rng)
    chunk = max(1, min(CHUNK_POOLS, int(CHUNK_REPORTS / max(n * p_active, 1.0))))
    for w0 in range(0, n_pools, chunk):
        n_chunk = min(chunk, n_pools - w0)
        if alarm_process is not None:
            tpl = alarm_process.template
            hits = rng.random(n_chunk) < alarm_process.prob_per_pool
            for w in (w0 + np.flatnonzero(hits)).tolist():
                queue.schedule(AlarmScenario(epicenter=tpl.epicenter, v=tpl.v,
                                             t_a=w * t_r + rng.random() * t_r,
                                             correlation=tpl.correlation), rng)
        key = _bernoulli_cells(rng, n_chunk * n, p_active)
        u = rng.random(key.size)
        t_gen = (w0 + key // n) * t_r + -np.log1p(-u * p_active) / rate
        kind = (rng.random(key.size) >= p_periodic).astype(np.int64)
        a_window, a_station, a_time, h1 = queue.pop(w0, w0 + n_chunk)
        if a_window.size:
            key = np.concatenate((key, (a_window - w0) * n + a_station))
            kind = np.concatenate((kind, np.full(a_window.size, KINDS.index("alarm"))))
            t_gen = np.concatenate((t_gen, a_time))
            _, last = np.unique(key[::-1], return_index=True)
            last = key.size - 1 - last
            key, kind, t_gen = key[last], kind[last], t_gen[last]
        yield _Arrivals(w0=w0, pool=key // n, station=key % n, kind=kind,
                        t_gen=t_gen, h1=h1)


def reference_delays(stats, arrivals, res):
    """The per-kind delay accounting of `ScenarioStats.add`, with the delays
    computed out of place."""
    kind = arrivals.kind
    tau_a = stats.deadlines.tau_a
    delay = ((arrivals.w0 + arrivals.pool + 1) * stats.params.t_r
             + (res.slot + 1) * stats.params.rs_duration - arrivals.t_gen)
    stats.reports_total += kind.size
    stats.unresolved_active += int((res.slot < 0).sum())
    stats.dropped_reports += int((delay > tau_a).sum())
    for k, name in enumerate(KINDS):
        delays = delay[kind == k]
        if delays.size == 0:
            continue
        stats.reports_by_kind[name] = stats.reports_by_kind.get(name, 0) + delays.size
        prev = stats.delay_counts.get(name, np.zeros(0, dtype=int))
        counts = np.bincount(np.floor(delays / (tau_a / 100)).astype(int),
                             minlength=prev.size)
        counts[:prev.size] += prev
        stats.delay_counts[name] = counts
        stats.max_delay_by_kind[name] = max(stats.max_delay_by_kind.get(name, 0.0),
                                            float(delays.max()))


def assert_same_fields(a, b):
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        else:
            assert x == y, name


@st.composite
def cells(draw):
    """A small cell: stations, design, activity, pools and alarm reports.
    Slow fronts spread one event over several windows, so reports of
    different events share cells, and busy stations give alarm reports
    that land on regular ones."""
    n = draw(st.integers(1, 60))
    omega = draw(st.integers(1, n))
    l1 = draw(st.integers(1, max(1, omega - 1)))
    l2 = draw(st.integers(1, l1))
    pool_size = math.ceil(n / omega)
    params = ProtocolParams(n=n, omega=omega, delta_c=draw(st.integers(1, pool_size)),
                            l1=l1, l2=l2, t_r=1.0, rs_duration=1e-3)
    traffic = RegularTrafficParams(draw(st.sampled_from([1e6, 300.0, 10.0, 1.0, 0.05])),
                                   draw(st.sampled_from([0.0, 0.01, 2.0])))
    correlation = draw(st.sampled_from([UnitCorrelation(), SqrtCapCorrelation(60.0)]))
    template = AlarmScenario((draw(st.floats(-80, 80)), 0.0),
                             draw(st.sampled_from([5.0, 40.0, 4000.0])), 0.0, correlation)
    prob = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    process = AlarmProcess(prob, template) if prob else None
    alarms = [AlarmScenario(template.epicenter, template.v, t_a, correlation)
              for t_a in draw(st.lists(st.floats(-5.0, 300.0), max_size=3))]
    return dict(geometry=place_stations(n, 100.0, draw(st.integers(0, 2**32))),
                params=params, traffic=traffic, alarms=alarms, alarm_process=process,
                n_pools=draw(st.sampled_from([1, 7, CHUNK_POOLS, CHUNK_POOLS + 45, 600])),
                seed=draw(st.integers(0, 2**32)))


@settings(max_examples=120, deadline=None)
@given(cell=cells())
def test_engine_keeps_the_reference_results(cell):
    params = cell["params"]
    args = (cell["geometry"], cell["traffic"], params.t_r, cell["alarms"],
            cell["alarm_process"], cell["n_pools"])
    rng, ref_rng = (np.random.default_rng(cell["seed"]) for _ in range(2))
    res_rng, ref_res_rng = (np.random.default_rng(cell["seed"] + 1) for _ in range(2))
    deadlines = Deadlines(tau_a=5.0)
    stats, ref_stats = (ScenarioStats(params, cell["traffic"], deadlines)
                        for _ in range(2))
    for got, expected in zip(_arrivals(*args, rng), reference_arrivals(*args, ref_rng),
                             strict=True):
        assert_same_fields(got, expected)
        res = _resolve_pools(got.pool, got.station, got.h1.size, params, res_rng)
        ref = reference_resolve_pools(expected.pool, expected.station,
                                      expected.h1.size, params, ref_res_rng)
        assert_same_fields(res, ref)
        assert res_rng.bit_generator.state == ref_res_rng.bit_generator.state
        stats.add(got, res)
        reference_delays(ref_stats, expected, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for name in ("reports_total", "unresolved_active", "dropped_reports",
                 "reports_by_kind", "max_delay_by_kind"):
        assert getattr(stats, name) == getattr(ref_stats, name), name
    counts, ref_counts = stats.delay_counts, ref_stats.delay_counts
    assert counts.keys() == ref_counts.keys()
    for name, c in counts.items():
        assert c.dtype == ref_counts[name].dtype and np.array_equal(c, ref_counts[name]), name
