"""Discrete-time simulation of the recurring reservation pool: gated report
arrivals, per-group contention in the preallocated pool, the collided-slot
threshold decision and collision resolution in the common pool."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TextIO

import numpy as np

from .analysis import (ProtocolParams, activity_prob_regular,
                       frame_chain_cost)
from .traffic import (AlarmScenario, CellGeometry, Deadlines, RegularTrafficParams,
                      child_seed)


class InfeasibleConfigError(ValueError):
    """The deadline cannot be met even in the worst-case pool."""
    category = "infeasible-config"


def worst_case_pool_duration(params: ProtocolParams, frames=None):
    """Upper bound on the pool duration, accounting for the threshold branch.

    Below the threshold at most delta_c - 1 slots escalate through both
    contention frames plus the dedicated frame; at or above it every collided
    slot expands into the dedicated frame directly. `frames` = (l1, l2)
    replaces the params' own frames; integer arrays of candidate pairs give
    an array of durations.
    """
    l1, l2 = (params.l1, params.l2) if frames is None else frames
    collidable = params.collidable_groups
    below = min(params.delta_c - 1, collidable) * frame_chain_cost(params.omega, l1, l2, 1, 1)
    worst = params.pool_size + np.maximum(below, collidable * params.omega)
    with np.errstate(over="ignore"):  # too long to fit the float range: infinite
        return worst * params.rs_duration


def meets_deadline(params: ProtocolParams, deadlines: Deadlines, worst):
    """Whether the pool period plus a worst-case pool duration (one, or an
    array of them) fits inside the alarm deadline."""
    return deadlines.tau_a > params.t_r + worst


def validate_deadline(params: ProtocolParams, deadlines: Deadlines) -> None:
    """Reject configurations whose worst-case pool breaks the alarm deadline."""
    worst = worst_case_pool_duration(params)
    if not meets_deadline(params, deadlines, worst):
        raise InfeasibleConfigError(
            f"alarm deadline {deadlines.tau_a:g} s cannot cover the pool period "
            f"{params.t_r:g} s plus the worst-case pool duration {worst:g} s")


@dataclass(frozen=True)
class _Resolved:
    """Outcome of a batch of pools: per report, per pool and in total."""

    slot: np.ndarray       # per report: index of its resolving slot in its pool
    k_c: np.ndarray        # per pool: collided preallocated slots
    alarm: np.ndarray      # per pool: the threshold test declared the alarm regime
    total_rs: np.ndarray   # per pool: slots used
    groups_ended: np.ndarray   # (3,) contended groups ended after l1, l2, dedicated
    slots_by_part: np.ndarray  # (4,) preallocated, l1, l2, dedicated slots


def _resolve_pools(pool: np.ndarray, station: np.ndarray, n_pools: int,
                   params: ProtocolParams, rng) -> _Resolved:
    """Resolve the reports of `n_pools` independent pools together.

    Report i is held by `station[i]` in pool `pool[i]`; the reports are sorted
    by (pool, station) with no repeats, so the reports of one group in one
    pool form a run. Every report transmits in its group's preallocated slot.
    In each pool the collided slots are counted against the threshold; those
    of a regular-decision pool contend in the frames l1 and then l2, and
    whoever is left (every member, for an alarm decision) takes the
    dedicated frame at its in-group index.
    """
    g, omega, l1, l2 = params.pool_size, params.omega, params.l1, params.l2
    slot = station // omega  # preallocated: a singleton resolves there
    gkey = pool * g + slot
    # a group collides where two adjacent reports share its key
    same = np.concatenate(([False], gkey[1:] == gkey[:-1], [False]))
    members = np.flatnonzero(same[1:] | same[:-1])
    opens = np.diff(gkey[members], prepend=-1) != 0  # a collided group's first member
    cg_of = np.cumsum(opens) - 1  # each member's collided group
    cg_pool = pool[members[opens]]  # collided groups, in (pool, group) order
    n_cg = cg_pool.size
    k_c = np.bincount(cg_pool, minlength=n_pools)
    alarm = k_c >= params.delta_c
    contends = ~alarm[cg_pool]

    # a member's common-pool slot: by default the dedicated one at its in-group index
    rel = station[members] - omega * slot[members]
    contenders = np.flatnonzero(contends[cg_of])  # indices into members
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
    # common-pool slots used by the pools before each pool
    before = cum[np.searchsorted(cg_pool, np.arange(n_pools + 1))]
    seg_start = g + cum[:-1] - before[cg_pool]
    slot[members] = seg_start[cg_of] + rel

    n_contended = int(contends.sum())
    n_l2, n_dedicated = int(to_l2.sum()), int(to_dedicated.sum())
    return _Resolved(
        slot=slot, k_c=k_c, alarm=alarm, total_rs=g + np.diff(before),
        groups_ended=np.array([n_contended - n_l2, n_l2 - n_dedicated, n_dedicated]),
        slots_by_part=np.array([g * n_pools, l1 * n_contended, l2 * n_l2,
                                omega * (n_dedicated + n_cg - n_contended)]))


# --------------------------------------------------------------------------
# scenario-level driving


@dataclass(frozen=True)
class _Arrivals:
    """The admitted reports of a chunk of consecutive pools, sorted by
    (pool, station) with at most one report per station and pool."""

    w0: int                # window of the chunk's first pool
    pool: np.ndarray       # per report: its pool, counted from the chunk's first
    station: np.ndarray    # per report: the station holding it
    kind: np.ndarray       # per report: index into KINDS
    t_gen: np.ndarray      # per report: generation time (s)
    h1: np.ndarray         # per pool: an alarm front passes through its window


# report kinds, in the order of `_Arrivals.kind`
KINDS = ("periodic", "on_demand", "alarm")
GROUP_ENDS = ("l1", "l2", "dedicated")
POOL_PARTS = ("preallocated", "l1", "l2", "dedicated")
# one pool of the trace: the bytes of json.dumps(entry, sort_keys=True) + "\n"
TRACE_LINE = '{"decision": "%s", "hypothesis": "%s", "k_c": %d, "total_rs": %d, "window": %d}\n'


@dataclass
class ScenarioStats:
    """Aggregated results of a run of `params` under `traffic` and `deadlines`."""

    params: ProtocolParams
    traffic: RegularTrafficParams
    deadlines: Deadlines
    pools_run: int = 0
    sum_rs: float = 0.0
    sum_rs_sq: float = 0.0
    pools_h0: int = 0
    pools_h1: int = 0
    alarm_decisions_h0: int = 0
    alarm_decisions_h1: int = 0
    reports_total: int = 0
    reports_by_kind: dict[str, int] = field(default_factory=dict)
    dropped_reports: int = 0
    unresolved_active: int = 0
    max_delay_by_kind: dict[str, float] = field(default_factory=dict)
    # per kind: report delays counted in bins of delay_bin_s
    delay_counts: dict[str, np.ndarray] = field(default_factory=dict)
    # pools per collided-slot count k_c, length pool_size + 1
    kc_counts: np.ndarray = field(init=False)
    # collided groups of regular-decision pools by their last frame, in GROUP_ENDS order
    groups_ended: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=int))
    # slots spent on each part of the pool, in POOL_PARTS order
    slots_by_part: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=int))

    def __post_init__(self):
        self.kc_counts = np.zeros(self.params.pool_size + 1, dtype=int)

    @property
    def delay_bin_s(self) -> float:
        """The delay-count bin, tau_a / 100. A delay is at most t_r plus the
        worst-case pool duration, which `validate_deadline` keeps below
        tau_a, so each kind fills at most 100 bins."""
        return self.deadlines.tau_a / 100

    @property
    def mean_rs_per_pool(self) -> float:
        return self.sum_rs / self.pools_run if self.pools_run else float("nan")

    @property
    def std_rs_per_pool(self) -> float:
        if self.pools_run < 2:
            return float("nan")
        var = (self.sum_rs_sq - self.sum_rs**2 / self.pools_run) / (self.pools_run - 1)
        return math.sqrt(max(var, 0.0))

    @property
    def stderr_rs_per_pool(self) -> float:
        return self.std_rs_per_pool / math.sqrt(self.pools_run) if self.pools_run >= 2 else float("nan")

    @property
    def mean_pool_duration(self) -> float:
        return self.mean_rs_per_pool * self.params.rs_duration

    @property
    def p_alarm_given_h0(self) -> float:
        return self.alarm_decisions_h0 / self.pools_h0 if self.pools_h0 else float("nan")

    @property
    def p_alarm_given_h1(self) -> float:
        return self.alarm_decisions_h1 / self.pools_h1 if self.pools_h1 else float("nan")

    @property
    def rs_per_station_per_ri(self) -> float:
        """Average slots spent per station over one periodic reporting interval."""
        pools_per_ri = self.traffic.t_ri / self.params.t_r
        return self.mean_rs_per_pool * pools_per_ri / self.params.n

    def add(self, arrivals: _Arrivals, res: _Resolved,
            trace: TextIO | None = None) -> None:
        """Account a chunk of pools and its reports as resolved by `res`;
        a `trace` text sink gets one JSON line per pool (`TRACE_LINE`)."""
        total = res.total_rs
        h1 = arrivals.h1
        self.pools_run += h1.size
        self.sum_rs += float(total.sum())
        self.sum_rs_sq += float((total * total).sum())
        self.pools_h1 += int(h1.sum())
        self.pools_h0 += int((~h1).sum())
        self.alarm_decisions_h1 += int((res.alarm & h1).sum())
        self.alarm_decisions_h0 += int((res.alarm & ~h1).sum())
        self.kc_counts += np.bincount(res.k_c, minlength=self.kc_counts.size)
        self.groups_ended += res.groups_ended
        self.slots_by_part += res.slots_by_part
        if trace is not None:
            trace.write("".join(map(TRACE_LINE.__mod__, zip(
                np.where(res.alarm, "alarm", "regular").tolist(),
                np.where(h1, "h1", "h0").tolist(), res.k_c.tolist(), total.tolist(),
                range(arrivals.w0, arrivals.w0 + h1.size)))))

        kind = arrivals.kind
        delay = np.multiply(arrivals.pool + (arrivals.w0 + 1), self.params.t_r)
        delay += np.multiply(res.slot + 1, self.params.rs_duration)
        delay -= arrivals.t_gen
        self.reports_total += kind.size
        self.unresolved_active += int((res.slot < 0).sum())
        self.dropped_reports += int((delay > self.deadlines.tau_a).sum())
        for k, name in enumerate(KINDS):
            delays = delay[kind == k]
            if delays.size == 0:
                continue
            self.reports_by_kind[name] = self.reports_by_kind.get(name, 0) + delays.size
            prev = self.delay_counts.get(name, np.zeros(0, dtype=int))
            counts = np.bincount(np.floor(delays / self.delay_bin_s).astype(int),
                                 minlength=prev.size)
            counts[:prev.size] += prev
            self.delay_counts[name] = counts
            self.max_delay_by_kind[name] = max(
                self.max_delay_by_kind.get(name, 0.0), float(delays.max()))

    def to_dict(self) -> dict:
        return {
            "pools_run": self.pools_run,
            "mean_rs_per_pool": self.mean_rs_per_pool,
            "std_rs_per_pool": self.std_rs_per_pool,
            "mean_pool_duration_s": self.mean_pool_duration,
            "pools_h0": self.pools_h0,
            "pools_h1": self.pools_h1,
            "p_alarm_given_h0": self.p_alarm_given_h0,
            "p_alarm_given_h1": self.p_alarm_given_h1,
            "reports_total": self.reports_total,
            "reports_by_kind": dict(sorted(self.reports_by_kind.items())),
            "dropped_reports": self.dropped_reports,
            "unresolved_active": self.unresolved_active,
            "max_delay_by_kind_s": dict(sorted(self.max_delay_by_kind.items())),
            "rs_per_station_per_ri": self.rs_per_station_per_ri,
            "contended_groups_by_end": dict(zip(GROUP_ENDS, self.groups_ended.tolist())),
            "slots_by_part": dict(zip(POOL_PARTS, self.slots_by_part.tolist())),
        }


@dataclass(frozen=True)
class AlarmProcess:
    """Random alarm injection: each pool period independently hosts one event
    with probability `prob_per_pool`, built from the template scenario."""

    prob_per_pool: float
    template: AlarmScenario

    def __post_init__(self):
        if not 0 <= self.prob_per_pool <= 1:
            raise ValueError("per-pool alarm probability must lie in [0, 1]")


class _AlarmQueue:
    """Alarm reports scheduled for windows not yet simulated, in scheduling
    order. Only windows inside the run [0, n_pools) are kept. Every station
    an event triggers reports, so an H1 window, one in which a front reaches
    a station it triggers, is exactly a window that holds an alarm report."""

    def __init__(self, geometry: CellGeometry, t_r: float, n_pools: int):
        self.geometry = geometry
        self.t_r = t_r
        self.n_pools = n_pools
        self.window = np.empty(0, dtype=np.int64)
        self.station = np.empty(0, dtype=np.int64)
        self.time = np.empty(0)

    def schedule(self, scenario: AlarmScenario, rng) -> None:
        station, time = scenario.draw_reports(self.geometry, rng)
        with np.errstate(over="ignore"):  # past the float range is past the run
            window = np.floor(time / self.t_r)
        keep = (window >= 0) & (window < self.n_pools)
        self.window = np.append(self.window, window[keep].astype(np.int64))
        self.station = np.append(self.station, station[keep])
        self.time = np.append(self.time, time[keep])

    def pop(self, start: int, end: int) -> tuple[np.ndarray, ...]:
        """Remove the reports before window `end`; return the reports
        (window, station, time) from `start` on and the H1 flags of the
        windows [start, end), true where one of them falls. An event drawn at
        the very start of a window can round into the one before, already
        simulated; those are dropped."""
        due = self.window < end
        now = due & (self.window >= start)
        out = self.window[now], self.station[now], self.time[now]
        self.window, self.station, self.time = (
            self.window[~due], self.station[~due], self.time[~due])
        h1 = np.zeros(end - start, dtype=bool)
        h1[out[0] - start] = True
        return (*out, h1)


def _bernoulli_cells(rng, cells: int, p: float) -> np.ndarray:
    """Sorted indices of the successes among `cells` i.i.d. Bernoulli(p)
    trials, drawn as geometric gaps, so the work and memory scale with the
    number of successes rather than with `cells`."""
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    mean = cells * p
    parts = []
    last = -1
    while last < cells - 1:
        # capping a gap past the end keeps the sums from overflowing and
        # changes no index below `cells`
        gaps = np.minimum(rng.geometric(p, size=int(mean + 6 * math.sqrt(mean)) + 32),
                          cells + 1)
        pos = last + np.cumsum(gaps)
        parts.append(pos)
        last = int(pos[-1])
    pos = np.concatenate(parts)
    return pos[pos < cells]


# pools resolved together: enough to spread the fixed cost of the array
# operations, few enough, with at most about CHUNK_REPORTS regular reports,
# to keep the working set at a few MB however busy the cell
CHUNK_POOLS = 256
CHUNK_REPORTS = 1 << 16


def _arrivals(geometry: CellGeometry, traffic: RegularTrafficParams, t_r: float,
              alarms: list[AlarmScenario], alarm_process: AlarmProcess | None,
              n_pools: int, rng):
    """Yield the admitted reports of the pools [0, n_pools), chunk by chunk.

    Regular reports arrive per station as a Poisson stream; alarm events
    trigger stations along the propagating front. A report generated during a
    pool period contends in the next pool. Reports are merged so a station
    never carries more than one pending poll; an admitted alarm supersedes a
    pending regular report, and a later-scheduled alarm an earlier one.

    Nothing here depends on the pool design. A chunk holds CHUNK_POOLS
    pools, fewer in a cell busy enough to expect more than CHUNK_REPORTS
    regular reports; alarm reports scheduled for a later chunk wait in a
    queue.
    """
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
                queue.schedule(replace(tpl, t_a=w * t_r + rng.random() * t_r), rng)

        # regular arrivals over the (pool, station) grid, key pool * n + station:
        # the admitted (earliest) arrival's time and kind for each active cell
        key = _bernoulli_cells(rng, n_chunk * n, p_active)
        pool = key // n
        station = key - n * pool  # np.divmod takes longer than both
        # first-arrival time conditioned on >= 1 arrival in the window
        t_gen = rng.random(key.size)
        np.log1p(np.multiply(t_gen, -p_active, out=t_gen), out=t_gen)
        t_gen /= -rate
        t_gen += (w0 + pool) * t_r
        kind = (rng.random(key.size) >= p_periodic).astype(np.int64)  # into KINDS

        a_window, a_station, a_time, h1 = queue.pop(w0, w0 + n_chunk)
        if a_window.size:
            a_pool = a_window - w0
            key = np.concatenate((key, a_pool * n + a_station))
            # keep the last report per cell: an alarm supersedes a regular
            # report, a later-scheduled alarm an earlier one
            _, last = np.unique(key[::-1], return_index=True)
            last = key.size - 1 - last
            pool, station, kind, t_gen = (np.concatenate((x, y))[last] for x, y in (
                (pool, a_pool), (station, a_station),
                (kind, np.full(a_window.size, KINDS.index("alarm"))),
                (t_gen, a_time)))
        yield _Arrivals(w0=w0, pool=pool, station=station, kind=kind,
                        t_gen=t_gen, h1=h1)


# a run is 1 to MAX_POOLS - 1 pools: the pool and window indices of
# `_arrivals` and `_AlarmQueue` are int64
MAX_POOLS = 2**63


def pool_count(horizon: float, t_r: float) -> int:
    """Whole pool periods in a positive horizon, from the exact ratio of the
    two floats. A ratio within a few ulps (2**-50 relative) of an integer
    counts as that integer: 0.3 s at 0.1 s is 3 pools, though 0.3 / 0.1 is
    2.9999999999999996."""
    (a, b), (c, d) = horizon.as_integer_ratio(), t_r.as_integer_ratio()
    num, den = a * d, b * c  # horizon / t_r == num / den
    nearest = (2 * num + den) // (2 * den)
    return nearest if abs(num - nearest * den) * 2**50 <= nearest * den else num // den


def run_scenario(geometry: CellGeometry, params: ProtocolParams,
                 traffic: RegularTrafficParams, deadlines: Deadlines,
                 alarms: list[AlarmScenario], n_pools: int, seed,
                 alarm_process: AlarmProcess | None = None,
                 trace: TextIO | None = None) -> ScenarioStats:
    """Simulate `n_pools` pools, one every t_r, with gated arrivals.

    `_arrivals` draws each chunk's reports from child 0 of `seed` (an int
    or a SeedSequence), so for one seed every design sees the same
    arrivals, and `_resolve_pools` resolves them from child 1. A `trace`
    sink gets each chunk's per-pool lines as the chunk ends.
    """
    if not 1 <= n_pools < MAX_POOLS:
        raise ValueError(f"n_pools must lie in [1, 2**63), got {n_pools}")
    if geometry.n_stations != params.n:
        raise ValueError("geometry and protocol disagree on the station count")
    validate_deadline(params, deadlines)

    arrival_rng, contention_rng = (np.random.default_rng(child_seed(seed, i))
                                   for i in range(2))
    stats = ScenarioStats(params, traffic, deadlines)
    for arrivals in _arrivals(geometry, traffic, params.t_r, alarms,
                              alarm_process, n_pools, arrival_rng):
        res = _resolve_pools(arrivals.pool, arrivals.station, arrivals.h1.size,
                             params, contention_rng)
        stats.add(arrivals, res, trace)
    return stats

