"""Discrete-time simulation of the recurring reservation pool: gated report
arrivals, per-group contention in the preallocated pool, the collided-slot
threshold decision and collision resolution in the common pool."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import stats

from .analysis import ProtocolParams, frame_chain_cost
from .traffic import (AlarmScenario, CellGeometry, Deadlines, RegularTrafficParams,
                      ReportKind)


class Mode(Enum):
    ADAPTIVE = "adaptive"
    NAIVE_CONTENTION_FREE = "naive"


class Decision(Enum):
    REGULAR = "regular"
    ALARM = "alarm"


class InfeasibleConfigError(ValueError):
    """The deadline cannot be met even in the worst-case pool."""


@dataclass(frozen=True)
class GroupAssignment:
    """Contiguous identifier-based grouping of stations onto preallocated slots."""

    n: int
    omega: int

    def __post_init__(self):
        if self.n < 1 or not 1 <= self.omega <= self.n:
            raise ValueError("need 1 <= omega <= n")

    @property
    def n_groups(self) -> int:
        return math.ceil(self.n / self.omega)

    def group_of(self, station_id) -> np.ndarray:
        return np.asarray(station_id) // self.omega

    def in_group_index(self, station_id) -> np.ndarray:
        return np.asarray(station_id) % self.omega

    @property
    def collidable_groups(self) -> int:
        """Groups with two or more members. Every group but the last holds
        omega stations; the last holds one exactly when n % omega == 1."""
        if self.omega < 2:
            return 0
        return self.n_groups - (self.n % self.omega == 1)


def worst_case_pool_duration(params: ProtocolParams, assignment: GroupAssignment,
                             mode: Mode = Mode.ADAPTIVE) -> float:
    """Upper bound on the pool duration, accounting for the threshold branch.

    Below the threshold at most delta_c - 1 slots escalate through both
    contention frames plus the dedicated frame; at or above it every collided
    slot expands into the dedicated frame directly.
    """
    pool = params.pool_size
    collidable = assignment.collidable_groups
    if mode is Mode.NAIVE_CONTENTION_FREE:
        worst = pool + collidable * params.omega
    else:
        below = pool + min(params.delta_c - 1, collidable) * frame_chain_cost(
            params.omega, params.l1, params.l2, 1, 1)
        above = pool + collidable * params.omega
        worst = max(below, above)
    return worst * params.rs_duration


def validate_deadline(params: ProtocolParams, assignment: GroupAssignment,
                      deadlines: Deadlines, mode: Mode = Mode.ADAPTIVE) -> None:
    """Reject configurations whose worst-case pool breaks the alarm deadline."""
    worst = worst_case_pool_duration(params, assignment, mode)
    if not deadlines.tau_a > params.t_r + worst:
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
                   assignment: GroupAssignment, params: ProtocolParams,
                   mode: Mode, rng) -> _Resolved:
    """Resolve the reports of `n_pools` independent pools together.

    Report i is held by `station[i]` in pool `pool[i]`; the reports are sorted
    by (pool, station) with no repeats, so the reports of one group in one
    pool form a run. Every report transmits in its group's preallocated slot.
    In each pool the collided slots are counted against the threshold; those
    of a regular-decision pool in adaptive mode contend in the frames l1 and
    then l2, and whoever is left (every member, for an alarm decision or in
    naive mode) takes the dedicated frame at its in-group index.
    """
    g, omega, l1, l2 = params.pool_size, params.omega, params.l1, params.l2
    m = station.size
    group = assignment.group_of(station)
    gkey = pool * g + group
    first = np.ones(m, dtype=bool)
    first[1:] = gkey[1:] != gkey[:-1]
    run_start = np.flatnonzero(first)
    run_of = np.cumsum(first) - 1  # occupied-group run of each report
    collided = np.diff(np.append(run_start, m)) >= 2
    cg_pool = pool[run_start[collided]]  # collided groups, in (pool, group) order
    n_cg = cg_pool.size
    k_c = np.bincount(cg_pool, minlength=n_pools)
    alarm = k_c >= params.delta_c
    if mode is Mode.ADAPTIVE:
        contends = ~alarm[cg_pool]
    else:
        contends = np.zeros(n_cg, dtype=bool)

    members = np.flatnonzero(collided[run_of])  # reports in collided groups
    cg_of = (np.cumsum(collided) - 1)[run_of]  # their collided group
    # slot within the group's common-pool segment; the dedicated frame by default
    rel = assignment.in_group_index(station)
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
    # common-pool slots used by the pools before each pool
    before = cum[np.searchsorted(cg_pool, np.arange(n_pools + 1))]
    seg_start = g + cum[:-1] - before[cg_pool]
    slot = group.copy()  # a singleton resolves in its preallocated slot
    slot[members] = seg_start[cg_of[members]] + rel[members]

    n_contended = int(contends.sum())
    n_l2, n_dedicated = int(to_l2.sum()), int(to_dedicated.sum())
    return _Resolved(
        slot=slot, k_c=k_c, alarm=alarm, total_rs=g + np.diff(before),
        groups_ended=np.array([n_contended - n_l2, n_l2 - n_dedicated, n_dedicated]),
        slots_by_part=np.array([g * n_pools, l1 * n_contended, l2 * n_l2,
                                omega * (n_dedicated + n_cg - n_contended)]))


@dataclass(frozen=True)
class PoolResult:
    k_c: int
    decision: Decision
    total_rs: int
    resolved_slot: dict[int, int]  # station id -> index of its resolving slot


def run_pool(active_stations, assignment: GroupAssignment,
             params: ProtocolParams, mode: Mode, rng) -> PoolResult:
    """Execute one pool for the stations holding a pending report: the
    single-pool view of the batch resolver `run_scenario` uses."""
    active = np.unique(np.asarray(active_stations, dtype=int))
    if active.size and (active[0] < 0 or active[-1] >= assignment.n):
        raise ValueError("active station ids out of range")
    res = _resolve_pools(np.zeros(active.size, dtype=int), active, 1,
                         assignment, params, mode, rng)
    return PoolResult(k_c=int(res.k_c[0]),
                      decision=Decision.ALARM if res.alarm[0] else Decision.REGULAR,
                      total_rs=int(res.total_rs[0]),
                      resolved_slot=dict(zip(active.tolist(), res.slot.tolist())))


# --------------------------------------------------------------------------
# scenario-level driving


def _add_counts(prev: np.ndarray | None, new: np.ndarray) -> np.ndarray:
    """Element-wise sum of two count arrays, the shorter padded with zeros."""
    if prev is None:
        return new.copy()
    merged = np.zeros(max(prev.size, new.size), dtype=int)
    merged[:prev.size] += prev
    merged[:new.size] += new
    return merged


@dataclass
class DelayHistogram:
    """Per-kind histogram of report identification delays."""

    bin_width: float
    counts: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, kind: ReportKind, delays: np.ndarray) -> None:
        if delays.size == 0:
            return
        hist = np.bincount(np.floor(delays / self.bin_width).astype(int))
        self.counts[kind.value] = _add_counts(self.counts.get(kind.value), hist)


GROUP_ENDS = ("l1", "l2", "dedicated")
POOL_PARTS = ("preallocated", "l1", "l2", "dedicated")


@dataclass
class ScenarioStats:
    """Aggregated results of a scenario run."""

    pools_run: int = 0
    sum_rs: float = 0.0
    sum_rs_sq: float = 0.0
    sum_duration: float = 0.0
    pools_h0: int = 0
    pools_h1: int = 0
    alarm_decisions_h0: int = 0
    alarm_decisions_h1: int = 0
    reports_total: int = 0
    reports_by_kind: dict[str, int] = field(default_factory=dict)
    dropped_reports: int = 0
    unresolved_active: int = 0
    max_delay_by_kind: dict[str, float] = field(default_factory=dict)
    delay_histogram: DelayHistogram = field(default_factory=lambda: DelayHistogram(0.05))
    # pools per collided-slot count k_c, length pool_size + 1
    kc_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # collided groups of regular-decision pools (adaptive mode) by the frame
    # that resolved their last contender, in GROUP_ENDS order
    groups_ended: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=int))
    # slots spent on each part of the pool, in POOL_PARTS order
    slots_by_part: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=int))
    n_stations: int = 0
    t_r: float = 0.0
    t_ri: float = 0.0

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
        return self.sum_duration / self.pools_run if self.pools_run else float("nan")

    @property
    def p_alarm_given_h0(self) -> float:
        return self.alarm_decisions_h0 / self.pools_h0 if self.pools_h0 else float("nan")

    @property
    def p_alarm_given_h1(self) -> float:
        return self.alarm_decisions_h1 / self.pools_h1 if self.pools_h1 else float("nan")

    @property
    def rs_per_station_per_ri(self) -> float:
        """Average slots spent per station over one periodic reporting interval."""
        if not self.pools_run or not self.n_stations or not self.t_r or not self.t_ri:
            return float("nan")
        pools_per_ri = self.t_ri / self.t_r
        return self.mean_rs_per_pool * pools_per_ri / self.n_stations

    def to_dict(self) -> dict:
        def clean(x):
            return None if isinstance(x, float) and math.isnan(x) else x
        return {
            "pools_run": self.pools_run,
            "mean_rs_per_pool": clean(self.mean_rs_per_pool),
            "std_rs_per_pool": clean(self.std_rs_per_pool),
            "mean_pool_duration_s": clean(self.mean_pool_duration),
            "pools_h0": self.pools_h0,
            "pools_h1": self.pools_h1,
            "p_alarm_given_h0": clean(self.p_alarm_given_h0),
            "p_alarm_given_h1": clean(self.p_alarm_given_h1),
            "reports_total": self.reports_total,
            "reports_by_kind": dict(sorted(self.reports_by_kind.items())),
            "dropped_reports": self.dropped_reports,
            "unresolved_active": self.unresolved_active,
            "max_delay_by_kind_s": {k: clean(v) for k, v in sorted(self.max_delay_by_kind.items())},
            "rs_per_station_per_ri": clean(self.rs_per_station_per_ri),
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
    order, and the windows the events' fronts pass through (H1 windows).
    Only windows inside the run [0, n_pools) are kept."""

    def __init__(self, geometry: CellGeometry, t_r: float, n_pools: int):
        self.geometry = geometry
        self.t_r = t_r
        self.n_pools = n_pools
        self.window = np.empty(0, dtype=np.int64)
        self.station = np.empty(0, dtype=np.int64)
        self.time = np.empty(0)
        self.h1 = np.empty(0, dtype=np.int64)

    def schedule(self, scenario: AlarmScenario, rng) -> None:
        probs = scenario.trigger_probs(self.geometry)
        times = scenario.arrival_times(self.geometry)
        triggered = np.flatnonzero(rng.random(times.size) < probs)
        emits = rng.poisson(1.0, size=triggered.size) >= 1
        with np.errstate(over="ignore"):  # past the float range is past the run
            window = np.floor(times[triggered] / self.t_r)
        inside = (window >= 0) & (window < self.n_pools)
        self.h1 = np.union1d(self.h1, window[inside].astype(np.int64))
        keep = emits & inside
        self.window = np.append(self.window, window[keep].astype(np.int64))
        self.station = np.append(self.station, triggered[keep])
        self.time = np.append(self.time, times[triggered[keep]])

    def pop(self, start: int, end: int) -> tuple[np.ndarray, ...]:
        """Remove the reports and H1 windows before window `end`, and return
        the reports (window, station, time) and H1 windows from `start` on.
        An event drawn at the very start of a window can round into the one
        before, which has already been simulated; those are dropped."""
        due = self.window < end
        now = due & (self.window >= start)
        out = self.window[now], self.station[now], self.time[now]
        self.window, self.station, self.time = (
            self.window[~due], self.station[~due], self.time[~due])
        h1 = self.h1[(self.h1 >= start) & (self.h1 < end)]
        self.h1 = self.h1[self.h1 >= end]
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
# report kinds as small ints, in the order of the deadline array
_KINDS = (ReportKind.PERIODIC, ReportKind.ON_DEMAND, ReportKind.ALARM)
_ALARM = 2


def run_scenario(geometry: CellGeometry, params: ProtocolParams,
                 traffic: RegularTrafficParams, deadlines: Deadlines,
                 alarms: list[AlarmScenario], horizon: float, mode: Mode,
                 seed, delay_bin: float = 0.05,
                 alarm_process: AlarmProcess | None = None,
                 trace: list | None = None) -> ScenarioStats:
    """Simulate pools every t_r over the horizon with gated arrivals.

    Regular reports arrive per station as a Poisson stream; alarm events
    trigger stations along the propagating front. A report generated during a
    pool period contends in the next pool. Reports are merged so a station
    never carries more than one pending poll; an admitted alarm supersedes a
    pending regular report, and a later-scheduled alarm an earlier one.

    Pools are independent once the alarm schedule is fixed, so they are drawn
    and resolved in chunks of CHUNK_POOLS pools, fewer in a cell busy enough
    to expect more than CHUNK_REPORTS regular reports; alarm reports
    scheduled for a later chunk wait in a queue.
    """
    # a ratio within float error of an integer counts as that many pools:
    # 0.3 / 0.1 is 2.9999999999999996
    periods = horizon / params.t_r
    n_pools = math.floor(periods * (1 + 1e-9)) if math.isfinite(periods) else 0
    if n_pools < 1:
        raise ValueError("horizon must cover a finite number (>= 1) of pool periods")
    if geometry.n_stations != params.n:
        raise ValueError("geometry and protocol disagree on the station count")
    assignment = GroupAssignment(n=params.n, omega=params.omega)
    validate_deadline(params, assignment, deadlines, mode)

    rng = np.random.default_rng(seed)
    n = params.n
    t_r = params.t_r
    rs = params.rs_duration
    p_active = 1.0 - math.exp(-traffic.total_rate * t_r)
    p_periodic = traffic.lambda_p / traffic.total_rate
    rate = traffic.total_rate
    deadline = np.array([deadlines.for_kind(kind) for kind in _KINDS])

    queue = _AlarmQueue(geometry, t_r, n_pools)
    for scenario in alarms:
        queue.schedule(scenario, rng)

    stats_acc = ScenarioStats(n_stations=n, t_r=t_r, t_ri=traffic.t_ri)
    stats_acc.delay_histogram = DelayHistogram(delay_bin)
    stats_acc.kc_counts = np.zeros(params.pool_size + 1, dtype=int)

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

        # regular arrivals over the (pool, station) grid, key pool * n + station:
        # the admitted (earliest) arrival's time and kind for each active cell
        key = _bernoulli_cells(rng, n_chunk * n, p_active)
        u = rng.random(key.size)
        # first-arrival time conditioned on >= 1 arrival in the window
        t_gen = (w0 + key // n) * t_r + -np.log1p(-u * p_active) / rate
        kind = (rng.random(key.size) >= p_periodic).astype(np.int64)  # into _KINDS

        a_window, a_station, a_time, h1_windows = queue.pop(w0, w0 + n_chunk)
        if a_window.size:
            key = np.concatenate((key, (a_window - w0) * n + a_station))
            kind = np.concatenate((kind, np.full(a_window.size, _ALARM)))
            t_gen = np.concatenate((t_gen, a_time))
            # keep the last report per cell: an alarm supersedes a regular
            # report, a later-scheduled alarm an earlier one
            _, last = np.unique(key[::-1], return_index=True)
            last = key.size - 1 - last
            key, kind, t_gen = key[last], kind[last], t_gen[last]
        pool = key // n
        res = _resolve_pools(pool, key % n, n_chunk, assignment, params, mode, rng)

        total = res.total_rs
        stats_acc.pools_run += n_chunk
        stats_acc.sum_rs += float(total.sum())
        stats_acc.sum_rs_sq += float((total * total).sum())
        stats_acc.sum_duration += float(total.sum()) * rs
        h1 = np.zeros(n_chunk, dtype=bool)
        h1[h1_windows - w0] = True
        stats_acc.pools_h1 += int(h1.sum())
        stats_acc.pools_h0 += int(n_chunk - h1.sum())
        stats_acc.alarm_decisions_h1 += int((res.alarm & h1).sum())
        stats_acc.alarm_decisions_h0 += int((res.alarm & ~h1).sum())
        stats_acc.kc_counts += np.bincount(res.k_c, minlength=params.pool_size + 1)
        stats_acc.groups_ended += res.groups_ended
        stats_acc.slots_by_part += res.slots_by_part
        if trace is not None:
            trace.extend(
                {"window": w0 + i, "hypothesis": "h1" if is_h1 else "h0",
                 "k_c": k_c, "total_rs": total_rs,
                 "decision": (Decision.ALARM if is_alarm else Decision.REGULAR).value}
                for i, (is_h1, k_c, is_alarm, total_rs) in enumerate(zip(
                    h1.tolist(), res.k_c.tolist(), res.alarm.tolist(), total.tolist())))

        delay = (w0 + pool + 1) * t_r + (res.slot + 1) * rs - t_gen
        stats_acc.reports_total += key.size
        stats_acc.unresolved_active += int((res.slot < 0).sum())
        stats_acc.dropped_reports += int((delay > deadline[kind]).sum())
        for k, report_kind in enumerate(_KINDS):
            delays = delay[kind == k]
            if delays.size == 0:
                continue
            name = report_kind.value
            stats_acc.reports_by_kind[name] = stats_acc.reports_by_kind.get(name, 0) + delays.size
            stats_acc.delay_histogram.add(report_kind, delays)
            stats_acc.max_delay_by_kind[name] = max(
                stats_acc.max_delay_by_kind.get(name, 0.0), float(delays.max()))

    return stats_acc


def kc_chi_square(kc_counts, pool_size: int, p_c: float) -> tuple[float, float, int]:
    """Goodness-of-fit of a collided-slot count histogram (entry k: pools that
    saw k collided slots, as in `ScenarioStats.kc_counts`) against the
    independent-slots binomial model.

    Adjacent counts are pooled until every expected bin holds at least five
    samples. Returns (statistic, p_value, degrees_of_freedom).
    """
    counts = np.asarray(kc_counts, dtype=float)
    observed = np.zeros(pool_size + 1)
    observed[:counts.size] = counts  # a histogram longer than the pool raises
    n = observed.sum()
    if n < 2:
        raise ValueError("need at least two pool samples")
    expected = stats.binom.pmf(np.arange(pool_size + 1), pool_size, p_c) * n

    obs_bins: list[float] = []
    exp_bins: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 or acc_o > 0:
        if exp_bins:
            obs_bins[-1] += acc_o
            exp_bins[-1] += acc_e
        else:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
    if len(exp_bins) < 2:
        raise ValueError("too few populated bins for a goodness-of-fit test")
    obs_arr = np.asarray(obs_bins)
    exp_arr = np.asarray(exp_bins) * obs_arr.sum() / sum(exp_bins)
    stat, pvalue = stats.chisquare(obs_arr, exp_arr)
    return float(stat), float(pvalue), len(exp_bins) - 1
