"""Discrete-time simulation of the recurring reservation pool: gated report
arrivals, per-group contention in the preallocated pool, the collided-slot
threshold decision and collision resolution in the common pool."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import stats

from .analysis import ProtocolParams
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
        below = pool + min(params.delta_c - 1, collidable) * (params.l1 + params.l2 + params.omega)
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


def _resolve_collision(members: np.ndarray, assignment: GroupAssignment,
                       params: ProtocolParams, contention_free_only: bool,
                       rng, offset: int, resolved_slot: dict[int, int]) -> int:
    """Resolve one collided group in the common pool from slot `offset` on.

    Records each member's resolving slot (its index within the pool) in
    `resolved_slot` and returns the offset past the last frame allocated.
    """
    contenders = members
    if not contention_free_only:
        for length in (params.l1, params.l2):
            choices = rng.integers(0, length, size=contenders.size)
            occupancy = np.bincount(choices, minlength=length)
            singleton = occupancy[choices] == 1
            for st, slot in zip(contenders[singleton], choices[singleton]):
                resolved_slot[int(st)] = offset + int(slot)
            offset += length
            contenders = contenders[~singleton]
            if contenders.size == 0:
                return offset

    # dedicated frame: one slot per in-group index, every survivor resolves
    for st, slot in zip(contenders, assignment.in_group_index(contenders)):
        resolved_slot[int(st)] = offset + int(slot)
    return offset + params.omega


@dataclass(frozen=True)
class PoolResult:
    k_c: int
    decision: Decision
    total_rs: int
    resolved_slot: dict[int, int]  # station id -> index of its resolving slot


def run_pool(active_stations, assignment: GroupAssignment,
             params: ProtocolParams, mode: Mode, rng) -> PoolResult:
    """Execute one pool for the stations holding a pending report.

    Every active station transmits in its group's preallocated slot; collided
    slots are expanded in the common pool according to the mode and the
    threshold decision. Every active station ends up resolved.
    """
    active = np.unique(np.asarray(active_stations, dtype=int))
    if active.size and (active[0] < 0 or active[-1] >= assignment.n):
        raise ValueError("active station ids out of range")

    groups = assignment.group_of(active)  # sorted, since active ids are sorted
    occupancy = np.bincount(groups, minlength=params.pool_size)

    resolved_slot: dict[int, int] = {}
    single_groups = np.flatnonzero(occupancy == 1)
    if single_groups.size:
        pos = np.searchsorted(groups, single_groups)
        for g, st in zip(single_groups, active[pos]):
            resolved_slot[int(st)] = int(g)
    collided_groups = np.flatnonzero(occupancy >= 2)

    k_c = int(collided_groups.size)
    decision = Decision.ALARM if k_c >= params.delta_c else Decision.REGULAR
    contention_free_only = (mode is Mode.NAIVE_CONTENTION_FREE
                            or decision is Decision.ALARM)

    offset = params.pool_size
    starts = np.searchsorted(groups, collided_groups)
    ends = np.searchsorted(groups, collided_groups + 1)
    for lo, hi in zip(starts, ends):
        offset = _resolve_collision(active[lo:hi], assignment, params,
                                    contention_free_only, rng, offset,
                                    resolved_slot)
    return PoolResult(k_c=k_c, decision=decision, total_rs=offset,
                      resolved_slot=resolved_slot)


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

    def merge(self, other: "DelayHistogram") -> None:
        for kind, hist in other.counts.items():
            self.counts[kind] = _add_counts(self.counts.get(kind), hist)


@dataclass
class ScenarioStats:
    """Aggregated results of a scenario run; merge-able across replications."""

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

    def merge(self, other: "ScenarioStats") -> None:
        if other.n_stations and self.n_stations and (
                other.n_stations != self.n_stations or other.t_r != self.t_r):
            raise ValueError("can only merge stats from identical configurations")
        self.pools_run += other.pools_run
        self.sum_rs += other.sum_rs
        self.sum_rs_sq += other.sum_rs_sq
        self.sum_duration += other.sum_duration
        self.pools_h0 += other.pools_h0
        self.pools_h1 += other.pools_h1
        self.alarm_decisions_h0 += other.alarm_decisions_h0
        self.alarm_decisions_h1 += other.alarm_decisions_h1
        self.reports_total += other.reports_total
        for k, v in other.reports_by_kind.items():
            self.reports_by_kind[k] = self.reports_by_kind.get(k, 0) + v
        self.dropped_reports += other.dropped_reports
        self.unresolved_active += other.unresolved_active
        for k, v in other.max_delay_by_kind.items():
            self.max_delay_by_kind[k] = max(self.max_delay_by_kind.get(k, 0.0), v)
        self.delay_histogram.merge(other.delay_histogram)
        self.kc_counts = _add_counts(self.kc_counts, other.kc_counts)
        if not self.n_stations:
            self.n_stations = other.n_stations
            self.t_r = other.t_r
            self.t_ri = other.t_ri

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
    pending regular report.
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
    p_active = 1.0 - math.exp(-traffic.total_rate * t_r)
    p_periodic = traffic.lambda_p / traffic.total_rate
    rate = traffic.total_rate

    # alarm bookkeeping: reports per window, plus windows affected per event
    alarm_reports: dict[int, list[tuple[int, float]]] = {}
    h1_windows: set[int] = set()

    def schedule_alarm(scenario: AlarmScenario) -> None:
        probs = scenario.trigger_probs(geometry)
        times = scenario.arrival_times(geometry)
        triggered = rng.random(n) < probs
        emits = rng.poisson(1.0, size=int(triggered.sum())) >= 1
        ids = np.flatnonzero(triggered)
        h1_windows.update(int(math.floor(t_act / t_r)) for t_act in times[triggered])
        for st, t_act in zip(ids[emits], times[triggered][emits]):
            win = int(math.floor(t_act / t_r))
            alarm_reports.setdefault(win, []).append((int(st), float(t_act)))

    for scenario in alarms:
        schedule_alarm(scenario)

    stats_acc = ScenarioStats(n_stations=n, t_r=t_r, t_ri=traffic.t_ri)
    stats_acc.delay_histogram = DelayHistogram(delay_bin)
    stats_acc.kc_counts = np.zeros(params.pool_size + 1, dtype=int)

    for window in range(n_pools):
        win_start = window * t_r
        if alarm_process is not None and rng.random() < alarm_process.prob_per_pool:
            tpl = alarm_process.template
            event = AlarmScenario(epicenter=tpl.epicenter, v=tpl.v,
                                  t_a=win_start + rng.random() * t_r,
                                  correlation=tpl.correlation)
            schedule_alarm(event)

        # regular arrivals in this window: activity mask, then the admitted
        # (earliest) arrival's time and kind for the active stations
        active_mask = rng.random(n) < p_active
        active_ids = np.flatnonzero(active_mask)
        u = rng.random(active_ids.size)
        # first-arrival time conditioned on >= 1 arrival in the window
        t_first = -np.log1p(-u * p_active) / rate
        kinds = np.where(rng.random(active_ids.size) < p_periodic,
                         ReportKind.PERIODIC.value, ReportKind.ON_DEMAND.value)
        gen_time = win_start + t_first

        pending: dict[int, tuple[str, float]] = {
            int(st): (str(k), float(t)) for st, k, t in zip(active_ids, kinds, gen_time)}
        for st, t_act in alarm_reports.pop(window, []):
            pending[st] = (ReportKind.ALARM.value, t_act)  # alarm supersedes

        pool_start = (window + 1) * t_r
        active = np.fromiter(pending.keys(), dtype=int, count=len(pending))
        outcome = run_pool(active, assignment, params, mode, rng)

        stats_acc.pools_run += 1
        stats_acc.sum_rs += outcome.total_rs
        stats_acc.sum_rs_sq += outcome.total_rs**2
        stats_acc.sum_duration += outcome.total_rs * params.rs_duration
        is_h1 = window in h1_windows
        if is_h1:
            stats_acc.pools_h1 += 1
            stats_acc.alarm_decisions_h1 += outcome.decision is Decision.ALARM
        else:
            stats_acc.pools_h0 += 1
            stats_acc.alarm_decisions_h0 += outcome.decision is Decision.ALARM
        stats_acc.kc_counts[outcome.k_c] += 1
        if trace is not None:
            trace.append({"window": window, "hypothesis": "h1" if is_h1 else "h0",
                          "k_c": outcome.k_c, "decision": outcome.decision.value,
                          "total_rs": outcome.total_rs})

        rs = params.rs_duration
        delays_by_kind: dict[str, list[float]] = {}
        for st, (kind, t_gen) in pending.items():
            slot = outcome.resolved_slot.get(st)
            if slot is None:
                stats_acc.unresolved_active += 1
                continue
            delay = pool_start + (slot + 1) * rs - t_gen
            delays_by_kind.setdefault(kind, []).append(delay)
            stats_acc.reports_total += 1
            stats_acc.reports_by_kind[kind] = stats_acc.reports_by_kind.get(kind, 0) + 1
            if delay > deadlines.for_kind(ReportKind(kind)):
                stats_acc.dropped_reports += 1
        for kind, ds in delays_by_kind.items():
            arr = np.asarray(ds)
            stats_acc.delay_histogram.add(ReportKind(kind), arr)
            prev = stats_acc.max_delay_by_kind.get(kind, 0.0)
            stats_acc.max_delay_by_kind[kind] = max(prev, float(arr.max()))

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
