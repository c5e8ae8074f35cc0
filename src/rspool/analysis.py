"""Closed-form performance model of the two-part reservation pool: per-slot
collision probabilities, frame-slotted-ALOHA resolution probabilities, the
collision-count threshold test and the expected slot cost of every
decision/traffic combination."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .traffic import AlarmScenario, CellGeometry, RegularTrafficParams

# Truncation for the contention-multiplicity sums: multiplicities whose
# remaining tail mass falls below this bound contribute nothing at double
# precision.
_TAIL_EPS = 1e-15


@dataclass(frozen=True)
class ProtocolParams:
    """Design parameters of the reservation pool.

    omega    stations sharing one preallocated slot (group size)
    delta_c  collided-slot count at which the alarm regime is declared
    l1, l2   contention frame lengths used for collision resolution
    t_r      pool recurrence period, seconds
    rs_duration  length of one reservation slot, seconds
    """

    n: int
    omega: int
    delta_c: int
    l1: int
    l2: int
    t_r: float
    rs_duration: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("station count must be positive")
        if not 1 <= self.omega <= self.n:
            raise ValueError("omega must lie in [1, n]")
        if not 1 <= self.delta_c <= self.pool_size:
            raise ValueError("delta_c must lie in [1, pool size]")
        if self.l1 < 1 or self.l2 < 1:
            raise ValueError("frame lengths must be at least 1")
        if self.omega > 1 and not (self.l2 <= self.l1 < self.omega):
            raise ValueError("frame lengths must satisfy l2 <= l1 < omega")
        if self.t_r <= 0 or self.rs_duration <= 0:
            raise ValueError("durations must be positive")

    @property
    def pool_size(self) -> int:
        return math.ceil(self.n / self.omega)

    @property
    def delta_c_pct(self) -> float:
        return 100.0 * self.delta_c / self.pool_size


def delta_c_from_pct(pct: float, pool_size: int) -> int:
    if not 0 < pct <= 100:
        raise ValueError("threshold percentage must lie in (0, 100]")
    return math.ceil(pct / 100.0 * pool_size)


def frames_for(omega: int, l1_frac: float, l2_frac: float) -> tuple[int, int]:
    """Frame lengths at the given fractions of the group size, clamped to
    1 <= l2 <= l1 < omega (1, 1 for single-station groups)."""
    l1 = max(1, round(l1_frac * omega))
    l2 = max(1, round(l2_frac * omega))
    if omega > 1:
        l1 = min(l1, omega - 1)
        l2 = min(l2, l1)
    return l1, l2


@dataclass(frozen=True)
class ActivityProbs:
    """Probability that a station has a report to send in a given pool."""

    p_a0: float  # regular reporting only
    p_a1: float  # alarm regime (population average)

    def __post_init__(self):
        if not (0 <= self.p_a0 <= 1 and 0 <= self.p_a1 <= 1):
            raise ValueError("activity probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class AnalysisReport:
    """All closed-form figures for one configuration (costs in slots)."""

    p_c_h0: float
    p_c_h1: float
    p_00: float
    p_10: float
    p_01: float
    p_11: float
    e_k_00: float
    e_k_10: float
    e_k_01: float
    e_k_11: float
    e_c_00: float
    e_c_10: float
    e_c_01: float
    e_c_11: float
    e_c: float
    p_h1: float
    r1: float = float("nan")
    r2: float = float("nan")
    e_s: float = float("nan")

    def to_dict(self) -> dict:
        def clean(x):
            return None if isinstance(x, float) and math.isnan(x) else x
        return {k: clean(v) for k, v in self.__dict__.items()}


def activity_prob_regular(lambda_p: float, lambda_d: float, t_r: float) -> float:
    """Probability of at least one regular report arriving within one pool period."""
    if lambda_p < 0 or lambda_d < 0:
        raise ValueError("rates must be non-negative")
    if t_r <= 0:
        raise ValueError("pool period must be positive")
    return 1.0 - math.exp(-(lambda_p + lambda_d) * t_r)


def activity_prob_alarm(scenario: AlarmScenario, geometry: CellGeometry,
                        traffic: RegularTrafficParams, t_r: float,
                        window: tuple[float, float] | None = None) -> float:
    """Population-average per-pool activity while an alarm event is in progress.

    Each station's arrival rate over the pool period covering the event is its
    regular rate plus the one-off excitation equal to its trigger probability;
    the activity probabilities are averaged over the cell. With an explicit
    `window` only stations whose trigger instant falls inside it contribute
    their excitation (a window without the event reduces to regular activity).
    """
    if t_r <= 0:
        raise ValueError("pool period must be positive")
    psi = scenario.trigger_probs(geometry)
    if window is not None:
        lo, hi = window
        hit = scenario.arrival_times(geometry)
        psi = np.where((hit >= lo) & (hit < hi), psi, 0.0)
    lam = traffic.total_rate * t_r + psi
    return float(np.mean(1.0 - np.exp(-lam)))


def activity_probs(traffic: RegularTrafficParams, t_r: float,
                   alarm: AlarmScenario | None = None,
                   geometry: CellGeometry | None = None) -> ActivityProbs:
    """Regular activity p_a0 and the alarm-regime activity p_a1 of `alarm`
    over `geometry`; without an alarm scenario p_a1 is p_a0."""
    p_a0 = activity_prob_regular(traffic.lambda_p, traffic.lambda_d, t_r)
    p_a1 = p_a0 if alarm is None else activity_prob_alarm(alarm, geometry, traffic, t_r)
    return ActivityProbs(p_a0=p_a0, p_a1=p_a1)


def collision_prob(p_a: float, omega: int) -> float:
    """Probability that two or more of the omega stations sharing a slot transmit."""
    if not 0 <= p_a <= 1:
        raise ValueError("activity probability must lie in [0, 1]")
    if omega < 1:
        raise ValueError("omega must be at least 1")
    q = 1.0 - p_a
    return 1.0 - q**omega - omega * p_a * q ** (omega - 1)


def no_singleton_placements(u: int, v: int) -> int:
    """Number of ways to place v labelled users into u slots with no slot
    holding exactly one user (exact integer arithmetic)."""
    if u < 0 or v < 0:
        raise ValueError("arguments must be non-negative")
    total = 0
    for t in range(v + 1):
        ff = 1
        for j in range(t):
            ff *= u - j
        total += (-1) ** t * math.comb(v, t) * ff * (u - t) ** (v - t)
    return total


def resolve_prob(h: int, m: int, l: int) -> float:
    """Probability that exactly h of m contenders pick a singleton slot when
    each chooses one of l slots uniformly at random."""
    if l < 1:
        raise ValueError("frame length must be at least 1")
    if h < 0 or m < 0:
        raise ValueError("counts must be non-negative")
    if h > m or h > l:
        raise ValueError("cannot resolve more users than contend or than slots exist")
    return _resolve_prob(h, m, l)


@functools.lru_cache(maxsize=1 << 16)
def _resolve_prob(h: int, m: int, l: int) -> float:
    """`resolve_prob` without the argument checks, computed once per (h, m, l)."""
    ff = 1
    for i in range(h):
        ff *= m - i
    num = math.comb(l, h) * ff * no_singleton_placements(l - h, m - h)
    # int / int is correctly rounded: the float of the exact fraction
    return num / l**m


@functools.lru_cache(maxsize=256)
def truncated_active_dist(omega: int, p_a: float) -> np.ndarray:
    """Distribution of the number of contenders in a collided slot.

    Entry m holds P(m active | >= 2 active) for the omega stations sharing the
    slot; entries 0 and 1 are zero. The array is cached per argument pair and
    read-only.
    """
    if omega < 2:
        raise ValueError("omega must be at least 2 for a collision to exist")
    if not 0 < p_a < 1:
        raise ValueError("activity probability must lie strictly in (0, 1)")
    m = np.arange(omega + 1)
    pmf = stats.binom.pmf(m, omega, p_a)
    pmf[:2] = 0.0
    z = pmf.sum()
    if z <= 0:
        raise ValueError("collision probability underflows to zero")
    dist = pmf / z
    dist.setflags(write=False)
    return dist


@functools.lru_cache(maxsize=4096)
def resolution_probs(omega: int, l1: int, l2: int, p_a: float) -> tuple[float, float]:
    """Probabilities that a collided slot is fully resolved by the first
    contention frame (r1) and, failing that, by the second frame (r2).
    Cached per argument tuple: they do not depend on the threshold, which a
    sweep varies at fixed frames."""
    pa = truncated_active_dist(omega, p_a)
    r1 = 0.0
    r2 = 0.0
    remaining = 1.0
    for m in range(2, omega + 1):
        w = pa[m]
        remaining -= w
        if w > 0.0:
            if m <= l1:
                r1 += _resolve_prob(m, m, l1) * w
            acc = 0.0
            for h in range(2, m + 1):
                if h <= l2 and m - h <= l1:
                    acc += _resolve_prob(h, h, l2) * _resolve_prob(m - h, m, l1)
            r2 += acc * w
        if remaining < _TAIL_EPS:
            break
    return r1, r2


def frame_chain_cost(omega: int, l1: int, l2: int, reach_l2, reach_dedicated):
    """Slots one collided slot spends contending through the frames l1, then
    l2, then the dedicated omega-slot frame: the first frame always, the
    others weighted by whether (or how likely) the slot reaches them. Reach
    1, 1 is the full escalation; per-group flag arrays give array costs."""
    return l1 + l2 * reach_l2 + omega * reach_dedicated


def expected_frame_cost(omega: int, l1: int, l2: int, r1: float, r2: float) -> float:
    """Expected slots spent resolving one collided slot: the second frame is
    reached only if the first fails, the dedicated frame only if both fail."""
    if not (0 <= r1 <= 1 and 0 <= r2 <= 1 and r1 + r2 <= 1 + 1e-12):
        raise ValueError("resolution probabilities must be in [0,1] with r1+r2 <= 1")
    return frame_chain_cost(omega, l1, l2, 1.0 - r1, 1.0 - (r1 + r2))


@functools.lru_cache(maxsize=1024)
def _conditional_collision_means(pool: int, p_c: float, delta_c: int,
                                 ) -> tuple[float, float, float, float]:
    """Masses and conditional means of the collided-slot count below / at-or-
    above the threshold. Returns (mass_below, mean_below, mass_above, mean_above);
    means are NaN when the conditioning event has zero probability. Cached per
    argument tuple: a frame search asks for the same figures once per
    candidate."""
    k = np.arange(pool + 1)
    pmf = stats.binom.pmf(k, pool, p_c)
    lo = slice(0, min(max(delta_c, 0), pool + 1))
    hi = slice(min(max(delta_c, 0), pool + 1), pool + 1)
    mass_lo = float(pmf[lo].sum())
    mass_hi = float(pmf[hi].sum())
    mean_lo = float((k[lo] * pmf[lo]).sum() / mass_lo) if mass_lo > 0 else float("nan")
    mean_hi = float((k[hi] * pmf[hi]).sum() / mass_hi) if mass_hi > 0 else float("nan")
    return mass_lo, mean_lo, mass_hi, mean_hi


def expected_costs(params: ProtocolParams, activity: ActivityProbs,
                   p_h1: float) -> AnalysisReport:
    """Assemble the full expected-cost report for one configuration.

    Cost identities per pool (slots), with K the conditional collided-slot
    count: contention-based resolution costs K*E[S] on top of the preallocated
    pool; a declared alarm expands every collided slot into a dedicated
    omega-slot frame; a missed alarm escalates through both contention frames
    before the dedicated frame.
    """
    if not 0 <= p_h1 <= 1:
        raise ValueError("alarm prior must lie in [0, 1]")
    pool = params.pool_size
    p_c_h0 = collision_prob(activity.p_a0, params.omega)
    p_c_h1 = collision_prob(activity.p_a1, params.omega)

    mass00, ek00, mass10, ek10 = _conditional_collision_means(pool, p_c_h0, params.delta_c)
    mass01, ek01, mass11, ek11 = _conditional_collision_means(pool, p_c_h1, params.delta_c)
    p00, p10, p01, p11 = mass00, mass10, mass01, mass11

    if params.omega >= 2 and 0 < activity.p_a0 < 1 and p_c_h0 > 0.0:
        r1, r2 = resolution_probs(params.omega, params.l1, params.l2, activity.p_a0)
        e_s = expected_frame_cost(params.omega, params.l1, params.l2, r1, r2)
    else:
        r1 = r2 = e_s = float("nan")

    def cost(e_k: float, per_collision: float) -> float:
        if math.isnan(e_k):
            return float("nan")
        if e_k == 0.0:
            return float(pool)
        return pool + e_k * per_collision

    e_c_00 = cost(ek00, e_s)
    e_c_10 = cost(ek10, params.omega)
    e_c_01 = cost(ek01, frame_chain_cost(params.omega, params.l1, params.l2, 1, 1))
    e_c_11 = cost(ek11, params.omega)

    # zero-probability decision branches carry no weight even though their
    # conditional cost is undefined
    def term(p: float, c: float) -> float:
        return 0.0 if p == 0.0 else p * c

    e_c = (1.0 - p_h1) * (term(p00, e_c_00) + term(p10, e_c_10)) \
        + p_h1 * (term(p01, e_c_01) + term(p11, e_c_11))

    return AnalysisReport(
        p_c_h0=p_c_h0, p_c_h1=p_c_h1,
        p_00=p00, p_10=p10, p_01=p01, p_11=p11,
        e_k_00=ek00, e_k_10=ek10, e_k_01=ek01, e_k_11=ek11,
        e_c_00=e_c_00, e_c_10=e_c_10, e_c_01=e_c_01, e_c_11=e_c_11,
        e_c=e_c, p_h1=p_h1, r1=r1, r2=r2, e_s=e_s)


def naive_expected_cost(params: ProtocolParams, activity: ActivityProbs,
                        p_h1: float) -> float:
    """Expected pool cost when every collided slot is always expanded into a
    dedicated omega-slot frame, with no threshold decision."""
    if not 0 <= p_h1 <= 1:
        raise ValueError("alarm prior must lie in [0, 1]")
    pool = params.pool_size
    p_c_h0 = collision_prob(activity.p_a0, params.omega)
    p_c_h1 = collision_prob(activity.p_a1, params.omega)
    cost_h0 = pool + pool * p_c_h0 * params.omega
    cost_h1 = pool + pool * p_c_h1 * params.omega
    return (1.0 - p_h1) * cost_h0 + p_h1 * cost_h1
