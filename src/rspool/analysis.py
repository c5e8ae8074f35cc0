"""Closed-form performance model of the two-part reservation pool: per-slot
collision probabilities, frame-slotted-ALOHA resolution probabilities, the
collision-count threshold test and the expected slot cost of every
decision/traffic combination."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
        if not (0 < self.t_r < math.inf and 0 < self.rs_duration < math.inf):
            raise ValueError("durations must be positive and finite")

    @property
    def pool_size(self) -> int:
        return math.ceil(self.n / self.omega)

    @property
    def collidable_groups(self) -> int:
        """Groups with two or more members. Every group but the last holds
        omega stations; the last holds one exactly when n % omega == 1."""
        if self.omega < 2:
            return 0
        return self.pool_size - (self.n % self.omega == 1)


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
    """All closed-form figures for one configuration (costs in slots). Given
    array `FrameFigures`, `cost_mix` fills the frame-dependent figures with
    arrays."""

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
    r1: float
    r2: float
    e_s: float


def activity_prob_regular(lambda_p: float, lambda_d: float, t_r: float) -> float:
    """Probability of at least one regular report arriving within one pool period."""
    if lambda_p < 0 or lambda_d < 0:
        raise ValueError("rates must be non-negative")
    if t_r <= 0:
        raise ValueError("pool period must be positive")
    return 1.0 - math.exp(-(lambda_p + lambda_d) * t_r)


def activity_prob_alarm(scenario: AlarmScenario, geometry: CellGeometry,
                        traffic: RegularTrafficParams, t_r: float) -> float:
    """Population-average per-pool activity while an alarm event is in progress.

    A station is active in the event's window if it holds a regular report
    (p_a0) or the event makes it report (its trigger probability psi), the
    two independent: 1 - (1 - p_a0)(1 - psi), which is linear in psi, so
    its cell average is 1 - (1 - p_a0)(1 - mean psi).
    """
    p_a0 = activity_prob_regular(traffic.lambda_p, traffic.lambda_d, t_r)
    psi = float(np.mean(scenario.trigger_probs(geometry)))
    return 1.0 - (1.0 - p_a0) * (1.0 - psi)


def activity_probs(traffic: RegularTrafficParams, t_r: float,
                   alarm: AlarmScenario | None = None,
                   geometry: CellGeometry | None = None) -> ActivityProbs:
    """Regular activity p_a0 and the alarm-regime activity p_a1 of `alarm`
    over `geometry`; without an alarm scenario p_a1 is p_a0."""
    p_a0 = activity_prob_regular(traffic.lambda_p, traffic.lambda_d, t_r)
    p_a1 = p_a0 if alarm is None else activity_prob_alarm(alarm, geometry, traffic, t_r)
    return ActivityProbs(p_a0=p_a0, p_a1=p_a1)


def _log1p_minus_x(x: float) -> float:
    """log(1 + x) - x for x > -1, accurate where the difference cancels:
    below |x| = 0.1 from its series, whose 16 terms reach double precision."""
    if abs(x) >= 0.1:
        return math.log1p(x) - x
    term, total = x, 0.0
    for k in range(2, 18):
        term *= -x
        total += term / k
    return total


def collision_prob(p_a: float, omega: int) -> float:
    """Probability that two or more of the omega stations sharing a slot transmit.

    That is 1 - (1 - p)^(omega-1) (1 + (omega-1) p). Its logarithm is
    log1p(m p) - m p + m (log1p(-p) + p) with m = omega - 1: two terms of the
    same sign, so nothing cancels even where the probability is far below
    the rounding error of 1."""
    if not 0 <= p_a <= 1:
        raise ValueError("activity probability must lie in [0, 1]")
    if omega < 1:
        raise ValueError("omega must be at least 1")
    if omega == 1 or p_a == 0.0:
        return 0.0
    if p_a == 1.0:
        return 1.0
    m = omega - 1
    return -math.expm1(_log1p_minus_x(m * p_a) + m * _log1p_minus_x(-p_a))


def _assoc_stirling(top: int) -> list[list[int]]:
    """S2(v, k) for v <= top: the partitions of v labelled contenders into k
    blocks of two or more, by S2(v+1, k) = k S2(v, k) + v S2(v-1, k-1)."""
    s2 = [[int(v == k == 0) for k in range(top // 2 + 1)] for v in range(top + 1)]
    for v in range(1, top):
        for k in range(1, (v + 1) // 2 + 1):
            s2[v + 1][k] = k * s2[v][k] + v * s2[v - 1][k - 1]
    return s2


def _no_singleton_counts(u: int, s2: list[list[int]]) -> list[int]:
    """N(u, v) for each row v of `s2`: the placements of v labelled
    contenders into u slots with no slot holding exactly one. Each of the k
    blocks of a partition takes a slot of its own, so in exact integers
    N(u, v) = sum_k perm(u, k) S2(v, k)."""
    perm = [math.perm(u, k) for k in range(len(s2[0]))]
    return [sum(map(int.__mul__, perm[:v // 2 + 1], row)) for v, row in enumerate(s2)]


@functools.lru_cache(maxsize=512)
def _survivor_table(l: int, top: int) -> np.ndarray:
    """T[m, s] = R(m - s | m, l), s <= m <= top: the probability that a frame
    of l slots leaves s of m contenders unresolved. Each entry is the exact
    count of such placements, C(l, j) perm(m, j) N(l - j, s) with j = m - s,
    over l**m. Cached read-only per (l, top)."""
    s2 = _assoc_stirling(top)
    table = np.zeros((top + 1, top + 1))
    for j in range(min(l, top) + 1):
        for s, n in enumerate(_no_singleton_counts(l - j, s2[:top - j + 1])):
            # int / int is correctly rounded: the float of the exact fraction
            table[j + s, s] = math.comb(l, j) * math.perm(j + s, j) * n / l**(j + s)
    table.setflags(write=False)
    return table


def _binom_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities of 0..n successes.

    Each term is exp(log C(n, k) + k log p + (n - k) log(1 - p)) with the
    binomial coefficient from log-gamma, so a term whose direct product p**k
    underflows still comes out finite. p = 0 and p = 1 are exact point
    masses; p outside [0, 1] gives NaN throughout.
    """
    k = np.arange(n + 1)
    if p == 0.0 or p == 1.0:
        return (k == (0 if p == 0.0 else n)).astype(float)
    if not 0.0 < p < 1.0:
        return np.full(n + 1, np.nan)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    return np.exp(log_fact[n] - log_fact - log_fact[::-1]
                  + k * math.log(p) + (n - k) * math.log1p(-p))


def truncated_active_dist(omega: int, p_a: float) -> np.ndarray:
    """Distribution of the number of contenders in a collided slot.

    Entry m holds P(m active | >= 2 active) for the omega stations sharing the
    slot; entries 0 and 1 are zero. The array ends at the first m whose
    remaining mass, which never rises with m, is below _TAIL_EPS (at omega at
    the latest).
    """
    if omega < 2:
        raise ValueError("omega must be at least 2 for a collision to exist")
    if not 0 < p_a < 1:
        raise ValueError("activity probability must lie strictly in (0, 1)")
    pmf = _binom_pmf(omega, p_a)
    pmf[:2] = 0.0
    z = pmf.sum()
    if z <= 0:
        raise ValueError("collision probability underflows to zero")
    dist = pmf / z
    return dist[:min(omega, int(np.count_nonzero(1.0 - np.cumsum(dist) >= _TAIL_EPS))) + 1]


def resolution_probs(omega: int, l1, l2, p_a: float):
    """Probabilities that a collided slot is fully resolved by the first
    contention frame, r1 = sum_m w_m R(m|m,l1), and failing that by the
    second, r2 = sum_{s>=2} R(s|s,l2) sum_m w_m R(m-s|m,l1), over the
    contender distribution w (`truncated_active_dist`, cut at its tail).
    Takes one frame pair or equal-length integer arrays of pairs: one pass
    over the survivor tables of their distinct lengths."""
    w = truncated_active_dist(omega, p_a)
    frames = np.array([l1, l2])
    lengths = np.unique(frames)
    tables = np.stack([_survivor_table(l, w.size - 1) for l in lengths.tolist()])
    # left[i, s]: probability that a first frame of lengths[i] leaves s unresolved
    left = w @ tables
    i1, i2 = np.searchsorted(lengths, frames)
    return left[i1, 0], np.sum(left[i1, 2:] * tables[i2, 2:, 0], axis=-1)


def frame_chain_cost(omega: int, l1: int, l2: int, reach_l2, reach_dedicated):
    """Slots one collided slot spends contending through the frames l1, then
    l2, then the dedicated omega-slot frame: the first frame always, the
    others weighted by whether (or how likely) the slot reaches them. Reach
    1, 1 is the full escalation; per-group flag arrays give array costs."""
    return l1 + l2 * reach_l2 + omega * reach_dedicated


@functools.lru_cache(maxsize=1024)
def _conditional_collision_means(pool: int, p_c: float, delta_c: int,
                                 ) -> tuple[float, float, float, float]:
    """Masses and conditional means of the collided-slot count below / at-or-
    above the threshold. Returns (mass_below, mean_below, mass_above, mean_above);
    the masses are divided by their sum, which the pmf meets only within
    rounding, so neither exceeds 1. Means are NaN when the conditioning event
    has zero probability. Cached per argument tuple."""
    k = np.arange(pool + 1)
    pmf = _binom_pmf(pool, p_c)
    lo = slice(0, min(max(delta_c, 0), pool + 1))
    hi = slice(min(max(delta_c, 0), pool + 1), pool + 1)
    mass_lo = float(pmf[lo].sum())
    mass_hi = float(pmf[hi].sum())
    mean_lo = float((k[lo] * pmf[lo]).sum() / mass_lo) if mass_lo > 0 else float("nan")
    mean_hi = float((k[hi] * pmf[hi]).sum() / mass_hi) if mass_hi > 0 else float("nan")
    total = mass_lo + mass_hi
    return mass_lo / total, mean_lo, mass_hi / total, mean_hi


def _branch_cost(pool: int, e_k: float, per_collision):
    """Pool cost of a branch whose collided slots (E[K] = e_k) each cost
    `per_collision` slots; undefined (NaN) where the branch has no mass."""
    if math.isnan(e_k):
        return float("nan")
    if e_k == 0.0:
        return float(pool)
    return pool + e_k * per_collision


def _weighted(p: float, c):
    """A branch's share of the mix: zero-probability decision branches carry
    no weight even though their conditional cost is undefined."""
    return 0.0 if p == 0.0 else p * c


@dataclass(frozen=True)
class FrameFigures:
    """Frame pairs with the figures they alone set at a group size and
    regular activity: the resolution probabilities r1, r2 and the expected
    frame cost E[S] of a regular-regime collided slot, NaN where no such
    slot has a contender distribution. Scalars for one pair, equal-length
    arrays for several."""

    l1: int | np.ndarray
    l2: int | np.ndarray
    r1: float | np.ndarray
    r2: float | np.ndarray
    e_s: float | np.ndarray

    def take(self, index) -> FrameFigures:
        """The pairs at `index` (a mask or a position) of array figures."""
        return FrameFigures(*(x[index] for x in
                              (self.l1, self.l2, self.r1, self.r2, self.e_s)))


def frame_figures(omega: int, l1, l2, p_a0: float) -> FrameFigures:
    """The threshold-independent part of `expected_costs`: r1, r2 and E[S]
    (slots spent on one collided slot, each frame reached only if the ones
    before it fail) of the pair (l1, l2), or of equal-length integer arrays
    of pairs in one `resolution_probs` pass. They exist only where a
    regular-regime collided slot has a contender distribution (NaN
    elsewhere, in an array of the pairs' shape for array frames)."""
    if omega >= 2 and 0 < p_a0 < 1 and collision_prob(p_a0, omega) > 0.0:
        r1, r2 = resolution_probs(omega, l1, l2, p_a0)
        if not np.all((0 <= r1) & (r1 <= 1) & (0 <= r2) & (r2 <= 1)
                      & (r1 + r2 <= 1 + 1e-12)):
            raise ValueError("resolution probabilities must be in [0,1] with r1+r2 <= 1")
        e_s = frame_chain_cost(omega, l1, l2, 1.0 - r1, 1.0 - (r1 + r2))
    else:
        r1 = r2 = e_s = np.full(np.shape(l1), np.nan) if np.ndim(l1) else float("nan")
    return FrameFigures(l1, l2, r1, r2, e_s)


def cost_mix(params: ProtocolParams, activity: ActivityProbs, p_h1: float,
             figures: FrameFigures) -> AnalysisReport:
    """The report of `expected_costs` from the `frame_figures` of its frames:
    the threshold masses and conditional means of both hypotheses, the cost
    of each branch and their mix (slots per pool).

    With K the conditional collided-slot count of a (hypothesis, decision)
    branch: contention-based resolution costs K*E[S] on top of the
    preallocated pool; a missed alarm escalates through both contention
    frames before the dedicated frame; a declared alarm expands every
    collided slot into a dedicated omega-slot frame. Array figures give an
    array for each figure the frames change (r1, r2, e_s, e_c_00, e_c_01
    and e_c)."""
    if not 0 <= p_h1 <= 1:
        raise ValueError("alarm prior must lie in [0, 1]")
    l1, l2, r1, r2, e_s = figures.l1, figures.l2, figures.r1, figures.r2, figures.e_s
    pool, omega = params.pool_size, params.omega
    p_c_h0 = collision_prob(activity.p_a0, omega)
    p_c_h1 = collision_prob(activity.p_a1, omega)
    p00, ek00, p10, ek10 = _conditional_collision_means(pool, p_c_h0, params.delta_c)
    p01, ek01, p11, ek11 = _conditional_collision_means(pool, p_c_h1, params.delta_c)
    e_c_00 = _branch_cost(pool, ek00, e_s)
    e_c_10 = _branch_cost(pool, ek10, omega)
    e_c_01 = _branch_cost(pool, ek01, frame_chain_cost(omega, l1, l2, 1, 1))
    e_c_11 = _branch_cost(pool, ek11, omega)
    e_c = (1.0 - p_h1) * (_weighted(p00, e_c_00) + _weighted(p10, e_c_10)) \
        + p_h1 * (_weighted(p01, e_c_01) + _weighted(p11, e_c_11))
    if np.ndim(l1):  # a branch without a frame term (E[K] zero or NaN) costs one number
        e_c_00, e_c_01, e_c = (x if np.ndim(x) else np.broadcast_to(x, np.shape(l1))
                               for x in (e_c_00, e_c_01, e_c))
    return AnalysisReport(
        p_c_h0=p_c_h0, p_c_h1=p_c_h1, p_00=p00, p_10=p10, p_01=p01, p_11=p11,
        e_k_00=ek00, e_k_10=ek10, e_k_01=ek01, e_k_11=ek11,
        e_c_00=e_c_00, e_c_10=e_c_10, e_c_01=e_c_01, e_c_11=e_c_11,
        e_c=e_c, p_h1=p_h1, r1=r1, r2=r2, e_s=e_s)


def expected_costs(params: ProtocolParams, activity: ActivityProbs,
                   p_h1: float) -> AnalysisReport:
    """The full expected-cost report for one configuration (slots per pool):
    `cost_mix` over the `frame_figures` of the params' own frames. Arrays
    of candidate pairs go through `frame_figures` and `cost_mix` directly,
    as the optimizer's frame table does."""
    return cost_mix(params, activity, p_h1,
                    frame_figures(params.omega, params.l1, params.l2, activity.p_a0))
