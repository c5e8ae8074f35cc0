"""Report-arrival modelling: station placement, regular Poisson reporting,
propagating alarm events, their spatial correlation and activation curves."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import optimize, special


class ReportKind(Enum):
    PERIODIC = "periodic"
    ON_DEMAND = "on_demand"
    ALARM = "alarm"


@dataclass(frozen=True)
class CellGeometry:
    """Fixed station placement inside a circular cell, access point at the origin."""

    radius_m: float
    positions: np.ndarray  # shape (n, 2), metres

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ValueError("cell radius must be positive")
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be a non-empty (n, 2) array")
        d = np.hypot(pos[:, 0], pos[:, 1])
        if np.any(d > self.radius_m * (1 + 1e-12)):
            raise ValueError("all stations must lie inside the cell radius")
        object.__setattr__(self, "positions", pos)

    @property
    def n_stations(self) -> int:
        return self.positions.shape[0]

    def distances_to(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        return np.hypot(self.positions[:, 0] - p[0], self.positions[:, 1] - p[1])


@dataclass(frozen=True)
class RegularTrafficParams:
    """Per-station regular reporting: periodic (rate 1/t_ri) plus on-demand."""

    lambda_p: float  # reports/s
    lambda_d: float  # reports/s
    t_ri: float      # s, periodic reporting interval

    def __post_init__(self):
        if self.lambda_p <= 0 or self.t_ri <= 0:
            raise ValueError("periodic rate and reporting interval must be positive")
        if not self.lambda_d >= 0:
            raise ValueError("on-demand rate must be non-negative")
        if abs(self.lambda_p * self.t_ri - 1.0) > 1e-9:
            raise ValueError("lambda_p must equal 1/t_ri")

    @classmethod
    def from_reporting_interval(cls, t_ri: float, lambda_d: float = 0.0) -> "RegularTrafficParams":
        if not t_ri > 0:
            raise ValueError("periodic reporting interval must be positive")
        return cls(lambda_p=1.0 / t_ri, lambda_d=lambda_d, t_ri=t_ri)

    @property
    def total_rate(self) -> float:
        return self.lambda_p + self.lambda_d


@dataclass(frozen=True)
class Deadlines:
    """Maximum tolerated report age per kind; reports older than this are dropped."""

    tau_a: float
    tau_d: float
    tau_p: float

    def __post_init__(self):
        if not (0 < self.tau_a < self.tau_d <= self.tau_p):
            raise ValueError("deadlines must satisfy tau_a < tau_d <= tau_p, all positive")

    def for_kind(self, kind: ReportKind) -> float:
        if kind is ReportKind.ALARM:
            return self.tau_a
        if kind is ReportKind.ON_DEMAND:
            return self.tau_d
        return self.tau_p


@dataclass(frozen=True)
class UnitCorrelation:
    """Every station is affected by the event, regardless of distance."""

    def factor(self, d):
        return np.ones_like(np.asarray(d, dtype=float))


@dataclass(frozen=True)
class ExpDecayCorrelation:
    """Trigger probability decaying as exp(-a*d) with distance d from the epicenter."""

    a: float  # 1/m

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("decay constant must be positive")

    def factor(self, d):
        with np.errstate(over="ignore"):  # a * d past the float range: exp gives 0
            return np.exp(-self.a * np.asarray(d, dtype=float))


@dataclass(frozen=True)
class SqrtCapCorrelation:
    """Trigger probability sqrt(d_max^2 - d^2)/d_max up to a hard reach d_max.

    The sqrt profile is normalised by d_max so the value at the epicenter is 1
    and the factor is a valid probability.
    """

    d_max: float  # m

    def __post_init__(self):
        if not (self.d_max > 0 and math.isfinite(self.d_max * self.d_max)):
            raise ValueError("d_max must be positive, with a finite square")

    def factor(self, d):
        d = np.asarray(d, dtype=float)
        inside = self.d_max**2 - np.minimum(d, self.d_max) ** 2
        return np.where(d <= self.d_max, np.sqrt(inside) / self.d_max, 0.0)


CorrelationModel = UnitCorrelation | ExpDecayCorrelation | SqrtCapCorrelation


class AlarmTimeError(ValueError):
    """An alarm front reaches some station at a non-finite time."""


@dataclass(frozen=True)
class AlarmScenario:
    """A physical event at `epicenter` propagating radially with speed v from time t_a.

    A station at distance d is reached at t_a + d/v and is triggered with
    probability given by the correlation model.
    """

    epicenter: tuple[float, float]
    v: float    # m/s
    t_a: float  # s
    correlation: CorrelationModel = field(default_factory=UnitCorrelation)

    def __post_init__(self):
        if not 0 < self.v < math.inf:
            raise ValueError("propagation speed must be positive and finite")
        if not math.isfinite(self.t_a):
            raise ValueError("event time must be finite")

    def arrival_times(self, geometry: CellGeometry) -> np.ndarray:
        """Instant at which the event front reaches each station."""
        with np.errstate(over="ignore"):
            times = self.t_a + geometry.distances_to(self.epicenter) / self.v
        if not np.isfinite(times).all():
            raise AlarmTimeError(
                "the alarm front reaches a station at a non-finite time "
                "(event time too large or propagation speed too small)")
        return times

    def trigger_probs(self, geometry: CellGeometry) -> np.ndarray:
        return self.correlation.factor(geometry.distances_to(self.epicenter))


@dataclass(frozen=True)
class ActivationCurve:
    """New alarm activations per time bin, bins anchored at the event time."""

    bin_width: float
    counts: np.ndarray
    start_s: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=int)
        if self.bin_width <= 0:
            raise ValueError("bin width must be positive")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def nonzero_span(self) -> float:
        """Width of the window from the first to the last non-empty bin."""
        nz = np.nonzero(self.counts)[0]
        if nz.size == 0:
            return 0.0
        return float((nz[-1] - nz[0] + 1) * self.bin_width)


@dataclass(frozen=True)
class BetaFit:
    alpha: float
    beta: float
    t_span: float
    residual: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0 or self.t_span <= 0:
            raise ValueError("fitted shape parameters and span must be positive")


def place_stations(n: int, r: float, seed) -> CellGeometry:
    """Draw n station positions i.i.d. uniform over the disk of radius r."""
    if n < 1:
        raise ValueError("need at least one station")
    if r <= 0:
        raise ValueError("cell radius must be positive")
    rng = np.random.default_rng(seed)
    # uniform over the disk: radial CDF d^2/r^2
    d = r * np.sqrt(rng.random(n))
    phi = 2 * math.pi * rng.random(n)
    return CellGeometry(radius_m=r, positions=np.column_stack((d * np.cos(phi), d * np.sin(phi))))


def activation_curve(geometry: CellGeometry, scenario: AlarmScenario,
                     bin_width: float, seed) -> ActivationCurve:
    """Histogram of alarm activations over time for one event realisation.

    Each station is triggered with its spatial correlation probability at the
    instant the event front passes it.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    rng = np.random.default_rng(seed)
    probs = scenario.trigger_probs(geometry)
    times = scenario.arrival_times(geometry)
    triggered = rng.random(geometry.n_stations) < probs
    t_hit = times[triggered]
    if t_hit.size == 0:
        return ActivationCurve(bin_width=bin_width, counts=np.zeros(1, dtype=int),
                               start_s=scenario.t_a)
    idx = np.floor((t_hit - scenario.t_a) / bin_width).astype(int)
    counts = np.bincount(idx, minlength=int(idx.max()) + 1)
    return ActivationCurve(bin_width=bin_width, counts=counts, start_s=scenario.t_a)


def beta_pdf(t, alpha: float, beta: float, t_span: float):
    """Density of the bounded-support activation-time model on [0, t_span]."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t >= 0) & (t <= t_span)
    ti = t[inside]
    norm = t_span ** (alpha + beta - 1) * special.beta(alpha, beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = ti ** (alpha - 1) * (t_span - ti) ** (beta - 1) / norm
    out[inside] = np.nan_to_num(vals, nan=0.0, posinf=0.0)
    return out


def _moment_guess(centers: np.ndarray, weights: np.ndarray, t_span: float) -> tuple[float, float]:
    m1 = float(np.sum(centers * weights))
    var = float(np.sum((centers - m1) ** 2 * weights))
    mu = min(max(m1 / t_span, 1e-3), 1 - 1e-3)
    var = max(var, 1e-12)
    s = mu * (1 - mu) * t_span**2 / var - 1
    s = max(s, 0.5)
    return max(mu * s, 0.2), max((1 - mu) * s, 0.2)


def fit_beta(curve: ActivationCurve) -> BetaFit:
    """Least-squares fit of the bounded activation-time density to a curve.

    The span is fixed to the observed activation window (first to last
    non-empty bin); shape parameters are fitted to the normalised histogram,
    starting from a method-of-moments guess.
    """
    counts = curve.counts.astype(float)
    nz = np.nonzero(counts)[0]
    if nz.size < 2:
        raise ValueError("activation curve is degenerate (fewer than two non-empty bins); "
                         "shape parameters cannot be fitted")
    first, last = nz[0], nz[-1]
    counts = counts[first:last + 1]
    t_span = curve.nonzero_span()
    w = curve.bin_width
    centers = (np.arange(counts.size) + 0.5) * w
    density = counts / (counts.sum() * w)
    weights = counts / counts.sum()

    a0, b0 = _moment_guess(centers, weights, t_span)
    try:
        popt, _ = optimize.curve_fit(
            lambda t, a, b: beta_pdf(t, a, b, t_span),
            centers, density, p0=(a0, b0),
            bounds=((1e-3, 1e-3), (1e3, 1e3)), maxfev=20000)
        alpha, beta = float(popt[0]), float(popt[1])
    except RuntimeError:
        alpha, beta = a0, b0
    resid = float(np.sum((beta_pdf(centers, alpha, beta, t_span) - density) ** 2) * w)
    return BetaFit(alpha=alpha, beta=beta, t_span=t_span, residual=resid)

