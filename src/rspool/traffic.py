"""Report-arrival modelling: station placement, regular Poisson reporting,
propagating alarm events, their spatial correlation and activation curves."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class ReportKind(Enum):
    PERIODIC = "periodic"
    ON_DEMAND = "on_demand"
    ALARM = "alarm"


@dataclass(frozen=True)
class CellGeometry:
    """Fixed station placement inside a circular cell, access point at the origin."""

    radius_m: float
    positions: np.ndarray  # shape (n, 2), metres
    _distances: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.radius_m < math.inf:
            raise ValueError("cell radius must be positive and finite")
        pos = np.asarray(self.positions, dtype=float).view()
        pos.flags.writeable = False  # a read-only view: the kept distances stay valid
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be a non-empty (n, 2) array")
        # |p| <= r (1 + 1e-12), compared squared in units of r: no square
        # root, and no radius too large or small to square; a station far
        # enough out to overflow the square is outside all the same, and a
        # NaN coordinate fails the test without being outside
        with np.errstate(over="ignore"):
            u = pos / self.radius_m
            np.square(u, out=u)
        norm2 = np.add(u[:, 0], u[:, 1], out=u[:, 0])
        if not np.all(norm2 <= (1 + 1e-12) ** 2):
            if np.any(norm2 > (1 + 1e-12) ** 2):
                raise ValueError("all stations must lie inside the cell radius")
            raise ValueError("station positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n_stations(self) -> int:
        return self.positions.shape[0]

    def distances_to(self, point) -> np.ndarray:
        """Each station's distance to `point`, kept read-only for the last
        point: every caller for one epicentre shares one pass."""
        p = tuple(np.asarray(point, dtype=float).tolist())
        if self._distances[0] != p:
            # sqrt(dx^2 + dy^2), each difference scaled by 2**-k first, with
            # the point and the cell within 2**(k - 1) of the origin; k is
            # clamped so that 2**k and 2**-k are normal. No scaled
            # difference reaches 8, so no square overflows, and a distance
            # above 2**(k - 500) squares to a normal number. A power of two
            # changes no digit of the result
            k = min(max(math.frexp(max(abs(p[0]), abs(p[1]), self.radius_m))[1] + 1,
                        -1022), 1022)
            scale = 2.0 ** -k
            d = np.subtract(self.positions[:, 0], p[0])
            dy = np.subtract(self.positions[:, 1], p[1])
            d *= scale
            dy *= scale
            np.square(d, out=d)
            np.square(dy, out=dy)
            d += dy
            np.sqrt(d, out=d)
            d *= 2.0 ** k
            d.flags.writeable = False
            object.__setattr__(self, "_distances", (p, d))
        return self._distances[1]


@dataclass(frozen=True)
class RegularTrafficParams:
    """Per-station regular reporting: periodic (rate 1/t_ri) plus on-demand."""

    t_ri: float            # s, periodic reporting interval
    lambda_d: float = 0.0  # reports/s

    def __post_init__(self):
        # a finite interval whose reciprocal overflows (1e-320) has no rate
        if not (0 < self.t_ri < math.inf and 1.0 / self.t_ri < math.inf):
            raise ValueError("periodic reporting interval must be positive and "
                             "finite, with a finite rate")
        if not self.lambda_d >= 0:
            raise ValueError("on-demand rate must be non-negative")

    @property
    def lambda_p(self) -> float:
        """Periodic report rate, reports/s."""
        return 1.0 / self.t_ri

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
        # a normal tau_a keeps the delay histogram's bin, tau_a / 100, above 0
        if not (sys.float_info.min <= self.tau_a < self.tau_d <= self.tau_p):
            raise ValueError("deadlines must satisfy tau_a < tau_d <= tau_p, all "
                             "positive, tau_a not subnormal")

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
        # fmin clamps a NaN distance to d_max too: 0 beyond the reach
        return np.sqrt(self.d_max**2 - np.fmin(d, self.d_max) ** 2) / self.d_max


CorrelationModel = UnitCorrelation | ExpDecayCorrelation | SqrtCapCorrelation


class AlarmTimeError(ValueError):
    """An alarm front reaches a station at a non-finite time, or its
    activation histogram has no usable bin width or passes 2**53 bins."""
    category = "config-invalid"


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


def child_seed(seed, i: int) -> np.random.SeedSequence:
    """Child `i` of `seed` (an int or a SeedSequence) as `spawn` gives it, but
    built: `spawn` advances the caller's object, so a second call differs."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                  pool_size=ss.pool_size)


def place_stations(n: int, r: float, seed) -> CellGeometry:
    """Draw n station positions i.i.d. uniform over the disk of radius r."""
    if n < 1:
        raise ValueError("need at least one station")
    if not 0 < r < math.inf:
        raise ValueError("cell radius must be positive and finite")
    rng = np.random.default_rng(seed)
    # uniform over the disk: radial CDF d^2/r^2
    d = np.sqrt(rng.random(n))
    d *= r
    # the angle 2 pi u through its half-angle tangent t = tan(pi u):
    # cos = (1 - t^2) / (1 + t^2) and sin = 2t / (1 + t^2); numpy's tan is
    # vectorised where its cos and sin call libm once per station. |t| is
    # largest at u = 1/2, where it is tan(math.pi / 2) = 1.6e16, so t^2 is
    # finite. Both quotients are at most 1 in magnitude before d multiplies
    # them: no product overflows, and none underflows for a tiny radius
    t = rng.random(n)
    t *= math.pi
    np.tan(t, out=t)
    positions = np.empty((n, 2), order="F")  # contiguous columns
    x, y = positions[:, 0], positions[:, 1]
    np.square(t, out=x)
    w = x + 1.0
    np.subtract(1.0, x, out=x)
    x /= w
    x *= d
    np.multiply(t, 2.0, out=y)
    y /= w
    y *= d
    return CellGeometry(radius_m=r, positions=positions)


def activation_curve(geometry: CellGeometry, scenario: AlarmScenario,
                     seed) -> ActivationCurve:
    """Histogram of alarm activations over time for one event realisation.

    Each station is triggered with its spatial correlation probability at the
    instant the event front passes it. A bin is 1/50 of the time the front
    takes to cross the cell radius, so an epicentre inside the cell, at most
    two radii from any station, spans at most 100 bins.
    """
    probs = scenario.trigger_probs(geometry)
    times = scenario.arrival_times(geometry)
    bin_width = geometry.radius_m / (50 * scenario.v)
    if not 0 < bin_width < math.inf:
        raise AlarmTimeError(
            f"the activation bin, 1/50 of the front's {geometry.radius_m:g} m / "
            f"{scenario.v:g} m/s crossing time, is not a positive finite width")
    rng = np.random.default_rng(seed)
    triggered = rng.random(geometry.n_stations) < probs
    t_hit = times[triggered]
    if t_hit.size == 0:
        return ActivationCurve(bin_width=bin_width, counts=np.zeros(1, dtype=int),
                               start_s=scenario.t_a)
    idx = np.floor((t_hit - scenario.t_a) / bin_width)
    if not idx.max() < 2**53:
        raise AlarmTimeError(f"activations span {idx.max():g} bins of {bin_width:g} s")
    counts = np.bincount(idx.astype(int))
    return ActivationCurve(bin_width=bin_width, counts=counts, start_s=scenario.t_a)


def beta_pdf(t, alpha: float, beta: float, t_span: float):
    """Density of the bounded-support activation-time model on [0, t_span]."""
    from scipy import special  # imported here: only `rspool traffic` needs scipy

    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t >= 0) & (t <= t_span)
    # in normalised time x = t / t_span: no power of t_span, so a window
    # longer than a second and large shapes give a finite density
    x = t[inside] / t_span
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = x ** (alpha - 1) * (1 - x) ** (beta - 1) / (t_span * special.beta(alpha, beta))
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
    from scipy import optimize  # imported here: only `rspool traffic` needs scipy

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

    # the fit works in seconds: a window whose square overflows cannot be
    # fitted
    try:
        with np.errstate(over="raise"):
            a0, b0 = _moment_guess(centers, weights, t_span)
            try:
                with warnings.catch_warnings():  # the covariance it warns about is discarded
                    warnings.simplefilter("ignore", optimize.OptimizeWarning)
                    popt, _ = optimize.curve_fit(
                        lambda t, a, b: beta_pdf(t, a, b, t_span),
                        centers, density, p0=(a0, b0),
                        bounds=((1e-3, 1e-3), (1e3, 1e3)), maxfev=20000)
                alpha, beta = float(popt[0]), float(popt[1])
            except RuntimeError:
                alpha, beta = a0, b0
            resid = float(np.sum((beta_pdf(centers, alpha, beta, t_span) - density) ** 2) * w)
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"the {t_span:g} s activation window overflows the fit; "
                         "shape parameters cannot be fitted") from exc
    return BetaFit(alpha=alpha, beta=beta, t_span=t_span, residual=resid)

