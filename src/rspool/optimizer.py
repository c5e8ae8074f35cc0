"""Exhaustive design-space search over the pool parameters: group size,
collision threshold and contention frame lengths."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import analysis, simulator
from .analysis import ActivityProbs, ProtocolParams, frames_for
from .simulator import AlarmProcess, GroupAssignment, InfeasibleConfigError, Mode
from .traffic import AlarmScenario, CellGeometry, Deadlines, RegularTrafficParams

DEFAULT_OMEGAS = (1, 10, 20, 30, 40, 50, 60, 80, 100, 150, 200)
DEFAULT_DELTA_C_PCTS = (10.0, 25.0, 50.0, 75.0, 90.0)
FRACTION_STEPS = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass(frozen=True)
class SweepBase:
    """Fixed scenario context a sweep runs against."""

    geometry: CellGeometry
    traffic: RegularTrafficParams
    deadlines: Deadlines
    t_r: float
    rs_duration: float
    p_h1: float
    alarm: AlarmScenario | None = None

    def activity(self) -> ActivityProbs:
        return self._activity

    @functools.cached_property
    def _activity(self) -> ActivityProbs:
        """The activity depends only on the fixed fields, so a search computes
        it once rather than once per candidate."""
        return analysis.activity_probs(self.traffic, self.t_r, self.alarm,
                                       self.geometry)


@dataclass(frozen=True)
class SweepGrid:
    omega_values: tuple[int, ...] = DEFAULT_OMEGAS
    delta_c_pcts: tuple[float, ...] = DEFAULT_DELTA_C_PCTS
    l1_frac: float | str = 0.6
    l2_frac: float | str = 0.4
    simulate_pools: int = 0  # pools per grid point; 0 = analytical only

    def __post_init__(self):
        if not self.omega_values or not self.delta_c_pcts:
            raise ValueError("grid axes must be non-empty")
        if self.simulate_pools < 0:
            raise ValueError("simulated pool count cannot be negative")
        search = self.l1_frac == "search" or self.l2_frac == "search"
        if search and (self.l1_frac != "search" or self.l2_frac != "search"):
            raise ValueError("frame fractions must be searched together")


@dataclass
class SweepRow:
    omega: int
    delta_c_pct: float
    l1: int
    l2: int
    feasible: bool
    e_c_analytical: float = float("nan")
    e_c_simulated: float = float("nan")
    e_c_simulated_stderr: float = float("nan")
    p11: float = float("nan")
    p10: float = float("nan")

    def selected_cost(self, simulated: bool) -> float:
        return self.e_c_simulated if simulated else self.e_c_analytical


@dataclass
class SweepResult:
    rows: list[SweepRow]
    argmin: SweepRow
    simulated: bool = False


def _params(base: SweepBase, omega: int, delta_c_pct: float,
            l1: int, l2: int) -> ProtocolParams:
    n = base.geometry.n_stations
    return ProtocolParams(n=n, omega=omega,
                          delta_c=analysis.delta_c_from_pct(
                              delta_c_pct, math.ceil(n / omega)),
                          l1=l1, l2=l2, t_r=base.t_r,
                          rs_duration=base.rs_duration)


def _evaluate_point(base: SweepBase, omega: int, delta_c_pct: float,
                    l1: int, l2: int, simulate_pools: int,
                    seed) -> SweepRow:
    try:
        params = _params(base, omega, delta_c_pct, l1, l2)
        assignment = GroupAssignment(n=params.n, omega=omega)
        simulator.validate_deadline(params, assignment, base.deadlines, Mode.ADAPTIVE)
    except (ValueError, InfeasibleConfigError):
        return SweepRow(omega=omega, delta_c_pct=delta_c_pct, l1=l1, l2=l2,
                        feasible=False)

    activity = base.activity()
    report = analysis.expected_costs(params, activity, base.p_h1)
    row = SweepRow(omega=omega, delta_c_pct=delta_c_pct, l1=l1, l2=l2,
                   feasible=True, e_c_analytical=report.e_c,
                   p11=report.p_11, p10=report.p_10)

    if simulate_pools > 0:
        process = None
        if base.alarm is not None and base.p_h1 > 0:
            process = AlarmProcess(prob_per_pool=base.p_h1, template=base.alarm)
        stats = simulator.run_scenario(
            base.geometry, params, base.traffic, base.deadlines, alarms=[],
            horizon=simulate_pools * base.t_r, mode=Mode.ADAPTIVE, seed=seed,
            alarm_process=process)
        row.e_c_simulated = stats.mean_rs_per_pool
        row.e_c_simulated_stderr = stats.stderr_rs_per_pool
    return row


def optimize_frame_fractions(base: SweepBase, omega: int, delta_c_pct: float,
                             steps=FRACTION_STEPS) -> tuple[float, float]:
    """Pick the frame-length fractions minimising the analytical cost, with
    the second frame never longer than the first.

    Fraction pairs that round to the same frames cost the same, so each
    distinct (l1, l2) is evaluated once, under the first pair that reaches
    it; ties keep the first minimum in grid order."""
    candidates: dict[tuple[int, int], tuple[float, float]] = {}
    for f1 in steps:
        for f2 in steps:
            if f2 <= f1:
                candidates.setdefault(frames_for(omega, f1, f2), (f1, f2))
    best = (float("inf"), 0.6, 0.4)
    for (l1, l2), (f1, f2) in candidates.items():
        row = _evaluate_point(base, omega, delta_c_pct, l1, l2, 0, None)
        if row.feasible and row.e_c_analytical < best[0]:
            best = (row.e_c_analytical, f1, f2)
    return best[1], best[2]


def _searched_frames(base: SweepBase, omega: int, delta_c_pct: float) -> tuple[int, int]:
    return frames_for(omega, *optimize_frame_fractions(base, omega, delta_c_pct))


def sweep(grid: SweepGrid, base: SweepBase, seed=None) -> SweepResult:
    """Evaluate the expected pool cost and detection probabilities over the
    grid; returns all rows plus the cheapest feasible configuration (ties go
    to the smaller group size, then the smaller threshold)."""
    simulated = grid.simulate_pools > 0
    if simulated and seed is None:
        raise ValueError("simulated sweeps need a seed")
    if simulated:
        ss = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(seed)
        seeds = iter(ss.spawn(len(grid.omega_values) * len(grid.delta_c_pcts)))
    else:
        seeds = None

    rows: list[SweepRow] = []
    for omega in sorted(grid.omega_values):
        for pct in sorted(grid.delta_c_pcts):
            if grid.l1_frac == "search":
                l1, l2 = _searched_frames(base, omega, pct)
            else:
                l1, l2 = frames_for(omega, float(grid.l1_frac), float(grid.l2_frac))
            point_seed = next(seeds) if seeds is not None else None
            rows.append(_evaluate_point(base, omega, pct, l1, l2,
                                        grid.simulate_pools, point_seed))

    feasible = [r for r in rows if r.feasible
                and not math.isnan(r.selected_cost(simulated))]
    if not feasible:
        raise InfeasibleConfigError("every grid point is infeasible")
    argmin = min(feasible,
                 key=lambda r: (r.selected_cost(simulated), r.omega, r.delta_c_pct))
    return SweepResult(rows=rows, argmin=argmin, simulated=simulated)


@dataclass
class NaiveComparisonRow:
    omega: int
    e_c_adaptive: float
    e_c_naive: float


@dataclass
class NaiveComparison:
    rows: list[NaiveComparisonRow]
    min_adaptive: float
    min_naive: float

    @property
    def min_ratio(self) -> float:
        return self.min_naive / self.min_adaptive


def compare_naive(base: SweepBase, omega_values=DEFAULT_OMEGAS,
                  delta_c_pct: float = 50.0) -> NaiveComparison:
    """Analytical cost of the adaptive scheme versus always expanding every
    collided slot into a dedicated frame, across group sizes.

    The adaptive side runs at the frames a searched sweep picks at the same
    (omega, delta_c), so each row's adaptive cost is that sweep row's cost;
    group sizes the sweep flags infeasible get no row."""
    activity = base.activity()
    rows: list[NaiveComparisonRow] = []
    for omega in sorted(omega_values):
        l1, l2 = _searched_frames(base, omega, delta_c_pct)
        adaptive = _evaluate_point(base, omega, delta_c_pct, l1, l2, 0, None)
        if not adaptive.feasible:
            continue
        naive = analysis.naive_expected_cost(
            _params(base, omega, delta_c_pct, l1, l2), activity, base.p_h1)
        rows.append(NaiveComparisonRow(omega=omega,
                                       e_c_adaptive=adaptive.e_c_analytical,
                                       e_c_naive=naive))
    if not rows:
        raise InfeasibleConfigError("every group size is infeasible")
    return NaiveComparison(rows=rows,
                           min_adaptive=min(r.e_c_adaptive for r in rows),
                           min_naive=min(r.e_c_naive for r in rows))
