"""Exhaustive design-space search over the pool parameters: group size,
collision threshold and contention frame lengths."""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, simulator
from .analysis import ActivityProbs, ProtocolParams, frames_for
from .simulator import AlarmProcess, InfeasibleConfigError
from .traffic import AlarmScenario, CellGeometry, Deadlines, RegularTrafficParams

DEFAULT_OMEGAS = (1, 10, 20, 30, 40, 50, 60, 80, 100, 150, 200)
DEFAULT_DELTA_C_PCTS = (10.0, 25.0, 50.0, 75.0, 90.0)
FRAME_SPLIT = (0.6, 0.4)  # the default frames l1, l2 as fractions of the group size
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


def _check_omega_values(omega_values) -> None:
    """Group sizes of at least 1 that a float can hold: the frame fractions
    multiply them."""
    if not omega_values or min(omega_values) < 1:
        raise ValueError("omega_values must list group sizes of at least 1")
    if max(omega_values) > sys.float_info.max:
        raise ValueError("omega_values must lie within the float range")


@dataclass(frozen=True)
class SweepGrid:
    omega_values: tuple[int, ...] = DEFAULT_OMEGAS
    delta_c_pcts: tuple[float, ...] = DEFAULT_DELTA_C_PCTS
    l1_frac: float | str = FRAME_SPLIT[0]
    l2_frac: float | str = FRAME_SPLIT[1]
    simulate_pools: int = 0  # pools per grid point; 0 = analytical only

    def __post_init__(self):
        _check_omega_values(self.omega_values)
        if not self.delta_c_pcts or not all(0 < p <= 100 for p in self.delta_c_pcts):
            raise ValueError("delta_c_pcts must list percentages in (0, 100]")
        search = self.l1_frac == "search" or self.l2_frac == "search"
        if search and (self.l1_frac != "search" or self.l2_frac != "search"):
            raise ValueError("l1_frac and l2_frac must be searched together")
        if not search and not (0 < self.l1_frac <= 1 and 0 < self.l2_frac <= 1):
            raise ValueError("l1_frac and l2_frac must lie in (0, 1], or both be search")
        if not 0 <= self.simulate_pools < simulator.MAX_POOLS:
            raise ValueError("simulate_pools must lie in [0, 2**63)")


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


@dataclass
class SweepResult:
    rows: list[SweepRow]
    argmin: SweepRow
    simulated: bool = False


def _default_frames(omega: int, l1_frac: float | str,
                    l2_frac: float | str) -> tuple[int, int]:
    """The pair the fixed fractions give, or the FRAME_SPLIT pair when the
    fractions are searched."""
    return frames_for(omega, *(FRAME_SPLIT if l1_frac == "search" else (l1_frac, l2_frac)))


@functools.lru_cache(maxsize=256)
def _frame_table(omega: int, l1_frac: float | str, l2_frac: float | str,
                 p_a0: float) -> analysis.FrameFigures:
    """The candidate frame pairs of a group size with their r1, r2 and E[S]
    (`analysis.frame_figures`, one pass) as read-only arrays.

    The candidates are the pair the fixed fractions give or, with both
    fractions searched, the distinct (l1, l2) that FRACTION_STEPS reach,
    the second fraction never above the first, in the order the grid first
    reaches them: fraction pairs that round to the same frames cost the
    same. No figure depends on the threshold, so one table serves every
    delta_c of the group size. Cached per argument tuple."""
    pairs = [_default_frames(omega, l1_frac, l2_frac)]
    if l1_frac == "search":
        pairs = list(dict.fromkeys(frames_for(omega, f1, f2) for f1 in FRACTION_STEPS
                                   for f2 in FRACTION_STEPS if f2 <= f1))
    l1, l2 = np.array(pairs).T.copy()
    table = analysis.frame_figures(omega, l1, l2, p_a0)
    for figure in vars(table).values():
        figure.setflags(write=False)
    return table


def _evaluate_point(base: SweepBase, omega: int, delta_c_pct: float,
                    l1_frac: float | str, l2_frac: float | str,
                    ) -> tuple[SweepRow, ProtocolParams | None]:
    """The analytical row of one grid point, at its cheapest frame pair.

    The candidates are the pairs of the group size's `_frame_table`. The
    point's deadline mask keeps the feasible ones, and one
    `analysis.cost_mix` with their figures scores them; the first pair of
    least cost wins. With none, the row keeps its default pair (the fixed
    pair, or the FRAME_SPLIT pair when searching), infeasible. Also returns
    the point's parameters, at the default frames, or None when the point
    has none."""
    default = _default_frames(omega, l1_frac, l2_frac)
    row = SweepRow(omega=omega, delta_c_pct=delta_c_pct, l1=default[0],
                   l2=default[1], feasible=False)
    n = base.geometry.n_stations
    try:
        params = ProtocolParams(
            n=n, omega=omega, l1=default[0], l2=default[1], t_r=base.t_r,
            delta_c=analysis.delta_c_from_pct(delta_c_pct, math.ceil(n / omega)),
            rs_duration=base.rs_duration)
    except ValueError:
        return row, None
    table = _frame_table(omega, l1_frac, l2_frac, base.activity().p_a0)
    worst = simulator.worst_case_pool_duration(params, (table.l1, table.l2))
    feasible = simulator.meets_deadline(params, base.deadlines, worst)
    if not feasible.any():
        return row, params
    figures = table.take(feasible)
    report = analysis.cost_mix(params, base.activity(), base.p_h1, figures)
    best = int(np.argmin(report.e_c))
    row.l1, row.l2, row.feasible = int(figures.l1[best]), int(figures.l2[best]), True
    row.e_c_analytical = float(report.e_c[best])
    row.p11, row.p10 = report.p_11, report.p_10
    return row, params


def sweep(grid: SweepGrid, base: SweepBase, seed=None) -> SweepResult:
    """Evaluate the expected pool cost and detection probabilities over the
    grid; returns all rows plus the cheapest feasible configuration (ties go
    to the smaller group size, then the smaller threshold). A simulated
    sweep also runs each feasible row's configuration for `simulate_pools`
    pools, every row with `seed`, so all rows see the same arrivals."""
    simulated = grid.simulate_pools > 0
    if simulated and seed is None:
        raise ValueError("simulated sweeps need a seed")

    process = None
    if base.alarm is not None and base.p_h1 > 0:
        process = AlarmProcess(prob_per_pool=base.p_h1, template=base.alarm)
    rows: list[SweepRow] = []
    for omega in sorted(grid.omega_values):
        for pct in sorted(grid.delta_c_pcts):
            row, params = _evaluate_point(base, omega, pct, grid.l1_frac, grid.l2_frac)
            rows.append(row)
            if not (simulated and row.feasible):
                continue
            stats = simulator.run_scenario(
                base.geometry, dataclasses.replace(params, l1=row.l1, l2=row.l2),
                base.traffic, base.deadlines, alarms=[],
                n_pools=grid.simulate_pools, seed=seed,
                alarm_process=process)
            row.e_c_simulated = stats.mean_rs_per_pool
            row.e_c_simulated_stderr = stats.stderr_rs_per_pool

    feasible = [r for r in rows if r.feasible]
    if not feasible:
        raise InfeasibleConfigError("every grid point is infeasible")
    argmin = min(feasible, key=lambda r: (
        r.e_c_simulated if simulated else r.e_c_analytical, r.omega, r.delta_c_pct))
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
    group sizes the sweep flags infeasible get no row. The naive cost is the
    cost at delta_c = 1, where every collided slot takes a dedicated frame.
    No collided slot then lies below the threshold, so no frame figure
    carries weight: the mix reads the table's first pair."""
    activity = base.activity()
    rows: list[NaiveComparisonRow] = []
    for omega in sorted(omega_values):
        row, params = _evaluate_point(base, omega, delta_c_pct, "search", "search")
        if row.feasible:
            table = _frame_table(omega, "search", "search", activity.p_a0)
            naive = analysis.cost_mix(dataclasses.replace(params, delta_c=1),
                                      activity, base.p_h1, table.take(0))
            rows.append(NaiveComparisonRow(
                omega=omega, e_c_adaptive=row.e_c_analytical, e_c_naive=naive.e_c))
    if not rows:
        raise InfeasibleConfigError("every group size is infeasible")
    return NaiveComparison(rows=rows,
                           min_adaptive=min(r.e_c_adaptive for r in rows),
                           min_naive=min(r.e_c_naive for r in rows))
