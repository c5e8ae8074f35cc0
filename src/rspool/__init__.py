"""Adaptive reservation-slot pool access for machine-type reporting cells:
traffic models, closed-form analysis, discrete-time simulation and
design-space search."""

from .analysis import (ActivityProbs, AnalysisReport, ProtocolParams,
                       activity_prob_alarm, activity_prob_regular,
                       activity_probs, collision_prob, delta_c_from_pct,
                       expected_costs, expected_frame_cost, frames_for,
                       naive_expected_cost, resolution_probs, resolve_prob,
                       truncated_active_dist)
from .config import CellConfig, ConfigError, load_experiment
from .optimizer import (NaiveComparison, SweepBase, SweepGrid, SweepResult,
                        compare_naive, sweep)
from .simulator import (AlarmProcess, Decision, GroupAssignment,
                        InfeasibleConfigError, Mode, ScenarioStats,
                        kc_chi_square, run_pool, run_scenario,
                        validate_deadline, worst_case_pool_duration)
from .traffic import (ActivationCurve, AlarmScenario, BetaFit, CellGeometry,
                      Deadlines, ExpDecayCorrelation, RegularTrafficParams,
                      ReportKind, SqrtCapCorrelation, UnitCorrelation,
                      activation_curve, beta_pdf, fit_beta, place_stations)

__version__ = "0.1.0"
