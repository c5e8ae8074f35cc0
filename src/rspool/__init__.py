"""Adaptive reservation-slot pool access for machine-type reporting cells:
traffic models, closed-form analysis, discrete-time simulation and
design-space search."""

from .analysis import (ActivityProbs, ProtocolParams, activity_prob_alarm,
                       activity_prob_regular, activity_probs, collision_prob,
                       delta_c_from_pct, expected_costs, frames_for,
                       resolution_probs, truncated_active_dist)
from .config import load_experiment
from .optimizer import SweepBase, SweepGrid, compare_naive, sweep
from .simulator import (AlarmProcess, InfeasibleConfigError, run_scenario,
                        validate_deadline, worst_case_pool_duration)
from .traffic import (ActivationCurve, AlarmScenario, CellGeometry, Deadlines,
                      ExpDecayCorrelation, RegularTrafficParams,
                      SqrtCapCorrelation, UnitCorrelation, activation_curve,
                      beta_pdf, fit_beta, place_stations)

__version__ = "0.1.0"
