"""Adaptive sequential estimation of a time-varying AR(1) coefficient function.

The pipeline: simulate y_j = S(x_j) y_{j-1} + xi_j, form pointwise sequential
estimates on disjoint windows, expand them in a trigonometric basis, select
shrinkage weights by a penalized criterion, and evaluate Monte-Carlo risks
against the sharp minimax bound.
"""

from .basis import FourierCoeffs, TrigBasis, fourier_coefficients, trig_fn
from .beta import BetaEstimate, beta_error, project_coefficients
from .harness import CellResult, RiskReport, run_cell, run_table
from .pipeline import EstimateResult, estimate_signal, make_context
from .selection import (SelectionResult, WeightGrid, build_weight_grid, criterion,
                        default_delta, empirical_error, select)
from .sequential import (GridPartition, RegressionSample, build_regression,
                         compute_partition, preliminary_estimate,
                         project_estimate, run_stopping_rule, sequential_estimate,
                         threshold)
from .signals import (NoiseSpec, SignalSpec, Trajectory, evaluate_signal,
                      generate_trajectory, replication_seed, signal_s1, signal_s2,
                      validate_stability)
from .theory import EfficiencyReport, efficiency_ratio, pinsker_constant, sigma_star, upsilon

__version__ = "0.1.0"
