"""Numerical laboratory for the stochastic heat/cable equations on the line.

The package evaluates the exact spectral kernels of the symmetrised process,
synthesises the associated stationary Gaussian fields, steps the equations
mode-exactly on a torus, estimates local times of symmetric stable paths by
Monte Carlo, and verifies the quantitative inequalities tying all of these
together.
"""

from .config import ConfigError, ExperimentConfig, parse_config
from .fields import (BiasReport, FieldSample, SpectralGrid, ensemble_values,
                     sample_heat_field, sample_joint, spectral_density)
from .kernels import (AtomicMeasure, VarianceProfile, delta_difference,
                      kernel_value, pbar_density, quadratic_form, u_alpha,
                      variance_profile)
from .levy import (ConditionReport, LevyMeasure, LevyModel,
                   averaged_exponent, condition_report, feller_functions,
                   re_psi, stable_jump_coefficient)
from .localtime import (BandwidthError, CorollaryResult,
                        DiscountedSplitResult, OccupancyError, PathConfig,
                        ResolventResult, corollary_test,
                        discounted_split_check, local_time, resolvent_check,
                        stable_increment)
from .quadrature import NonConvergenceError
from .torus import (MomentReport, TorusConfig, mode_variance, run_moments,
                    snapshot)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "BandwidthError", "BiasReport", "ConditionReport",
    "ConfigError", "CorollaryResult", "DiscountedSplitResult",
    "ExperimentConfig", "FieldSample", "LevyMeasure", "LevyModel",
    "MomentReport", "NonConvergenceError", "OccupancyError", "PathConfig",
    "ResolventResult", "SpectralGrid", "TorusConfig", "VarianceProfile",
    "averaged_exponent", "condition_report", "corollary_test",
    "delta_difference", "discounted_split_check", "ensemble_values",
    "feller_functions", "kernel_value", "local_time", "mode_variance",
    "parse_config", "pbar_density", "quadratic_form", "re_psi",
    "resolvent_check", "run_moments", "sample_heat_field", "sample_joint",
    "snapshot", "spectral_density", "stable_increment",
    "stable_jump_coefficient", "u_alpha", "variance_profile",
]
