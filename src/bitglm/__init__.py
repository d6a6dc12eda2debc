"""bitglm: maximum-likelihood estimation from 1-bit censored GLM observations.

A library and CLI for estimating exponential-family GLM parameters when
each sample is observed only through the bit of whether it fell at or
below a per-observation threshold.  Ships exact censored/uncensored
Fisher information, a constrained Newton MLE with analytic derivatives,
concrete Gaussian and Poisson families with closed-form information, and
a reproducible Monte Carlo harness for consistency and asymptotic
normality experiments.
"""

__version__ = "0.1.0"

from .estimator import FitResult, fit
from .exceptions import (
    BitGlmError,
    ConfigError,
    DegenerateLikelihood,
    DegenerateThreshold,
    DomainError,
    ExperimentFailure,
    NonIdentifiable,
    NumericalError,
)
from .families import ModelFamily
from .fisher import DpiReport, FimResult, dpi_check, fim_censored, fim_sweep, fim_uncensored
from .likelihood import hessian, log_likelihood, score
from .models import (
    REGISTRY,
    GaussianCase1,
    GaussianCase2,
    GaussianCase3,
    PoissonModel,
    case1_optimal_thresholds,
)
from .montecarlo import (
    ExperimentConfig,
    MseTable,
    Rule,
    TrialOutcome,
    check_asymptotic_normality,
    check_consistency_conditions,
    generate_and_censor,
    run_mse_experiment,
)
from .types import CensoredDataset, DesignSet

__all__ = [
    "__version__",
    # types
    "DesignSet",
    "CensoredDataset",
    "ModelFamily",
    # errors
    "BitGlmError",
    "DomainError",
    "NumericalError",
    "DegenerateLikelihood",
    "DegenerateThreshold",
    "NonIdentifiable",
    "ExperimentFailure",
    "ConfigError",
    # likelihood
    "log_likelihood",
    "score",
    "hessian",
    # models
    "REGISTRY",
    "GaussianCase1",
    "GaussianCase2",
    "GaussianCase3",
    "PoissonModel",
    "case1_optimal_thresholds",
    # fisher
    "FimResult",
    "DpiReport",
    "fim_censored",
    "fim_sweep",
    "fim_uncensored",
    "dpi_check",
    # estimator
    "FitResult",
    "fit",
    # monte carlo
    "ExperimentConfig",
    "Rule",
    "TrialOutcome",
    "MseTable",
    "generate_and_censor",
    "run_mse_experiment",
    "check_asymptotic_normality",
    "check_consistency_conditions",
]
