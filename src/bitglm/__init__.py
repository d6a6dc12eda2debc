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

from .estimator import FitConfig, FitResult, auto_initialize, fit
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
from .fisher import (
    DpiReport,
    FimResult,
    dpi_check,
    fim_censored,
    fim_numeric_oracle,
    fim_uncensored,
    negative_expected_hessian,
)
from .likelihood import hessian, log_likelihood, score
from .models import (
    REGISTRY,
    GaussianCase1,
    GaussianCase2,
    GaussianCase3,
    PoissonModel,
    case1_fim,
    case1_optimal_thresholds,
    case1_uncensored_fim,
    case2_fim,
    case2_uncensored_fim,
    case3_fim,
    case3_uncensored_fim,
    gaussian_conditional_moments,
    poisson_conditional_mean,
    poisson_fim,
    poisson_uncensored_fim,
    information_positivity_check,
)
from .montecarlo import (
    ExperimentConfig,
    MseTable,
    ThresholdRule,
    TrialOutcome,
    WeightsRule,
    check_asymptotic_normality,
    check_consistency_conditions,
    generate_and_censor,
    run_mse_experiment,
)
from .types import CensoredDataset, DesignSet, ParameterVector

__all__ = [
    "__version__",
    # types
    "ParameterVector",
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
    "gaussian_conditional_moments",
    "poisson_conditional_mean",
    "case1_fim",
    "case1_uncensored_fim",
    "case1_optimal_thresholds",
    "case2_fim",
    "case2_uncensored_fim",
    "case3_fim",
    "case3_uncensored_fim",
    "poisson_fim",
    "poisson_uncensored_fim",
    "information_positivity_check",
    # fisher
    "FimResult",
    "DpiReport",
    "fim_censored",
    "fim_uncensored",
    "fim_numeric_oracle",
    "negative_expected_hessian",
    "dpi_check",
    # estimator
    "FitConfig",
    "FitResult",
    "fit",
    "auto_initialize",
    # monte carlo
    "ExperimentConfig",
    "WeightsRule",
    "ThresholdRule",
    "TrialOutcome",
    "MseTable",
    "generate_and_censor",
    "run_mse_experiment",
    "check_asymptotic_normality",
    "check_consistency_conditions",
]
