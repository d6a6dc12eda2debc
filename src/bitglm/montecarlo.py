"""Monte Carlo machinery: data generation, MSE-versus-n experiments,
asymptotic-normality checks, and the consistency-condition checker.

Reproducibility contract: every trial draws from its own substream keyed
by (seed, sample size, trial index), so results do not depend on
execution order or worker count; trial outcomes are reduced in trial
order.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import fisher, models
from .estimator import fit
from .exceptions import (
    ConfigError,
    DegenerateLikelihood,
    ExperimentFailure,
    NonIdentifiable,
)
from .types import CensoredDataset, _checked, is_finite_number, is_integer


def _substream(seed, n, trial):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(n), int(trial)]))


# ---------------------------------------------------------------------------
# Design-generation rules
# ---------------------------------------------------------------------------

def _check_rule(rule, what, reads):
    """Raise ConfigError unless ``rule`` is of a kind in ``reads`` and sets
    exactly the fields that kind reads: each a finite number (not a bool),
    or for ``values`` and ``probabilities`` a non-empty list of them, with
    low <= high."""
    if not isinstance(rule.kind, str) or rule.kind not in reads:
        raise ConfigError(f"unknown {what} rule {rule.kind!r}")
    given = [f.name for f in fields(rule) if f.name != "kind" and getattr(rule, f.name) is not None]
    if sorted(given) != sorted(reads[rule.kind]):
        raise ConfigError(
            f"{what} rule {rule.kind!r} reads {list(reads[rule.kind])}, got {given}"
        )
    for name in given:
        value = getattr(rule, name)
        if name in ("values", "probabilities"):
            listed = isinstance(value, (list, tuple, np.ndarray))
            ok = listed and len(value) > 0 and all(map(is_finite_number, value))
            need = "a non-empty list of finite numbers"
        else:
            ok, need = is_finite_number(value), "a finite number"
        if not ok:
            raise ConfigError(f"{what} rule {rule.kind!r} needs {need} as {name}")
    if rule.kind == "iid-uniform" and not rule.low <= rule.high:
        raise ConfigError(f"{what} rule {rule.kind!r} needs low <= high")


@dataclass(frozen=True)
class WeightsRule:
    """How per-observation known constants are produced.

    kinds: "constant" (value), "list" (values, cycled to length n),
    "iid-uniform" (low, high).  For the known-means Gaussian family this
    rule supplies the means.
    """

    kind: str
    value: float = None
    values: tuple = None
    low: float = None
    high: float = None

    def __post_init__(self):
        _check_rule(
            self,
            "weights",
            {"constant": ("value",), "list": ("values",), "iid-uniform": ("low", "high")},
        )

    def draw(self, n, rng):
        if self.kind == "constant":
            return np.full(n, float(self.value))
        if self.kind == "list":
            return np.resize(np.asarray(self.values, dtype=float), n)
        return rng.uniform(float(self.low), float(self.high), size=n)


@dataclass(frozen=True)
class ThresholdRule:
    """How thresholds are produced: "fixed" (value), "two-point"
    (values + probabilities), "iid-uniform" (low, high) or "iid-normal"
    (mu, sd)."""

    kind: str
    value: float = None
    values: tuple = None
    probabilities: tuple = None
    low: float = None
    high: float = None
    mu: float = None
    sd: float = None

    def __post_init__(self):
        _check_rule(
            self,
            "threshold",
            {
                "fixed": ("value",),
                "two-point": ("values", "probabilities"),
                "iid-uniform": ("low", "high"),
                "iid-normal": ("mu", "sd"),
            },
        )
        if self.kind == "iid-normal" and self.sd < 0:
            raise ConfigError("threshold rule 'iid-normal' needs sd >= 0")
        if self.kind == "two-point":
            probs = np.asarray(self.probabilities, dtype=float)
            if probs.shape != np.shape(self.values):
                raise ConfigError("two-point rule needs matching values/probabilities")
            if not np.all((probs >= 0.0) & (probs <= 1.0)):
                raise ConfigError("two-point probabilities must lie in [0, 1]")
            if not math.isclose(float(probs.sum()), 1.0, rel_tol=0, abs_tol=1e-12):
                raise ConfigError("two-point probabilities must sum to 1")
            # rng.choice(values, n, p=probabilities) exactly: the same uniforms u, and
            # its cdf.searchsorted(u, side="right") as the count of these cuts <= u
            cdf = np.cumsum(probs)
            object.__setattr__(self, "_cuts", tuple(cdf[:-1] / cdf[-1]))
            object.__setattr__(self, "_points", np.array(self.values, dtype=float))
            self._points.setflags(write=False)

    def draw(self, n, rng):
        if self.kind == "fixed":
            return np.full(n, float(self.value))
        if self.kind == "two-point":
            u = rng.random(n)
            return self._points[sum((u >= c for c in self._cuts), np.zeros(n, np.intp))]
        if self.kind == "iid-uniform":
            return rng.uniform(float(self.low), float(self.high), size=n)
        return rng.normal(float(self.mu), float(self.sd), size=n)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """A repeated-trial estimation experiment.

    ``true_params`` gives exactly the family's reporting parameters
    (``param_keys``) as finite numbers, e.g. {"alpha": 2, "sigma": 1} for
    the two-parameter Gaussian or {"theta": 0.3} for the Poisson family.
    ``error_metric`` selects the coordinates the squared error is
    accumulated in.  Every field is checked here, whether a config or
    library code builds the experiment: a bad one raises ConfigError naming it.
    """

    model: str
    true_params: dict
    weights: WeightsRule
    thresholds: ThresholdRule
    sample_sizes: tuple
    trials: int
    seed: int
    error_metric: str = "moment-coordinates"
    estimator: str = "censored"
    max_failure_fraction: float = 0.05

    def __post_init__(self):
        if not isinstance(self.model, str) or self.model not in models.REGISTRY:
            raise ConfigError(f"unknown model {self.model!r}")
        keys = models.REGISTRY[self.model].param_keys
        if not isinstance(self.true_params, dict) or set(self.true_params) != set(keys):
            raise ConfigError(
                f"{self.model!r} needs a dict of true_params {list(keys)}, got {self.true_params!r}"
            )
        for key, value in self.true_params.items():
            if not is_finite_number(value):
                raise ConfigError(f"true_params.{key} must be a finite number")
        object.__setattr__(self, "true_params", {k: float(v) for k, v in self.true_params.items()})
        sizes = self.sample_sizes
        if not isinstance(sizes, (tuple, list)) or not all(is_integer(n, 1) for n in sizes):
            raise ConfigError("sample_sizes must be a list of integers >= 1")
        if any(b <= a for a, b in zip(sizes, sizes[1:])) or not sizes:
            raise ConfigError("sample_sizes must be strictly increasing and non-empty")
        if sizes[-1] > np.iinfo(np.intp).max:  # the largest, which must index an array
            raise ConfigError(f"sample_sizes must be at most {np.iinfo(np.intp).max}")
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in sizes))
        if not is_integer(self.trials, 1):
            raise ConfigError("trials must be an integer >= 1")
        if not is_integer(self.seed, 0):
            raise ConfigError("seed must be an integer >= 0")
        if self.error_metric not in ("moment-coordinates", "natural-coordinates"):
            raise ConfigError(f"unknown error metric {self.error_metric!r}")
        if self.estimator not in ("censored", "uncensored"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        budget = self.max_failure_fraction
        if not (is_finite_number(budget) and 0.0 <= budget < 1.0):
            raise ConfigError("max_failure_fraction must be a number in [0, 1)")


def family_and_theta(config, n, rng):
    """Instantiate (family, designs, theta0) for one trial of size n."""
    w = config.weights.draw(n, rng)
    taus = config.thresholds.draw(n, rng)
    family, theta0 = models.REGISTRY[config.model].from_params(w, config.true_params)
    return family, family.design_set(taus), theta0


# ---------------------------------------------------------------------------
# Data generation
# ---------------------------------------------------------------------------

def generate_and_censor(model, theta0, designs, seed):
    """Draw one observation per design at theta0 and censor to bits,
    +1 where the draw lands at or below its threshold.

    ``seed`` may be an integer or a ready Generator; results are
    deterministic given the seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x = model.sample(np.asarray(theta0, dtype=float), designs, rng)
    # +-1 by construction, one per design (``sample`` checked them): nothing to validate
    bits = np.where(x <= designs.taus, np.int8(1), np.int8(-1))
    return _checked(CensoredDataset, bits=bits, designs=designs, counts=np.ones(x.shape, np.int64))


# ---------------------------------------------------------------------------
# MSE experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialOutcome:
    n: int
    theta_hat: np.ndarray
    squared_error: float
    status: str


@dataclass(frozen=True)
class MseRow:
    n: int
    mse: float
    mc_stderr: float
    failures: int


@dataclass(frozen=True)
class MseTable:
    """One row per sample size, in increasing-n order."""

    rows: tuple

    def to_csv(self):
        lines = ["n,mse,mc_stderr,failures"]
        for r in self.rows:
            lines.append(f"{r.n},{r.mse!r},{r.mc_stderr!r},{r.failures}")
        return "\n".join(lines) + "\n"

    def loglog_slope(self):
        """Least-squares slope of log(mse) against log(n)."""
        ln = np.log([r.n for r in self.rows])
        lm = np.log([r.mse for r in self.rows])
        a = np.vstack([np.ones_like(ln), ln]).T
        coef, *_ = np.linalg.lstsq(a, lm, rcond=None)
        return float(coef[1])


def _squared_error(family, theta_hat, theta0, metric):
    if metric == "natural-coordinates":
        diff = theta_hat - theta0
    else:
        diff = family.to_moment(theta_hat) - family.to_moment(theta0)
    return float(diff @ diff)


def run_trial(config, n, trial):
    """One estimation trial; returns a TrialOutcome (never raises on the
    per-trial failure modes, which are reported through ``status``)."""
    return _trial(config, n, trial)


def _trial(config, n, trial, drawn=None):
    """``run_trial``, first calling ``drawn(family, designs, theta0)``, where
    given, on what the trial drew."""
    rng = _substream(config.seed, n, trial)
    family, designs, theta0 = family_and_theta(config, n, rng)
    if drawn is not None:
        drawn(family, designs, theta0)
    try:
        if config.estimator == "uncensored":
            x = family.sample(theta0, designs, rng)
            theta_hat = family.check_theta(family.uncensored_mle(designs, x)).copy()
            theta_hat.setflags(write=False)
        else:
            result = fit(family, generate_and_censor(family, theta0, designs, rng))
            if not result.converged:
                return TrialOutcome(n, result.theta_hat, math.nan, result.status)
            theta_hat = result.theta_hat
    except (NonIdentifiable, DegenerateLikelihood) as err:
        return TrialOutcome(n, None, math.nan, type(err).__name__)
    err = _squared_error(family, theta_hat, theta0, config.error_metric)
    return TrialOutcome(n, theta_hat, err, "converged")


def _converged_trials(config, n, trials, drawn=None):
    """(converged outcomes in trial order, failure count) of trials
    0 .. ``trials``-1 at n, run by ``_trial`` with ``drawn``; raises
    ExperimentFailure where they exceed ``config.max_failure_fraction``."""
    outcomes = [_trial(config, n, trial, drawn) for trial in range(trials)]
    converged = [o for o in outcomes if o.status == "converged"]
    failures = trials - len(converged)
    if failures > config.max_failure_fraction * trials:
        raise ExperimentFailure(
            f"{failures}/{trials} trials failed at n={n}, above the "
            f"{config.max_failure_fraction:.0%} budget"
        )
    return converged, failures


def run_mse_experiment(config):
    """Accumulate mean squared estimation error over repeated trials.

    Non-converged trials are excluded from the average and counted in the
    ``failures`` column; the experiment aborts with ExperimentFailure where
    they exceed ``config.max_failure_fraction`` (< 1), so where none converge.
    """
    rows = []
    for n in config.sample_sizes:
        converged, failures = _converged_trials(config, n, config.trials)
        errs = [o.squared_error for o in converged]
        m = len(errs)
        mse = float(np.mean(errs))
        stderr = float(np.std(errs, ddof=1) / math.sqrt(m)) if m > 1 else math.nan
        rows.append(MseRow(n=n, mse=mse, mc_stderr=stderr, failures=failures))
    return MseTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Asymptotic normality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalityReport:
    """Empirical distribution of sqrt(n) (theta_hat - theta0) against the
    inverse per-observation information."""

    n: int
    trials: int
    failures: int
    empirical_cov: np.ndarray
    reference_cov: np.ndarray
    rel_frobenius: float
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    abs_third_moment: np.ndarray


def check_asymptotic_normality(config, n, trials):
    """Run ``trials`` trials of size n as ``run_trial`` does and compare the
    scaled estimator covariance with the inverse average information, at
    theta0 and the designs each trial drew, of the estimator
    ``config.estimator`` names.

    Raises ExperimentFailure where more than ``config.max_failure_fraction``
    of the trials, or all but one, fail to converge; needs two trials.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials to estimate a covariance")
    information = fisher.fim_censored if config.estimator == "censored" else fisher.fim_uncensored
    info_sum = theta0 = 0.0

    def add(family, designs, drawn_theta0):  # at the designs that the trial drew
        nonlocal info_sum, theta0
        info_sum = info_sum + information(family, drawn_theta0, designs).matrix / n
        theta0 = drawn_theta0

    converged, failures = _converged_trials(config, n, trials, add)
    if len(converged) < 2:
        raise ExperimentFailure(f"{len(converged)}/{trials} trials converged; a covariance needs 2")
    scaled = math.sqrt(n) * (np.array([o.theta_hat for o in converged]) - theta0)
    emp = np.atleast_2d(np.cov(scaled.T, ddof=1))
    ref = np.linalg.inv(info_sum / trials)
    rel = float(np.linalg.norm(emp - ref) / np.linalg.norm(ref))
    centered = scaled - scaled.mean(axis=0)
    std = scaled.std(axis=0, ddof=0)
    u = centered / std
    return NormalityReport(
        n=n,
        trials=trials,
        failures=failures,
        empirical_cov=emp,
        reference_cov=ref,
        rel_frobenius=rel,
        skewness=np.mean(u**3, axis=0),
        excess_kurtosis=np.mean(u**4, axis=0) - 3.0,
        abs_third_moment=np.mean(np.abs(u) ** 3, axis=0),
    )


# ---------------------------------------------------------------------------
# Consistency / normality sufficient conditions
# ---------------------------------------------------------------------------

#: Smallest eigenvalue of the average information that clause (3) reads as positive.
EIGENVALUE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ConditionsReport:
    """Witnessed values for the three sufficient conditions: bounded third
    moments of T, bounded designs, and a positive-definite average
    information with finite determinant (plus a prefix-stability probe)."""

    max_third_abs_moment: float
    max_design_norm: float
    avg_information: np.ndarray
    min_eigenvalue: float
    determinant: float
    prefix_drift: float
    moments_bounded: bool
    designs_bounded: bool
    information_positive: bool

    @property
    def passed(self):
        return self.moments_bounded and self.designs_bounded and self.information_positive


def check_consistency_conditions(model, theta0, designs):
    """Evaluate the three sufficient conditions at theta0 for the given
    designs; the report carries the witnessed quantities per clause."""
    theta0 = np.asarray(theta0, dtype=float)
    max_t3 = float(model.max_third_abs_moment_T(theta0, designs))
    n = designs.n

    # matrix infinity norm per design: max absolute row sum
    vnorm = float(np.max(np.sum(np.abs(designs.V), axis=2)))

    avg = fisher.fim_censored(model, theta0, designs).matrix / n
    info = fisher.FimResult(avg)  # makes avg read-only

    if n >= 2:
        half = designs.subset(slice(0, n // 2))
        avg_half = fisher.fim_censored(model, theta0, half).matrix / half.n
        # both scaled by one power of two, exactly, so that the norms' squares
        # cannot overflow
        e = -np.frexp(np.max(np.abs(avg)))[1]
        full, part = np.ldexp(avg, e), np.ldexp(avg_half, e)
        prefix_drift = float(np.linalg.norm(full - part) / max(np.linalg.norm(full), 1e-300))
    else:
        prefix_drift = math.nan

    return ConditionsReport(
        max_third_abs_moment=max_t3,
        max_design_norm=vnorm,
        avg_information=avg,
        min_eigenvalue=info.min_eigenvalue,
        determinant=info.determinant,
        prefix_drift=prefix_drift,
        moments_bounded=bool(np.isfinite(max_t3)),
        designs_bounded=bool(np.isfinite(vnorm)),
        information_positive=bool(
            info.min_eigenvalue > EIGENVALUE_TOLERANCE and np.isfinite(info.determinant)
        ),
    )
