"""Concrete model families with closed-form conditional moments and
closed-form censored Fisher information.

Four families ship:

* ``gaussian-case1`` -- N(w_i * alpha, sigma^2), known sigma, theta = alpha.
* ``gaussian-case2`` -- N(mu_i, sigma^2), known means, theta = 1/sigma^2.
* ``gaussian-case3`` -- N(w_i * alpha, sigma^2), both unknown, natural
  coordinates theta = (alpha/sigma^2, 1/sigma^2).
* ``poisson``        -- Poisson(exp(v_i * theta)).

Each Gaussian family reduces to the standardized threshold
z = (tau - mu)/sigma and the signed hazard ratio c = b*pdf(z)/P(B=b);
every conditional deviation below is a polynomial in (z, c) times powers
of sigma, which is what keeps the far-tail evaluations stable.
"""

import math
import numpy as np

from . import _gauss, _poisson
from .estimator import _cramer
from .exceptions import DomainError, NonIdentifiable, NumericalError
from .families import ModelFamily
from .types import DesignSet, _hold


def _as_1d(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


def _private(values, label):
    """A held copy of ``values``, checked once: DomainError unless finite."""
    values = np.array(values, dtype=float, ndmin=1)
    if not np.isfinite(values).all():
        raise DomainError(f"{label} must be finite")
    return _hold(values)


def _sigma_power(sigma, k):
    """sigma**k for a float sigma; NumericalError where that overflows."""
    try:
        return sigma**k
    except OverflowError:
        raise NumericalError(f"sigma**{k} overflows a float at sigma = {sigma:g}") from None


def _variance(sigma):
    """sigma**2; DomainError unless sigma > 0 and sigma**2 is a finite positive float."""
    sigma = float(sigma)
    if not sigma > 0:
        raise DomainError("sigma must be strictly positive")
    if not 0.0 < sigma * sigma < math.inf:
        raise DomainError(f"sigma^2 must be a finite positive float, got sigma = {sigma:g}")
    return sigma**2


def _mean(x, data):
    """Mean over the observations, weighting each row by its count."""
    return float(np.average(x, weights=data.counts))


class _GaussianIndex(ModelFamily):
    """P(B = +1) = Phi(z) at the standardized threshold z, the linear index.

    A subclass's ``_mean_sd(theta, designs)`` checks both, the designs through
    ``check_designs``, and returns the rows' means (n,) and their sd, a float,
    from V[:, 0, 0] or the known means ``aux`` only: never a fixed entry.
    """

    # prob_leq and sample have one body per subclass, but stay in each:
    # the benchmark tracer spans them in each concrete class's own namespace
    def _standardized(self, theta, designs):
        """(mean, sd, z) from ``_mean_sd``, with z = (tau - mean) / sd."""
        mean, sd = self._mean_sd(theta, designs)
        return mean, sd, (designs.taus - mean) / sd

    def initial_point(self, data, index, tally):
        """Berkson's minimum-chi-square probit start (Berkson, JASA 50, 1955).

        A distinct design j seen with both bits has a +1 fraction p_j in (0, 1),
        and q_j = Phi^-1(p_j) estimates its standardized threshold, the index
        offset_j + X_j beta.  The beta of that system's least squares, weighted
        by n_j pdf(q_j)^2 / (p_j (1 - p_j)), is the MLE with exactly k designs,
        every one usable (a one-sided design still counts in the likelihood).
        With k = 2 and two usable designs the weights cancel, and ``_cramer`` solves
        the square system, reading |det| <= 2 eps |X|_F^2 as rank 1 (lstsq's, to 2x).
        The ``anchor`` where fewer are usable, the system is rank-deficient or
        the solution has beta_p <= 0.
        """
        rows, totals, plus = tally
        usable = (plus > 0) & (plus < totals)
        if np.count_nonzero(usable) < self.k:
            return self.anchor()
        rows, n = rows[usable], totals[usable]
        p = plus[usable] / n
        q = _gauss.norm_ppf(p)
        X, offset = index[0][rows], index[1][rows]
        if X.shape == (2, 2):
            beta = _cramer(X, q - offset, 2.0 * np.finfo(float).eps)
        else:
            root_w = _gauss.norm_pdf(q) * np.sqrt(n / (p * (1.0 - p)))
            solution = np.linalg.lstsq(X * root_w[:, None], (q - offset) * root_w, rcond=None)
            beta = solution[0] if solution[2] == self.k else None
        p = self.index_positive
        if beta is None or (p is not None and not beta[p] > 0):
            return self.anchor()
        return beta

    def index_link(self, z, designs, bits):
        """log Phi(b z), the signed hazard c and -c (z + c): finite at every z."""
        log_p, c = _gauss.log_cdf_and_signed_hazard(z, bits)
        return log_p, c, -c * (z + c)

    def index_weight(self, z, designs):
        """pdf(z)^2 / (Phi(z) (1 - Phi(z))), one erfcx call per row."""
        return _gauss.fim_weight(z)


# ---------------------------------------------------------------------------
# Gaussian: unknown mean, known variance
# ---------------------------------------------------------------------------

class GaussianCase1(_GaussianIndex):
    """X_i = w_i * alpha + noise, noise ~ N(0, sigma^2) with sigma known.

    Sufficient statistic T = x, natural parameter eta_i = (w_i/sigma^2) * alpha.
    """

    name = "gaussian-case1"
    d = 1
    k = 1
    per_obs_key = "weights"
    param_keys = ("alpha", "sigma")
    fit_keys = ("sigma",)

    def __init__(self, weights, sigma):
        self.sigma = float(sigma)
        variance = _variance(self.sigma)
        self.weights = _private(weights, "weights")
        with np.errstate(over="ignore"):  # the largest design entry
            if not np.isfinite(np.max(np.abs(self.weights), initial=0.0) / variance):
                raise DomainError("weights / sigma^2 must be finite")

    def _own_designs(self):
        return self.weights.reshape(-1, 1, 1) / self.sigma**2, None  # owns its data

    def _mean_sd(self, theta, designs):
        """(sigma^2 V alpha, sigma): the bytes of the k = 1 ``natural_params``."""
        _, mean = self._at_theta(
            theta, designs, lambda t: self.sigma**2 * (designs.V[:, 0, 0] * t[0])
        )
        return mean, self.sigma

    def prob_leq(self, theta, designs):
        _, _, z = self._standardized(theta, designs)
        return _gauss.norm_cdf(z)

    def uncensored_information(self, theta, designs):
        """sum_i (sigma V_i)^2, as Var(x) = sigma^2 (sigma^2 sum_i V_i^2 overflows first)."""
        self._check_args(theta, designs)
        s = self.sigma * designs.V[:, 0, 0]
        return np.array([[np.add.reduce(s * s)]])

    def cond_mean_dev_T(self, theta, designs, bits):
        return self.cond_devs_T(theta, designs, bits)[0]

    def cond_devs_T(self, theta, designs, bits):
        _, _, z = self._standardized(theta, designs)
        c = _gauss.signed_hazard(z, bits)
        mean_dev = (-self.sigma * c)[:, None]
        cov_dev = (-self.sigma**2 * c * (z + c))[:, None, None]
        return mean_dev, cov_dev

    def max_third_abs_moment_T(self, theta, designs):
        # E|X|^3 increases in |mu|: |X| is stochastically increasing in |mu|
        mu, _ = self._mean_sd(theta, designs)
        mu = mu[np.argmax(np.abs(mu))]
        moment = float(_gauss.abs_third_moment(mu, self.sigma))
        if not math.isfinite(moment):
            raise NumericalError(f"E|X|^3 overflows a float at mu = {mu:g}, sigma = {self.sigma:g}")
        return moment

    def sample(self, theta, designs, rng):
        mean, sd = self._mean_sd(theta, designs)
        return mean + sd * rng.standard_normal(designs.n)

    @classmethod
    def from_params(cls, values, params):
        family = cls(values, sigma=params["sigma"])
        return family, family.from_moment([params["alpha"]])

    @classmethod
    def from_data(cls, V, taus, section):
        """The design entry is w / sigma^2, so the weights are V sigma^2."""
        sigma = section["sigma"]
        return cls(V[:, 0, 0] * _variance(sigma), sigma=sigma), DesignSet(V, taus)

    def uncensored_mle(self, designs, x):
        """Least squares, alpha = w.x / w.w."""
        self.check_designs(designs)
        w = designs.V[:, 0, 0] * self.sigma**2
        denom = float(np.add.reduce(w * w))  # not BLAS: its sums vary with the thread count
        if denom == 0.0:
            raise NonIdentifiable("all weights are zero")
        return np.array([float(np.add.reduce(w * x)) / denom])

    def index_regressors(self, designs):
        """z = tau/sigma - sigma V alpha, linear in beta = alpha."""
        self.check_designs(designs)
        return -self.sigma * designs.V[:, 0, :], designs.taus / self.sigma


def case1_optimal_thresholds(model, alpha):
    """Thresholds maximizing each censored-information term: tau_i = w_i * alpha.

    At these thresholds the censored information equals
    (2 / (pi * sigma^2)) * sum(w^2), i.e. a fraction 2/pi of the
    uncensored information.
    """
    return model.weights * float(alpha)


# ---------------------------------------------------------------------------
# Gaussian: known mean, unknown variance
# ---------------------------------------------------------------------------

class GaussianCase2(_GaussianIndex):
    """X_i ~ N(mu_i, sigma^2) with known means, theta = 1/sigma^2 > 0.

    Sufficient statistic T = (x - mu_i)^2, per-observation design -1/2.
    The known means ride along as the designs' ``aux`` column.
    """

    name = "gaussian-case2"
    d = 1
    k = 1
    per_obs_key = "means"
    param_keys = ("sigma",)
    fit_keys = ("means",)
    domain = ("positive",)
    index_positive = 0
    index_curvature = np.full((1, 1, 1), 2.0)

    def __init__(self, means):
        self.means = _private(means, "means")

    def _own_designs(self):
        return np.full((self.means.shape[0], 1, 1), -0.5), self.means

    def _check_entries(self, designs):
        if designs.aux is None:
            raise DomainError("gaussian-case2 designs must carry the known means as aux")
        self._check_fixed(designs.V, ((0, 0, -0.5),), "[[-1/2]]")

    def _mean_sd(self, theta, designs):
        theta = self._check_args(theta, designs)
        return designs.aux, math.sqrt(1.0 / theta[0])

    def prob_leq(self, theta, designs):
        _, _, z = self._standardized(theta, designs)
        return _gauss.norm_cdf(z)

    def uncensored_information(self, theta, designs):
        """n sigma^4 / 2, as Var((x - mu)^2) = 2 sigma^4 and V = -1/2;
        NumericalError where that underflows to 0."""
        _, sigma = self._mean_sd(theta, designs)
        info = 0.5 * designs.n * _sigma_power(sigma, 4)
        if info == 0.0:
            raise NumericalError(f"n sigma^4 / 2 underflows to 0 at sigma = {sigma:g}")
        return np.array([[info]])

    def cond_mean_dev_T(self, theta, designs, bits):
        return self.cond_devs_T(theta, designs, bits)[0]

    def cond_devs_T(self, theta, designs, bits):
        _, sigma, z = self._standardized(theta, designs)
        c = _gauss.signed_hazard(z, bits)
        mean_dev = (-sigma**2 * z * c)[:, None]
        # Var((X-mu)^2 | b) - 2 sigma^4 = -sigma^4 * c * z * (z^2 + 1 + z*c)
        cov_dev = (sigma**4 * (-c * z * (z * z + 1.0 + z * c)))[:, None, None]
        return mean_dev, cov_dev

    def max_third_abs_moment_T(self, theta, designs):
        _, sigma = self._mean_sd(theta, designs)
        return 15.0 * _sigma_power(sigma, 6)

    def sample(self, theta, designs, rng):
        mean, sd = self._mean_sd(theta, designs)
        return mean + sd * rng.standard_normal(designs.n)

    @classmethod
    def from_data(cls, V, taus, section):
        means = section["means"]
        return cls(means=means), DesignSet(V, taus, aux=means)

    def uncensored_mle(self, designs, x):
        """The inverse mean squared deviation from the known means."""
        self.check_designs(designs)
        ss = float(np.mean((x - designs.aux) ** 2))
        if ss <= 0.0:
            raise NonIdentifiable("zero empirical variance")
        return np.array([1.0 / ss])

    def to_moment(self, theta):
        theta = _as_1d(theta)
        return np.array([1.0 / math.sqrt(theta[0])])

    def from_moment(self, values):
        return np.array([1.0 / _variance(_as_1d(values)[0])])

    def index_regressors(self, designs):
        """z = (tau - mean) / sigma, linear in beta = 1/sigma."""
        self.check_designs(designs)
        return (designs.taus - designs.aux)[:, None], np.zeros(designs.n)

    def index_from_theta(self, theta):
        return np.sqrt(theta)


# ---------------------------------------------------------------------------
# Gaussian: unknown mean and variance
# ---------------------------------------------------------------------------

class GaussianCase3(_GaussianIndex):
    """X_i = w_i * alpha + noise, noise ~ N(0, sigma^2), both unknown.

    Natural coordinates theta = (alpha/sigma^2, 1/sigma^2) with theta_2 > 0;
    sufficient statistic T = (x, x^2), design V_i = [[w_i, 0], [0, -1/2]].
    The solver works in natural coordinates; reports convert to (alpha, sigma).
    """

    name = "gaussian-case3"
    d = 2
    k = 2
    per_obs_key = "weights"
    param_keys = ("alpha", "sigma")
    domain = ("unbounded", "positive")
    index_positive = 0
    index_curvature = np.array([[[0.0, 1.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]])

    def __init__(self, weights):
        self.weights = _private(weights, "weights")

    def _own_designs(self):
        V = np.zeros((self.weights.shape[0], 2, 2))
        V[:, 0, 0] = self.weights
        V[:, 1, 1] = -0.5
        return V, None

    def _check_entries(self, designs):
        fixed = ((0, 1, 0.0), (1, 0, 0.0), (1, 1, -0.5))
        self._check_fixed(designs.V, fixed, "[[w, 0], [0, -1/2]]")

    def _mean_sd(self, theta, designs):
        """((1/theta_2)(w theta_1), sqrt(1/theta_2)) from the free entry w."""
        theta, mean = self._at_theta(
            theta, designs, lambda t: 1.0 / t[1] * (designs.V[:, 0, 0] * t[0])
        )
        return mean, math.sqrt(1.0 / theta[1])

    def prob_leq(self, theta, designs):
        _, _, z = self._standardized(theta, designs)
        return _gauss.norm_cdf(z)

    def uncensored_information(self, theta, designs):
        """sigma^2 [[S, -alpha S], [-alpha S, n sigma^2 / 2 + alpha^2 S]] for S =
        sum_i w_i^2, through the fixed V, as Var(x^2) = 2 sigma^4 + 4 mu^2 sigma^2."""
        theta = self._check_args(theta, designs)
        alpha, s2 = self.alpha_sigma2_from_natural(theta)
        w = designs.V[:, 0, 0]
        S = np.add.reduce(w * w)
        cross = -alpha * S
        return s2 * np.array([[S, cross], [cross, 0.5 * designs.n * s2 + alpha * alpha * S]])

    def cond_mean_dev_T(self, theta, designs, bits):
        return self.cond_devs_T(theta, designs, bits)[0]

    def cond_devs_T(self, theta, designs, bits):
        mu, sigma, z = self._standardized(theta, designs)
        c = _gauss.signed_hazard(z, bits)
        n = z.shape[0]
        mean_dev = np.empty((n, 2))
        mean_dev[:, 0] = -sigma * c
        mean_dev[:, 1] = -sigma * c * (designs.taus + mu)
        # standardized deviations: Var(Y|b)-1, Cov(Y,Y^2|b)-0, Var(Y^2|b)-2,
        # pushed through T - E[T] = (sigma Y', 2 mu sigma Y' + sigma^2 Y'')
        # with Y' = Y - E[Y], Y'' = Y^2 - E[Y^2], elementwise
        d11 = -c * (z + c)
        d12 = -c * (1.0 + z * z + z * c)
        d22 = -c * z * (z * z + 1.0 + z * c)
        s2 = sigma * sigma
        cov_dev = np.empty((n, 2, 2))
        cov_dev[:, 0, 0] = s2 * d11
        cov_dev[:, 0, 1] = cov_dev[:, 1, 0] = 2.0 * mu * s2 * d11 + sigma * s2 * d12
        cov_dev[:, 1, 1] = (
            4.0 * mu * mu * s2 * d11 + 4.0 * mu * sigma * s2 * d12 + s2 * s2 * d22
        )
        return mean_dev, cov_dev

    def max_third_abs_moment_T(self, theta, designs):
        # sum_j E|T_j|^3 = E|X|^3 + E[X^6] for T = (x, x^2), bounded where E||T||^3
        # is (in [1, sqrt 2] times it); both grow in |mu|, read at its largest only
        mu, sigma = self._mean_sd(theta, designs)
        mu = mu[np.argmax(np.abs(mu))]
        with np.errstate(over="ignore", invalid="ignore"):
            mu2, s2 = mu * mu, sigma * sigma  # E[X^6] then overflows only where it does
            sixth = ((mu2 + 15.0 * s2) * mu2 + 45.0 * s2 * s2) * mu2 + 15.0 * s2 * s2 * s2
            moment = float(_gauss.abs_third_moment(mu, sigma) + sixth)
        if not math.isfinite(moment):  # inf, or nan: 0 times an overflowed factor
            raise NumericalError("E|X|^3 + E[X^6] overflows a float"
                                 f" at mu = {mu:g}, sigma = {sigma:g}")
        return moment

    def sample(self, theta, designs, rng):
        mean, sd = self._mean_sd(theta, designs)
        return mean + sd * rng.standard_normal(designs.n)

    def uncensored_mle(self, designs, x):
        """Least-squares alpha and the biased (MLE-convention) variance."""
        self.check_designs(designs)
        w = designs.V[:, 0, 0]
        denom = float(np.add.reduce(w * w))  # not BLAS: its sums vary with the thread count
        if denom == 0.0:
            raise NonIdentifiable("all weights are zero")
        alpha = float(np.add.reduce(w * x)) / denom
        sigma2 = float(np.mean((x - w * alpha) ** 2))
        if sigma2 <= 0.0:
            raise NonIdentifiable("zero empirical variance")
        return self.natural_from_alpha_sigma2(alpha, sigma2)

    def to_moment(self, theta):
        """(alpha, sigma) from natural coordinates."""
        theta = _as_1d(theta)
        return np.array([theta[0] / theta[1], 1.0 / math.sqrt(theta[1])])

    def from_moment(self, values):
        """Natural coordinates from (alpha, sigma)."""
        alpha, sigma = map(float, values)
        variance = _variance(sigma)
        return np.array([alpha / variance, 1.0 / variance])

    def index_regressors(self, designs):
        """z = tau/sigma - w alpha/sigma, linear in beta = (1/sigma, alpha/sigma)."""
        self.check_designs(designs)
        X = np.empty((designs.n, 2))  # C order: an F-ordered X.dot(beta) rounds differently
        X[:, 0] = designs.taus
        np.negative(designs.V[:, 0, 0], out=X[:, 1])
        return X, np.zeros(designs.n)

    def theta_from_index(self, beta):
        return np.array([beta[0] * beta[1], beta[0] ** 2])

    def index_from_theta(self, theta):
        root = math.sqrt(theta[1])
        return np.array([root, theta[0] / root])

    @staticmethod
    def alpha_sigma2_from_natural(theta):
        """(alpha, sigma^2) from (alpha/sigma^2, 1/sigma^2)."""
        theta = _as_1d(theta)
        return theta[0] / theta[1], 1.0 / theta[1]

    @staticmethod
    def natural_from_alpha_sigma2(alpha, sigma2):
        return np.array([float(alpha) / float(sigma2), 1.0 / float(sigma2)])


# ---------------------------------------------------------------------------
# Poisson
# ---------------------------------------------------------------------------

class PoissonModel(ModelFamily):
    """X_i ~ Poisson(exp(v_i * theta)) with known covariates v_i.

    Thresholds are stored as reals; the censoring rule X <= tau makes the
    effective threshold floor(tau), and shifted CDF values are taken at
    floor(tau) - 1, etc.  Thresholds must be >= 0 to be interior to the
    support.
    """

    name = "poisson"
    d = 1
    k = 1
    per_obs_key = "covariates"
    param_keys = ("theta",)

    def __init__(self, covariates):
        self.covariates = _private(covariates, "covariates")

    def _own_designs(self):
        return self.covariates.reshape(-1, 1, 1).copy(), None

    def design_set(self, taus):
        designs = super().design_set(taus)
        self._check_entries(designs)  # the thresholds are the caller's
        return designs

    def _check_entries(self, designs):
        bad = designs.taus < 0
        if np.any(bad):
            raise DomainError("poisson thresholds must be >= 0", index=int(np.argmax(bad)))

    #: Largest supported rate.  Up to here scipy's incomplete gamma tails
    #: agree with 340-digit mpmath to 1e-10 relative.  Beyond ~3e5 its
    #: lower-gamma series stops at 2000 terms in a band 4.5-8 standard
    #: deviations above the rate, which leaves right tails off by up to
    #: 7e-6 relative at a rate of 1e6.
    MAX_RATE = 2e5

    def _rates(self, theta, designs, z=None):
        """The rates lam at theta (kept by ``_at_theta``) or at the index
        z = -log(lam), up to MAX_RATE."""
        if z is None:
            # v theta: one product a row, the bytes of ``natural_params`` at k = 1
            return self._at_theta(
                theta, designs, lambda t: self._rates(None, designs, -(designs.V[:, 0, 0] * t[0]))
            )[1]
        with np.errstate(over="ignore"):  # an infinite rate fails the check below
            lam = np.exp(-z)
        if not np.all(lam <= self.MAX_RATE):
            raise NumericalError(
                f"poisson rate exceeds the supported range (max {self.MAX_RATE:g})"
            )
        return lam

    def _lam_t(self, theta, designs, z=None):
        """(lam, floor(tau)): ``_rates`` and the whole-number thresholds."""
        # a float count: an int64 cast wraps thresholds of 2^63 and more
        return self._rates(theta, designs, z), np.floor(designs.taus)

    def prob_leq(self, theta, designs):
        lam, t = self._lam_t(theta, designs)
        return _poisson.poisson_cdf(t, lam)

    def index_regressors(self, designs):
        """P(X <= tau) falls in the rate exp(v theta): the index is -v theta."""
        self.check_designs(designs)
        return -designs.V[:, 0, :], np.zeros(designs.n)

    def index_link(self, z, designs, bits):
        """At the rate lam = exp(-z), with h = b pmf(t) / P(B=b): the log of
        each bit's own tail (1 - CDF loses a far right tail's digits), lam h
        and, as pmf(t-1) = pmf(t) t / lam, lam h (lam - t - 1 - lam h)."""
        lam, t = self._lam_t(None, designs, z)
        far, right = _poisson.far_tail(t, lam)
        # b = +1 reads the left tail, X <= t: where that is the far side's
        # opposite (``right``), and b = -1 elsewhere, its own tail is 1 - far
        pb = np.where(right == (np.asarray(bits) > 0), 1.0 - far, far)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_h = lam * (np.asarray(bits, dtype=float) * _poisson.poisson_pmf(t, lam) / pb)
            return np.log(pb), lam_h, lam_h * (lam - t - 1.0 - lam_h)

    def uncensored_information(self, theta, designs):
        """sum_i v_i^2 lam_i, as Var(x) = lam."""
        lam = self._rates(theta, designs)
        v = designs.V[:, 0, 0]
        return np.array([[np.add.reduce(v * (lam * v))]])

    def cond_mean_dev_T(self, theta, designs, bits):
        return self.cond_devs_T(theta, designs, bits)[0]

    def cond_devs_T(self, theta, designs, bits):
        """-d/dz and d^2/dz^2 of the index link, at z = -(natural parameter)."""
        theta = self._check_args(theta, designs)
        _, s, r = self.index_link(-designs.natural_params(theta)[:, 0], designs, bits)
        return -s[:, None], r[:, None, None]

    def index_weight(self, z, designs):
        """(lam pmf/F) (lam pmf/S) at lam = exp(-z), as dF/dz = lam pmf(t):
        pmf^2 underflows far in the tails.  Symmetric in the two tails, so
        taken as (lam pmf/far) (lam pmf/(1 - far)) for the far one."""
        lam, t = self._lam_t(None, designs, z)
        far, _ = _poisson.far_tail(t, lam)
        lam_pmf = lam * _poisson.poisson_pmf(t, lam)
        # inf or nan where F or S is 0, rows that the caller rejects
        with np.errstate(divide="ignore", invalid="ignore"):
            return (lam_pmf / far) * (lam_pmf / (1.0 - far))

    def max_third_abs_moment_T(self, theta, designs):
        lam = np.max(self._rates(theta, designs))  # E[X^3] increases in lam
        return float(lam**3 + 3.0 * lam * lam + lam)

    def sample(self, theta, designs, rng):
        return rng.poisson(self._rates(theta, designs)).astype(float)

    def uncensored_mle(self, designs, x):
        """The root of g(theta) = sum v (x - exp(v theta)): log of the mean count
        over v for a constant covariate, else brentq on a bracket doubled from
        [0, 1] or [-1, 0], as g(0) is >= 0 or not.  g strictly decreases: as
        theta -> inf, to -inf where some v > 0, else to sum v x; as theta ->
        -inf, to +inf where some v < 0, else to sum v x.  So a root exists iff
        those limits differ in sign; NonIdentifiable where they do not."""
        # imported here: scipy.optimize costs a fifth of a second of cold
        # start, and only this baseline needs it
        from scipy.optimize import brentq

        self.check_designs(designs)
        v = designs.V[:, 0, 0]
        target = float(np.add.reduce(v * x))  # not BLAS: its sums vary with the thread count
        if np.all(v == v[0]) and v[0] != 0.0:
            mean_x = float(np.mean(x))
            if mean_x <= 0.0:
                raise NonIdentifiable("all counts are zero")
            return np.array([math.log(mean_x) / v[0]])
        if not ((np.any(v > 0) or target < 0) and (np.any(v < 0) or target > 0)):
            raise NonIdentifiable("rate equation admits no finite root")

        def g(theta):
            with np.errstate(over="ignore"):
                value = target - float(np.add.reduce(v * np.exp(v * theta)))
            if not math.isfinite(value):
                raise NumericalError("poisson rates overflow before the root is bracketed")
            return value

        lo, hi = (0.0, 1.0) if g(0.0) >= 0.0 else (-1.0, 0.0)
        while g(lo) < 0.0:
            lo *= 2.0
        while g(hi) > 0.0:
            hi *= 2.0
        return np.array([brentq(g, lo, hi, xtol=np.finfo(float).tiny)])

    def initial_point(self, data, index, tally):
        """log of the mean threshold over the mean covariate."""
        v = data.designs.V[:, 0, 0]
        vbar = _mean(v, data)
        scale = _mean(np.abs(v), data)
        # mixed-sign covariates can average to ~0 and catapult the start
        if abs(vbar) < max(1e-8, 0.1 * scale):
            vbar = scale if scale > 1e-8 else 1.0
        return self.check_theta(math.log(max(0.5, _mean(data.designs.taus, data))) / vbar)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Stable names for CLI/config lookup.
REGISTRY = {
    GaussianCase1.name: GaussianCase1,
    GaussianCase2.name: GaussianCase2,
    GaussianCase3.name: GaussianCase3,
    PoissonModel.name: PoissonModel,
}
