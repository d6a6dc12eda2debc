"""Independent verification routes used by the tests.

Most of these avoid the library's own computation paths: finite
differences for derivatives, quadrature/summation for moments and
Poisson tail probabilities, dense grid search for maximizers, a
linear program for separated bits and a stable lexsort for grouping.

Three groups are evaluated with library pieces instead:

* The paper's closed-form spot formulas (``case1_fim`` ... ``poisson_fim``
  and their uncensored counterparts, ``gaussian_conditional_moments`` and
  ``poisson_conditional_mean``) are evaluated with the library's kernels
  ``_gauss.fim_weight``/``signed_hazard`` and ``_poisson.poisson_tails``,
  which ``test_numerics`` checks against mpmath, and ``poisson_pmf``.
  Each sums its own per-family formula with ``math.fsum``, not the
  families' stacked index weights and BLAS reductions.
* The paper's deviation route, from each family's ``cond_devs_T``,
  ``cond_mean_dev_T`` and ``prob_leq``: ``deviation_derivatives`` (the
  score and Hessian in theta), ``deviation_fim`` (the censored information
  as the rank-one covariance of E[T | B]) and ``negative_expected_hessian``
  (the information through the curvature).  The library derives all three
  from the family's linear index instead (``index_link``, ``index_weight``).
* ``fim_numeric_oracle`` enumerates both bits per observation and
  averages outer products of ``likelihood.score``.

``uncensored_sandwich`` sums V_i^T Cov(T_i) V_i over the per-row stack of
``cov_statistic``, the closed-form Hessian of ``log_partition``, where the
families sum their closed forms over the rows (``uncensored_information``).
"""

import math

import numpy as np
from scipy import special
from scipy.integrate import quad

from bitglm import CensoredDataset, _gauss, _poisson, likelihood, models
from bitglm.exceptions import DegenerateThreshold, DomainError, NumericalError
from bitglm.fisher import FimResult, _reject


def _as_1d(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


def fd_gradient(fun, theta, step=1e-6):
    """Central finite-difference gradient with per-coordinate relative steps."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for j in range(theta.shape[0]):
        h = step * max(1.0, abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (fun(up) - fun(dn)) / (2.0 * h)
    return out


def fd_jacobian(fun, theta, step=1e-4):
    """Central finite-difference Jacobian of a vector function."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(theta.shape[0]):
        h = step * max(1.0, abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        cols.append((np.asarray(fun(up)) - np.asarray(fun(dn))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def truncated_normal_moment(mu, sigma, tau, b, power):
    """E[X^power | side of tau] by adaptive quadrature."""
    z = (tau - mu) / sigma

    def dens(x):
        return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

    if b == 1:
        prob, _ = quad(dens, -np.inf, tau, limit=200)
        num, _ = quad(lambda x: x**power * dens(x), -np.inf, tau, limit=200)
    else:
        prob, _ = quad(dens, tau, np.inf, limit=200)
        num, _ = quad(lambda x: x**power * dens(x), tau, np.inf, limit=200)
    return num / prob


def poisson_pmf_exact(x, lam):
    return math.exp(-lam) * lam**x / math.factorial(x)


def poisson_cdf_sum(t, lam):
    """P(X <= t) by summing the pmf recurrence p(x+1) = p(x) * lam / (x+1)
    upward from p(0) = exp(-lam); the seed underflows for rates above ~700."""
    if t < 0:
        return 0.0
    term = math.exp(-lam)
    terms = [term]
    for x in range(1, t + 1):
        term *= lam / x
        terms.append(term)
    return math.fsum(terms)


def poisson_sf_sum(t, lam):
    """P(X > t) by summing the pmf recurrence upward from x = t + 1, seeded
    through lgamma, until a term no longer moves the sum."""
    if t < 0:
        return 1.0
    x = t + 1
    term = math.exp(x * math.log(lam) - lam - math.lgamma(x + 1.0))
    terms = [term]
    total = term
    while x < lam or term > 1e-17 * total:
        x += 1
        term *= lam / x
        terms.append(term)
        total += term
    return math.fsum(terms)


def poisson_conditional_moment_sum(lam, tau, b, power, tail_tol=1e-18):
    """E[X^power | side of tau] by direct pmf summation, truncated once the
    pmf falls below tail_tol past the mode."""
    t = math.floor(tau)
    num = 0.0
    prob = 0.0
    x = 0
    while True:
        p = poisson_pmf_exact(x, lam)
        inside = x <= t
        if (b == 1 and inside) or (b == -1 and not inside):
            num += x**power * p
            prob += p
        if x > lam and p < tail_tol:
            break
        x += 1
    return num / prob


def scipy_loglik_grid(family, data, grid):
    """Censored log-likelihood over a grid of scalar parameters, computed
    entirely through scipy.stats (independent of the library's numerics)."""
    from scipy import stats

    bits = data.bits
    taus = data.designs.taus
    grid = np.asarray(grid, dtype=float)
    if isinstance(family, models.GaussianCase1):
        w = data.designs.V[:, 0, 0] * family.sigma**2
        z = (taus[None, :] - np.outer(grid, w)) / family.sigma
    elif isinstance(family, models.GaussianCase2):
        # nonpositive precisions are outside the domain
        safe = np.where(grid > 0, grid, np.nan)
        sigma_g = 1.0 / np.sqrt(safe)
        z = (taus - data.designs.aux)[None, :] / sigma_g[:, None]
        logp = stats.norm.logcdf(z)
        logq = stats.norm.logsf(z)
        out = np.where(bits[None, :] > 0, logp, logq).sum(axis=1)
        return np.where(grid > 0, out, -np.inf)
    elif isinstance(family, models.PoissonModel):
        v = data.designs.V[:, 0, 0]
        lam = np.exp(np.outer(grid, v))
        t = np.floor(taus).astype(int)[None, :]
        logp = stats.poisson.logcdf(t, lam)
        logq = stats.poisson.logsf(t, lam)
        return np.where(bits[None, :] > 0, logp, logq).sum(axis=1)
    else:
        raise TypeError(f"no scalar grid oracle for {type(family).__name__}")
    logp = stats.norm.logcdf(z)
    logq = stats.norm.logsf(z)
    return np.where(bits[None, :] > 0, logp, logq).sum(axis=1)


def grid_search_maximizer(family, data, lo, hi, stages=(1e-2, 1e-4, 1e-6, 1e-7)):
    """Dense 1-D grid search for the log-likelihood maximizer, refined in
    stages down to the final resolution."""
    center = None
    prev_res = None
    for res in stages:
        if center is None:
            grid = np.arange(lo, hi + res, res)
        else:
            grid = np.arange(center - 8 * prev_res, center + 8 * prev_res + res, res)
        vals = scipy_loglik_grid(family, data, grid)
        center = float(grid[int(np.argmax(vals))])
        prev_res = res
    return center


def lp_separated(family, data):
    """Whether the bits are separated, by linear programming: some direction
    d of the linear index that P(B = +1) increases in has b_i x_i.d >= 0 on
    every row and a positive sum, with d >= 0 in the 1/sigma coordinate of
    the two Gaussian families with an unknown sigma (Konis 2007)."""
    from scipy.optimize import linprog

    V, taus = data.designs.V, data.designs.taus
    positive = None
    if isinstance(family, models.GaussianCase2):
        X, positive = (taus - data.designs.aux)[:, None], 0
    elif isinstance(family, models.GaussianCase3):
        X, positive = np.stack([taus, -V[:, 0, 0]], axis=1), 0
    else:  # case 1 and Poisson: the index falls in the mean and the rate
        X = -V[:, 0, :]
    A = data.bits[:, None] * X
    A = A[np.any(A != 0.0, axis=1)]
    if A.shape[0] == 0:
        return False
    A = A / np.linalg.norm(A, axis=1)[:, None]
    bounds = [(0.0 if j == positive else -1.0, 1.0) for j in range(A.shape[1])]
    res = linprog(-A.sum(axis=0), A_ub=-A, b_ub=np.zeros(A.shape[0]), bounds=bounds)
    assert res.status == 0, res.message
    return -res.fun > 1e-6


# ---------------------------------------------------------------------------
# Log-partition functions phi(eta), per observation
# ---------------------------------------------------------------------------

def log_partition(family, eta):
    """phi(eta_i) per observation for the natural parameters ``eta`` (n, d);
    E[T_i] and Cov(T_i) are its gradient and Hessian in eta_i."""
    eta = np.asarray(eta, dtype=float)
    if isinstance(family, models.GaussianCase1):
        return 0.5 * family.sigma**2 * eta[:, 0] ** 2
    if isinstance(family, models.GaussianCase2):
        return -0.5 * np.log(np.abs(2.0 * eta[:, 0]))
    if isinstance(family, models.GaussianCase3):
        # -eta1^2/(4 eta2) - log(-2 eta2)/2 for eta2 < 0
        return -eta[:, 0] ** 2 / (4.0 * eta[:, 1]) - 0.5 * np.log(-2.0 * eta[:, 1])
    if isinstance(family, models.PoissonModel):
        return np.exp(eta[:, 0])
    raise TypeError(f"no log-partition for {type(family).__name__}")


def mean_statistic(family, eta):
    """E[T_i] per observation for the natural parameters ``eta`` (n, d), in
    closed form: the gradient of ``log_partition`` in eta_i."""
    eta = np.asarray(eta, dtype=float)
    if isinstance(family, models.GaussianCase1):
        return family.sigma**2 * eta
    if isinstance(family, models.GaussianCase2):
        return -0.5 / eta
    if isinstance(family, models.GaussianCase3):
        mu, sigma2 = -0.5 * eta[:, 0] / eta[:, 1], -0.5 / eta[:, 1]
        return np.stack([mu, mu * mu + sigma2], axis=1)
    if isinstance(family, models.PoissonModel):
        return np.exp(eta)
    raise TypeError(f"no mean for {type(family).__name__}")


def cov_statistic(family, eta):
    """Cov(T_i) per observation for the natural parameters ``eta`` (n, d),
    shape (n, d, d), in closed form: the Hessian of ``log_partition`` in eta_i."""
    eta = np.asarray(eta, dtype=float)
    n = eta.shape[0]
    if isinstance(family, models.GaussianCase1):
        return np.full((n, 1, 1), family.sigma**2)
    if isinstance(family, models.GaussianCase2):
        return (0.5 / eta**2)[:, :, None]  # 2 sigma^4 at sigma^2 = -1/(2 eta)
    if isinstance(family, models.GaussianCase3):
        mu, s2 = -0.5 * eta[:, 0] / eta[:, 1], -0.5 / eta[:, 1]
        out = np.empty((n, 2, 2))
        out[:, 0, 0] = s2
        out[:, 0, 1] = out[:, 1, 0] = 2.0 * mu * s2
        out[:, 1, 1] = 2.0 * s2 * s2 + 4.0 * mu * mu * s2
        return out
    if isinstance(family, models.PoissonModel):
        return np.exp(eta)[:, :, None]
    raise TypeError(f"no covariance for {type(family).__name__}")


def sandwich(V, inner):
    """FimResult of sum_i V_i^T inner_i V_i, assembled as one (n d) x k product."""
    n, d, k = V.shape
    right = np.matmul(inner, V)  # (n, d, k)
    total = V.reshape(n * d, k).T @ right.reshape(n * d, k)
    return FimResult(0.5 * (total + total.T))


def uncensored_sandwich(family, theta, designs):
    """The uncensored information sum_i V_i^T Cov(T_i) V_i, from the per-row
    ``cov_statistic`` stack."""
    theta = family.check_theta(theta)
    return sandwich(designs.V, cov_statistic(family, designs.natural_params(theta)))


def _normal_quad(f, mu, sigma):
    """E[f(x)] for x ~ N(mu, sigma^2), by quadrature split at mu and at 0,
    where |x|^3 has its kink."""
    def integrand(x):
        return f(x) * math.exp(-0.5 * ((x - mu) / sigma) ** 2)

    cuts = [-np.inf, *sorted({0.0, float(mu)}), np.inf]
    total = sum(quad(integrand, a, b, limit=200)[0] for a, b in zip(cuts, cuts[1:]))
    return total / (sigma * math.sqrt(2 * math.pi))


def t3_quad(mu, sigma):
    """The Euclidean E||T||^3 = E[(x^2 (1 + x^2))^(3/2)] of the two-parameter
    Gaussian's T = (x, x^2), for x ~ N(mu, sigma^2), by quadrature."""
    return _normal_quad(lambda x: (x * x * (1.0 + x * x)) ** 1.5, mu, sigma)


def third_abs_moments(family, theta, designs):
    """sum_j E|T_ij|^3 per observation, shape (n,), which is E|T_i|^3 for a
    one-parameter family: one quadrature of E[|x|^3 + x^6] per distinct mean
    for the two-parameter Gaussian, closed forms elsewhere."""
    theta = family.check_theta(theta)
    eta = designs.natural_params(theta)[:, 0]
    if isinstance(family, models.GaussianCase1):
        return _gauss.abs_third_moment(family.sigma**2 * eta, family.sigma)
    if isinstance(family, models.GaussianCase2):
        return np.full(designs.n, 15.0 / theta[0] ** 3)
    if isinstance(family, models.GaussianCase3):
        sigma = 1.0 / math.sqrt(theta[1])
        means, inverse = np.unique(eta * sigma**2, return_inverse=True)
        moment = [_normal_quad(lambda x: abs(x) ** 3 + x**6, m, sigma) for m in means]
        return np.array(moment)[inverse]
    lam = np.exp(eta)
    return lam**3 + 3.0 * lam * lam + lam


# ---------------------------------------------------------------------------
# Closed-form spot information, summed with math.fsum
# ---------------------------------------------------------------------------

def case1_fim(model, alpha, taus):
    """Censored information for the known-variance Gaussian mean,
    sum of w^2 * pdf^2 / (F * (1 - F)) over observations."""
    taus = _as_1d(taus)
    z = (taus - model.weights * float(alpha)) / model.sigma
    terms = model.weights**2 * _gauss.fim_weight(z) / model.sigma**2
    return float(math.fsum(terms))


def case1_uncensored_fim(model):
    """Information from the raw observations: sum of w^2 / sigma^2."""
    return float(math.fsum(model.weights**2)) / model.sigma**2


def case2_fim(model, sigma, taus):
    """Censored information for the known-mean Gaussian precision,
    sum of (sigma^4/4) (tau - mu)^2 pdf^2 / (F (1 - F))."""
    sigma = float(sigma)
    taus = _as_1d(taus)
    z = (taus - model.means) / sigma
    terms = 0.25 * sigma**4 * z * z * _gauss.fim_weight(z)
    return float(math.fsum(terms))


def case2_uncensored_fim(model, sigma):
    """Information from the raw observations: n * sigma^4 / 2."""
    return 0.5 * float(sigma) ** 4 * model.means.shape[0]


def case3_fim(model, alpha, sigma, taus):
    """Censored information for the two-parameter Gaussian, the sum of
    rank-one 2x2 terms weighted by sigma^2 pdf^2/(F (1-F)) per observation."""
    alpha, sigma = float(alpha), float(sigma)
    taus = _as_1d(taus)
    w = model.weights
    mu = w * alpha
    z = (taus - mu) / sigma
    cw = sigma**2 * _gauss.fim_weight(z)
    tp = taus + mu
    out = np.zeros((2, 2))
    out[0, 0] = math.fsum(cw * w * w)
    out[0, 1] = out[1, 0] = math.fsum(cw * w * (-0.5) * tp)
    out[1, 1] = math.fsum(cw * 0.25 * tp * tp)
    return out


def case3_uncensored_fim(model, alpha, sigma):
    """Information from the raw observations, V^T Cov(T) V summed."""
    alpha, sigma = float(alpha), float(sigma)
    w = model.weights
    mu = w * alpha
    s2 = sigma**2
    out = np.zeros((2, 2))
    out[0, 0] = math.fsum(w * w * s2)
    out[0, 1] = out[1, 0] = math.fsum(w * (-0.5) * 2.0 * mu * s2)
    out[1, 1] = math.fsum(np.full_like(w, 0.25) * (2.0 * s2 * s2 + 4.0 * mu**2 * s2))
    return out


def poisson_fim(model, theta, taus):
    """Censored information for the Poisson rate parameter,
    sum of v^2 exp(2 v theta) pmf(t)^2 / (F(t) (1 - F(t))), taken as
    (pmf/F) (pmf/S) since pmf^2 underflows far in the tails."""
    theta = float(np.atleast_1d(theta)[0])
    ds = model.design_set(taus)
    lam = np.exp(model.covariates * theta)
    t = np.floor(ds.taus).astype(np.int64)
    f, sf = _poisson.poisson_tails(t, lam)
    bad = (f == 0.0) | (sf == 0.0)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DegenerateThreshold(
            f"design {idx}: censoring probability is numerically 0 or 1", index=idx
        )
    p_t = _poisson.poisson_pmf(t, lam)
    terms = model.covariates**2 * np.exp(2.0 * model.covariates * theta) * (p_t / f) * (p_t / sf)
    return float(math.fsum(terms))


def poisson_uncensored_fim(model, theta):
    """Information from the raw counts: sum of v^2 exp(v theta)."""
    theta = float(np.atleast_1d(theta)[0])
    return float(math.fsum(model.covariates**2 * np.exp(model.covariates * theta)))


# ---------------------------------------------------------------------------
# Closed-form conditional moments
# ---------------------------------------------------------------------------

def poisson_conditional_mean(lam, tau, b):
    """E[X | B=b] for X ~ Poisson(lam) and the bit of X <= tau.

    Equals lam * F(t-1) / F(t) for b = +1 and lam * S(t-1) / S(t) for
    b = -1, where t = floor(tau) and F and S are ``_poisson.poisson_tails``.
    """
    lam = np.asarray(lam, dtype=float)
    t = np.floor(np.asarray(tau, dtype=float)).astype(np.int64)
    b = np.asarray(b)
    scalar = lam.ndim == 0 and t.ndim == 0 and b.ndim == 0
    lam, t, b = np.atleast_1d(lam), np.atleast_1d(t), np.atleast_1d(b)
    lam, t, b = np.broadcast_arrays(lam, t, b)
    def tail(t):  # the bit's own tail
        cdf, sf = _poisson.poisson_tails(t, lam)
        return np.where(b > 0, cdf, sf)

    out = lam * tail(t - 1) / tail(t)
    return float(out[0]) if scalar else out


def gaussian_conditional_moments(mu, sigma, tau, b):
    """(E[X | B=b], E[X^2 | B=b]) for X ~ N(mu, sigma^2), B the bit of X <= tau.

    E[X | B=b]   = mu - b sigma^2 pdf(tau) / P(B=b)
    E[X^2 | B=b] = sigma^2 + mu^2 - b sigma^2 pdf(tau)/P(B=b) * (tau + mu)

    Raises NumericalError once P(B=b) underflows to zero (standardized
    threshold beyond about +-38 on the conditioning side).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    tau = np.asarray(tau, dtype=float)
    b = np.asarray(b)
    scalar = max(mu.ndim, sigma.ndim, tau.ndim, b.ndim) == 0
    mu, sigma, tau, b = np.atleast_1d(mu, sigma, tau, b)
    mu, sigma, tau, b = np.broadcast_arrays(mu, sigma, tau, b)
    if np.any(sigma <= 0):
        raise DomainError("sigma must be strictly positive")
    z = (tau - mu) / sigma
    # gate degeneracy through the log-CDF: the plain CDF flushes to zero
    # around |z| ~ 37 while exp(log CDF) keeps denormal mass out to ~38.6
    log_pb = np.where(b > 0, special.log_ndtr(z), special.log_ndtr(-z))
    if np.any(np.exp(log_pb) == 0.0):
        raise NumericalError(
            "conditioning event has probability 0 in double precision "
            "(standardized threshold beyond the tail-stability range)"
        )
    c = _gauss.signed_hazard(z, b)
    ex = mu - sigma * c
    ex2 = sigma**2 + mu**2 - sigma * c * (tau + mu)
    if scalar:
        return float(ex[0]), float(ex2[0])
    return ex, ex2


# ---------------------------------------------------------------------------
# Censored information by enumeration over both bits
# ---------------------------------------------------------------------------

def _censoring(model, theta, designs):
    """(theta, P(X_i <= tau_i)); DegenerateThreshold where a censoring
    probability is numerically 0 or 1, since both bits are weighted."""
    theta = model.check_theta(theta)
    f = model.prob_leq(theta, designs)
    _reject(model, (f <= 0.0) | (f >= 1.0))
    return theta, f


def fim_numeric_oracle(model, theta, designs):
    """Independent check of the censored information: enumerate both bits
    per observation and average the outer product of the score computed by
    the likelihood module."""
    theta, f = _censoring(model, theta, designs)

    k = designs.k
    terms = np.empty((designs.n, k, k))
    for i in range(designs.n):
        row = designs.subset(slice(i, i + 1))
        acc = np.zeros((k, k))
        for b, pb in ((1, f[i]), (-1, 1.0 - f[i])):
            s = likelihood.score(model, theta, CensoredDataset(np.array([b]), row))
            acc += np.outer(s, s) * pb
        terms[i] = acc
    total = np.add.reduce(terms, axis=0)
    return FimResult(0.5 * (total + total.T))


def negative_expected_hessian(model, theta, designs):
    """-E[Hessian] with the expectation enumerated over both bit values;
    equals the censored information by the information-matrix equality."""
    theta, f = _censoring(model, theta, designs)

    plus = np.ones(designs.n, dtype=np.int8)
    dev_p = model.cond_devs_T(theta, designs, plus)[1]
    dev_m = model.cond_devs_T(theta, designs, -plus)[1]
    # -E[Cov(T|B) - Cov(T)] = -(dev_+ P(+1) + dev_- P(-1))
    inner = -(dev_p * f[:, None, None] + dev_m * (1.0 - f)[:, None, None])
    return sandwich(designs.V, inner)


# ---------------------------------------------------------------------------
# The paper's deviation route
# ---------------------------------------------------------------------------

def deviation_derivatives(model, theta, data):
    """(score, Hessian, their scales) in theta by the paper's route:
    sum_i V_i^T (n_i mean_dev_i) and sum_i V_i^T (n_i cov_dev_i) V_i, from
    ``cond_devs_T``.  Each scale is the largest entry of the sum of the
    rows' absolute terms: where the rows' terms cancel, no route keeps more
    digits of the total than that allows."""
    theta = model.check_theta(theta)
    mean_dev, cov_dev = model.cond_devs_T(theta, data.designs, data.bits)
    n, V = data.counts.astype(float), data.designs.V
    g = n[:, None] * np.einsum("idk,id->ik", V, mean_dev)
    h = n[:, None, None] * np.einsum("idk,ide,iel->ikl", V, cov_dev, V)
    return g.sum(axis=0), h.sum(axis=0), np.abs(g).sum(axis=0).max(), np.abs(h).sum(axis=0).max()


def deviation_fim(model, theta, designs):
    """The censored information by the paper's route: per row the rank-one
    covariance of E[T | B] over both bits, sum_b P(b) m_b m_b^T for the mean
    deviations m_b (``cond_mean_dev_T``), sandwiched by V.  The deviations
    average to 0, P(-1) m_- = -P(+1) m_+, so it is P(+1) m_+ (m_+ - m_-)^T
    with P(+1) from ``prob_leq``: no 1 - P(+1) loses a small tail's digits."""
    theta, f = _censoring(model, theta, designs)
    plus = np.ones(designs.n, dtype=np.int8)
    m_p = model.cond_mean_dev_T(theta, designs, plus)
    m_m = model.cond_mean_dev_T(theta, designs, -plus)
    return sandwich(designs.V, f[:, None, None] * m_p[:, :, None] * (m_p - m_m)[:, None, :])


def lexsort_runs(columns):
    """(order, starts): a stable lexicographic order of the rows (the last
    column most significant) and where each run of equal rows starts in it.
    The sort-based grouping that ``types._groups`` replaced."""
    n = columns[0].shape[0]
    keys = [c for c in columns if np.any(c != c[0])]
    order = np.lexsort(keys) if keys else np.arange(n)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for key in keys:
        s = key[order]
        new[1:] |= s[1:] != s[:-1]
    return order, np.flatnonzero(new)


def lexsort_grouped(data):
    """(first row, counts) per group of ``data.grouped``, by ``lexsort_runs``:
    the bit most significant, then aux, the threshold and the design entries."""
    designs = data.designs
    aux = [] if designs.aux is None else [designs.aux]
    columns = [*designs.V.reshape(data.n, -1).T, designs.taus, *aux, data.bits]
    order, starts = lexsort_runs(columns)
    return order[starts], np.add.reduceat(data.counts[order], starts)


def lexsort_design_tally(data):
    """(first row, observations, +1 count) per distinct design, the tally of
    ``data.grouped``, by ``lexsort_runs``: aux > threshold > design entries."""
    designs = data.designs
    aux = [] if designs.aux is None else [designs.aux]
    order, starts = lexsort_runs([*designs.V.reshape(data.n, -1).T, designs.taus, *aux])
    counts = data.counts[order]
    plus = np.where(data.bits[order] > 0, counts, 0)
    return order[starts], np.add.reduceat(counts, starts), np.add.reduceat(plus, starts)
