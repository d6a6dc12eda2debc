"""Independent verification routes used by the tests.

Everything here deliberately avoids the library's own computation paths:
finite differences for derivatives, quadrature/summation for moments and
Poisson tail probabilities, and dense grid search for maximizers.
"""

import math

import numpy as np
from scipy.integrate import quad


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

    from bitglm import models

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
