"""Censored-likelihood operations generic over any model family.

For independent observations with bits b_i and designs (V_i, tau_i),
each row i standing for n_i identical observations (``data.counts``):

* log P(B_i = b_i):       the family's ``index_link`` at the linear index
                          z_i: log CDF(b_i z_i) for the Gaussian families,
                          the log of each bit's own tail for Poisson
* log-likelihood:         sum_i n_i log P(b_i)
* score (gradient):       sum_i n_i V_i^T (E[T_i | B_i=b_i] - E[T_i])
* Hessian:                sum_i n_i V_i^T (Cov(T_i | B_i=b_i) - Cov(T_i)) V_i

The summation order is fixed (row order) and the log-likelihood reduction
uses math.fsum over the rounded terms n_i log P(b_i), whose correctly
rounded result is additionally invariant under permutations of the rows.
"""

import math

import numpy as np

from .exceptions import DegenerateLikelihood


def _theta_values(model, theta):
    values = np.atleast_1d(np.asarray(getattr(theta, "values", theta), dtype=float))
    model.check_theta(values)
    return values


def log_bit_probabilities(model, theta, data):
    """log P(B_i = b_i) per observation, shape (n,)."""
    X, offset = model.index_regressors(data.designs)
    z = offset + X @ model.index_from_theta(_theta_values(model, theta))
    return model.index_link(z, data.designs, data.bits)[0]


def _per_row(terms, data):
    """Per-row terms weighted by the rows' counts, shape unchanged."""
    return terms * data.counts.reshape((-1,) + (1,) * (terms.ndim - 1))


def _sum_logs(log_probs, data):
    """sum_i n_i log P(b_i); DegenerateLikelihood where a bit has probability 0."""
    if np.any(log_probs == -np.inf):
        raise DegenerateLikelihood.at_observation(int(np.argmax(log_probs == -np.inf)))
    return math.fsum(_per_row(log_probs, data))


def log_likelihood(model, theta, data):
    """Censored log-likelihood sum_i n_i log P(B_i = b_i; theta).

    Raises DegenerateLikelihood (reporting the observation) instead of
    returning -inf when some observed bit has probability zero.
    """
    return _sum_logs(log_bit_probabilities(model, theta, data), data)


def evaluate(model, theta, data):
    """(log-likelihood, score, hessian) in theta.

    The one place the score and the Hessian in theta (symmetrized after
    assembly) are formed.
    """
    theta = _theta_values(model, theta)
    ll = log_likelihood(model, theta, data)
    mean_dev, cov_dev = model.cond_devs_T(theta, data.designs, data.bits)
    mean_dev, cov_dev = _per_row(mean_dev, data), _per_row(cov_dev, data)
    V = data.designs.V
    n, d, k = V.shape
    flat = V.reshape(n * d, k)
    g = flat.T @ mean_dev.reshape(n * d)
    h = flat.T @ np.matmul(cov_dev, V).reshape(n * d, k)
    return ll, g, 0.5 * (h + h.T)


def index_evaluate(model, beta, data, index):
    """(log-likelihood, score, hessian) at any beta in R^k, for ``index =
    model.index_regressors(data.designs)``: with the link's derivatives s
    and r, X^T (n s) and X^T diag(n r) X.  The solver's workhorse."""
    X, offset = index
    log_probs, s, r = model.index_link(offset + X @ beta, data.designs, data.bits)
    ll = _sum_logs(log_probs, data)
    h = X.T @ (X * _per_row(r, data)[:, None])
    return ll, X.T @ _per_row(s, data), 0.5 * (h + h.T)


def score(model, theta, data):
    """Gradient of the censored log-likelihood, shape (k,)."""
    return evaluate(model, theta, data)[1]


def hessian(model, theta, data):
    """Hessian of the censored log-likelihood, shape (k, k)."""
    return evaluate(model, theta, data)[2]

