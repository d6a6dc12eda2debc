"""Censored-likelihood operations generic over any model family.

For independent observations with bits b_i and designs (V_i, tau_i),
each row i standing for n_i identical observations (``data.counts``):

* probability of a bit:   P(+1) = F(tau), P(-1) = 1 - F(tau), the family's
                          ``bit_prob``: exact complements for the Gaussian
                          families, each bit's own tail for Poisson
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


def bit_probabilities(model, theta, data):
    """P(B_i = b_i) per observation, shape (n,)."""
    return model.bit_prob(_theta_values(model, theta), data.designs, data.bits)


def _per_row(terms, data):
    """Per-row terms weighted by the rows' counts, shape unchanged."""
    return terms * data.counts.reshape((-1,) + (1,) * (terms.ndim - 1))


def _check_not_degenerate(probs):
    if np.any(probs <= 0.0):
        raise DegenerateLikelihood.at_observation(int(np.argmax(probs <= 0.0)))


def log_likelihood(model, theta, data):
    """Censored log-likelihood sum_i n_i log P(B_i = b_i; theta).

    Raises DegenerateLikelihood (reporting the observation) instead of
    returning -inf when some observed bit has probability zero.
    """
    probs = bit_probabilities(model, theta, data)
    _check_not_degenerate(probs)
    return math.fsum(_per_row(np.log(probs), data))


def evaluate(model, theta, data):
    """(log-likelihood, score, hessian) sharing one probability pass.

    The solver's per-iteration workhorse and the one place the score and
    the Hessian (symmetrized after assembly) are formed.
    """
    theta = _theta_values(model, theta)
    probs = bit_probabilities(model, theta, data)
    _check_not_degenerate(probs)
    ll = math.fsum(_per_row(np.log(probs), data))
    mean_dev, cov_dev = model.cond_devs_T(theta, data.designs, data.bits)
    mean_dev, cov_dev = _per_row(mean_dev, data), _per_row(cov_dev, data)
    V = data.designs.V
    n, d, k = V.shape
    flat = V.reshape(n * d, k)
    g = flat.T @ mean_dev.reshape(n * d)
    h = flat.T @ np.matmul(cov_dev, V).reshape(n * d, k)
    return ll, g, 0.5 * (h + h.T)


def score(model, theta, data):
    """Gradient of the censored log-likelihood, shape (k,)."""
    return evaluate(model, theta, data)[1]


def hessian(model, theta, data):
    """Hessian of the censored log-likelihood, shape (k, k)."""
    return evaluate(model, theta, data)[2]

