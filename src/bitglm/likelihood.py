"""Censored-likelihood operations generic over any model family.

For independent observations with bits b_i and designs (V_i, tau_i),
each row i standing for n_i identical observations (``data.counts``):

* probability of a bit:   P(+1) = F(tau), P(-1) = 1 - F(tau)
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
from .types import CensoredDataset, DesignSet


def _theta_values(model, theta):
    values = np.atleast_1d(np.asarray(getattr(theta, "values", theta), dtype=float))
    model.check_theta(values)
    return values


def bit_probabilities(model, theta, data):
    """P(B_i = b_i) per observation, shape (n,)."""
    theta = _theta_values(model, theta)
    f = model.prob_leq(theta, data.designs)
    return np.where(data.bits > 0, f, 1.0 - f)


def censored_prob(model, theta, design, b):
    """Probability of observing bit ``b`` for one design.

    Both bits are complements of a single CDF evaluation, so they sum to
    one exactly.
    """
    if b not in (-1, 1):
        raise ValueError("bit must be -1 or +1")
    theta = _theta_values(model, theta)
    designs = DesignSet.coerce([design])
    f = float(model.prob_leq(theta, designs)[0])
    return f if b == 1 else 1.0 - f


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


def score(model, theta, data):
    """Gradient of the censored log-likelihood, shape (k,)."""
    theta = _theta_values(model, theta)
    probs = bit_probabilities(model, theta, data)
    _check_not_degenerate(probs)
    dev = _per_row(model.cond_mean_dev_T(theta, data.designs, data.bits), data)  # (n, d)
    V = data.designs.V
    n, d, k = V.shape
    return V.reshape(n * d, k).T @ dev.reshape(n * d)


def hessian(model, theta, data):
    """Hessian of the censored log-likelihood, shape (k, k).

    Symmetrized after assembly to remove floating-point asymmetry.
    """
    theta = _theta_values(model, theta)
    probs = bit_probabilities(model, theta, data)
    _check_not_degenerate(probs)
    dev = _per_row(model.cond_cov_dev_T(theta, data.designs, data.bits), data)  # (n, d, d)
    V = data.designs.V
    n, d, k = V.shape
    tmp = np.matmul(dev, V)  # (n, d, k)
    h = V.reshape(n * d, k).T @ tmp.reshape(n * d, k)
    return 0.5 * (h + h.T)


def evaluate(model, theta, data):
    """(log-likelihood, score, hessian) sharing one probability pass.

    Same values as the three separate operations; this is the solver's
    per-iteration workhorse.
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


def third_derivative_tensor(model, theta, data):
    """Third derivative tensor of the censored log-likelihood, shape (k, k, k).

    Diagnostic only; no solver consumes it.  Assembled from the difference
    of conditional and unconditional third central moments of T contracted
    with three copies of each design matrix.
    """
    theta = _theta_values(model, theta)
    probs = bit_probabilities(model, theta, data)
    _check_not_degenerate(probs)
    k_cond = model.cond_third_central_T(theta, data.designs, data.bits)
    k_unc = model.third_central_T(theta, data.designs)
    diff = _per_row(k_cond - k_unc, data)  # (n, d, d, d)
    V = data.designs.V
    contrib = np.einsum("nja,nlb,nkc,njlk->nabc", V, V, V, diff)
    return np.add.reduce(contrib, axis=0)


def score_single(model, theta, design, b):
    """Score of a single observation (convenience for enumeration oracles)."""
    data = CensoredDataset(np.array([b]), DesignSet.coerce([design]))
    return score(model, theta, data)
