"""Censored-likelihood operations generic over any model family.

For independent observations with bits b_i and designs (V_i, tau_i),
each row i standing for n_i identical observations (``data.counts``),
every quantity comes from the family's linear index z_i = offset_i +
x_i.beta (``index_regressors``), in which P(B_i = +1) is a cdf F:

* log P(B_i = b_i):       the family's ``index_link`` at z_i: log F(b_i z_i)
                          for the Gaussian families, the log of each bit's
                          own tail for Poisson
* log-likelihood:         sum_i n_i log P(b_i)
* score and Hessian:      in beta, X^T (n s) and X^T diag(n r) X for the
                          link's derivatives s and r in z; in theta by the
                          chain rule through theta(beta) (``to_theta``)

These equal the paper's sum_i n_i V_i^T (E[T_i | B_i=b_i] - E[T_i]) and
sum_i n_i V_i^T (Cov(T_i | B_i=b_i) - Cov(T_i)) V_i.

Every sum over rows has a fixed order: each entry of the score, the
Hessian and the information is one numpy pairwise sum over per-row
products (``gram``), not a BLAS product, whose split of the rows over
threads changes the rounding; the log-likelihood reduction uses math.fsum
over the rounded terms n_i log P(b_i), whose correctly rounded result is
additionally invariant under permutations of the rows.
"""

import math

import numpy as np

from .exceptions import DegenerateLikelihood


def log_bit_probabilities(model, theta, data):
    """log P(B_i = b_i) per observation, shape (n,)."""
    X, offset = model.index_regressors(data.designs)
    z = offset + X.dot(model.index_from_theta(model.check_theta(theta)))
    return model.index_link(z, data.designs, data.bits)[0]


def _sum_logs(log_probs, data):
    """sum_i n_i log P(b_i); DegenerateLikelihood where a bit has probability 0."""
    if np.any(log_probs == -np.inf):
        raise DegenerateLikelihood.at_observation(int(np.argmax(log_probs == -np.inf)))
    return math.fsum(log_probs * data.counts)


def log_likelihood(model, theta, data):
    """Censored log-likelihood sum_i n_i log P(B_i = b_i; theta).

    Raises DegenerateLikelihood (reporting the observation) instead of
    returning -inf when some observed bit has probability zero.
    """
    return _sum_logs(log_bit_probabilities(model, theta, data), data)


def _inverse_jacobian(model, beta):
    """(d theta / d beta)^-1 by the adjugate (k <= 2), infinite where it is
    singular, on the wall beta_p = 0; None where theta = beta."""
    if model.index_curvature is None:
        return None
    J = model.index_curvature @ beta
    adj = np.array([[J[1, 1], -J[0, 1]], [-J[1, 0], J[0, 0]]]) if len(J) == 2 else np.ones((1, 1))
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0] if len(J) == 2 else J[0, 0]
    return adj / det if det else np.full(J.shape, np.inf)


def to_theta(model, beta, grad, hess):
    """(score, Hessian) in theta from those in the index parameter beta, the
    Hessian symmetrized.  theta(beta) has constant second derivatives C, so
    with J = d theta / d beta: J^-T g and J^-T (H - C^T (J^-T g)) J^-1.  At
    a zero score this takes an information matrix to theta too."""
    inverse = _inverse_jacobian(model, beta)
    if inverse is not None:
        grad = inverse.T @ grad
        hess = inverse.T @ (hess - model.index_curvature.T @ grad) @ inverse
    return grad, 0.5 * (hess + hess.T)


def evaluate(model, theta, data):
    """(log-likelihood, score, hessian) in theta: ``index_evaluate`` at the
    index parameter of theta, taken to theta by ``to_theta``."""
    beta = model.index_from_theta(model.check_theta(theta))
    ll, g, h, _ = index_evaluate(model, beta, data, model.index_regressors(data.designs))
    return (ll, *to_theta(model, beta, g, h))


def gram(X, w):
    """sum_i w_i x_i x_i^T over the rows x_i of ``X``, shape (k, k), each
    entry summed once and mirrored, so exactly symmetric."""
    k = X.shape[1]
    out = np.empty((k, k))
    for m in range(k):
        xw = X[:, m] * w
        for j in range(m, k):
            out[j, m] = out[m, j] = np.add.reduce(X[:, j] * xw)
    return out


def index_evaluate(model, beta, data, index):
    """(log-likelihood, score, hessian, (s, r)) at any beta in R^k, for
    ``index = model.index_regressors(data.designs)``: with the link's
    derivatives s and r per row, X^T (n s) and X^T diag(n r) X, and s and r
    themselves.  The solver's workhorse."""
    X, offset = index
    z = offset + X.dot(beta)
    log_probs, s, r = model.index_link(z, data.designs, data.bits)
    ll = _sum_logs(log_probs, data)
    ns = s * data.counts
    return ll, np.array([np.add.reduce(x * ns) for x in X.T]), gram(X, r * data.counts), (s, r)


def score(model, theta, data):
    """Gradient of the censored log-likelihood, shape (k,)."""
    return evaluate(model, theta, data)[1]


def hessian(model, theta, data):
    """Hessian of the censored log-likelihood, shape (k, k)."""
    return evaluate(model, theta, data)[2]
