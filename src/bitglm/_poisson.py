"""Poisson tail probabilities and the probability mass function.

The CDF and the survival function are scipy's regularized incomplete
gamma ratios ``pdtr`` and ``pdtrc`` (DiDonato & Morris, ACM TOMS 12(4),
1986).  Each tail is evaluated directly, never as the complement of the
other, so both keep full relative precision far into the tails for every
rate the models accept.

All functions are vectorized over observations; thresholds are integers
(callers apply the floor rule before arriving here).
"""

import numpy as np
from scipy import special


def _tail(fn, t, lam, below):
    """``fn(t, lam)`` elementwise, with ``below`` where t < 0 (outside the
    support, where the incomplete gamma route returns NaN)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.int64))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return np.where(t < 0, below, fn(np.maximum(t, 0), lam))


def poisson_cdf(t, lam):
    """P(X <= t) for X ~ Poisson(lam), elementwise.

    Parameters
    ----------
    t : array_like of int
        Thresholds; entries below 0 give probability 0.
    lam : array_like of float
        Poisson rates, each > 0.

    Returns
    -------
    ndarray of float
    """
    return _tail(special.pdtr, t, lam, 0.0)


def poisson_sf(t, lam):
    """P(X > t), elementwise; entries with t < 0 give 1.

    Computed directly (never as 1 - CDF), so survival probabilities far
    below the cancellation floor of the complement keep their digits.
    """
    return _tail(special.pdtrc, t, lam, 1.0)


def bit_prob(t, lam, bits):
    """P(B = b) for the bit b of X <= t: the CDF where b = +1 and the
    survival function where b = -1, each evaluated only where needed."""
    t, lam, bits = np.broadcast_arrays(
        np.atleast_1d(t), np.atleast_1d(lam), np.atleast_1d(bits)
    )
    plus = bits > 0
    out = np.empty(t.shape, dtype=float)
    out[plus] = poisson_cdf(t[plus], lam[plus])
    out[~plus] = poisson_sf(t[~plus], lam[~plus])
    return out


def poisson_pmf(x, lam):
    """P(X = x), elementwise; exact recurrence-free form via gammaln."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = np.exp(x * np.log(lam) - lam - special.gammaln(x + 1.0))
    return np.where(x < 0, 0.0, out)

