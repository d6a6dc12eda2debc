"""Tail-stable building blocks for the normal distribution.

Everything here works on standardized coordinates z = (tau - mu) / sigma.
The numerically delicate quantity is the hazard ratio pdf/tail: the naive
quotient is 0/0 once the tail probability underflows, so all hazard-type
ratios are routed through the scaled complementary error function, which
stays accurate for arbitrarily large |z|.
"""

import math

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_pdf(z):
    """Standard normal density."""
    z = np.asarray(z, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def norm_cdf(z):
    """Standard normal CDF (scipy's ndtr, accurate into the far tails)."""
    return special.ndtr(np.asarray(z, dtype=float))


def norm_logcdf(z):
    """log of the standard normal CDF, stable for very negative z."""
    return special.log_ndtr(np.asarray(z, dtype=float))


def norm_ppf(p):
    """Standard normal quantile function."""
    return special.ndtri(np.asarray(p, dtype=float))


def hazard(z):
    """pdf(z) / (1 - CDF(z)), stable for all finite z.

    Uses pdf/tail = sqrt(2/pi) / erfcx(z / sqrt(2)); erfcx is the scaled
    complementary error function, so the quotient never forms 0/0 even
    where the tail probability itself underflows.
    """
    z = np.asarray(z, dtype=float)
    return _SQRT_2_OVER_PI / special.erfcx(z / _SQRT2)


def signed_hazard(z, bits):
    """b * pdf(z) / P(B=b) for bits b in {-1, +1}.

    P(B=+1) = CDF(z) and P(B=-1) = 1 - CDF(z).  This signed ratio is the
    single quantity from which every truncated-normal moment is assembled;
    it stays finite even when P(B=b) underflows to zero.
    """
    z = np.asarray(z, dtype=float)
    bits = np.asarray(bits)
    if z.ndim == 0 or bits.ndim == 0:
        z, bits = np.broadcast_arrays(z, bits)
    # evaluate each side only where needed (erfcx dominates the cost)
    plus = bits > 0
    out = np.empty(z.shape, dtype=float)
    out[plus] = hazard(-z[plus])
    out[~plus] = -hazard(z[~plus])
    return out


def fim_weight(z):
    """pdf(z)^2 / (CDF(z) * (1 - CDF(z))), the per-observation censored
    information weight.

    With a = |z|, hazard(a) is the smaller tail's hazard and the larger
    tail is 1 - pdf(a)/hazard(a) >= 1/2, so hazard(a) * pdf(a) divided by
    it costs one erfcx call, at a nonnegative argument, and cancels nothing.
    """
    a = np.abs(np.asarray(z, dtype=float))
    pdf, h = norm_pdf(a), hazard(a)
    return h * pdf / (1.0 - pdf / h)


def abs_third_moment(mu, sigma):
    """E[|X|^3] for X ~ N(mu, sigma^2), in closed form: with m = mu / sigma,

        sigma^3 (sqrt(2/pi) (m^2 + 2) exp(-m^2/2) + m (m^2 + 3) erf(m/sqrt(2))).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    m = mu / sigma
    m2 = m * m
    return sigma**3 * (
        _SQRT_2_OVER_PI * (m2 + 2.0) * np.exp(-0.5 * m2) + m * (m2 + 3.0) * special.erf(m / _SQRT2)
    )
