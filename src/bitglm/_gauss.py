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
    single quantity from which every truncated-normal moment below is
    assembled; it stays finite even when P(B=b) underflows to zero.
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


def truncated_std_moments(z, bits, order):
    """Raw moments of a standard normal conditioned on one side of z.

    For Y ~ N(0, 1), returns [M_1, ..., M_order] with
    M_k = E[Y^k | Y <= z] when the bit is +1 and E[Y^k | Y > z] when -1.
    Uses the integration-by-parts recursion
        M_k = (k - 1) * M_{k-2} - z^{k-1} * c,    c = b * pdf(z) / P(B=b),
    seeded by M_0 = 1, M_1 = -c.

    Parameters
    ----------
    z : array_like
        Standardized thresholds.
    bits : array_like
        Conditioning side per entry, each -1 or +1.
    order : int
        Highest moment to return (>= 1).

    Returns
    -------
    list of ndarray
        Moments M_1 .. M_order, each shaped like ``z``.
    """
    z = np.asarray(z, dtype=float)
    c = signed_hazard(z, bits)
    moments = []
    m_prev2 = np.ones_like(z)  # M_0
    m_prev1 = -c               # M_1
    moments.append(m_prev1)
    zpow = z.copy() if z.ndim else np.asarray(z, dtype=float)
    for k in range(2, order + 1):
        m_k = (k - 1) * m_prev2 - zpow * c
        moments.append(m_k)
        m_prev2, m_prev1 = m_prev1, m_k
        zpow = zpow * z
    return moments


def abs_third_moment(mu, sigma):
    """E[|X|^3] for X ~ N(mu, sigma^2), exact via half-line moments.

    Splits at zero and applies the truncated-moment recursion on each
    half, so no quadrature is involved.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    z0 = (0.0 - mu) / sigma
    lower = np.broadcast_to(np.int8(1), z0.shape)
    upper = np.broadcast_to(np.int8(-1), z0.shape)
    m_lo = truncated_std_moments(z0, lower, 3)
    m_hi = truncated_std_moments(z0, upper, 3)

    def raw3(m):
        # E[X^3 | side] from standardized moments
        return mu**3 + 3.0 * mu**2 * sigma * m[0] + 3.0 * mu * sigma**2 * m[1] + sigma**3 * m[2]

    p_lo = norm_cdf(z0)
    return raw3(m_hi) * (1.0 - p_lo) - raw3(m_lo) * p_lo
