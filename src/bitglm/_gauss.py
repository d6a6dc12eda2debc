"""Tail-stable building blocks for the normal distribution.

Everything here works on standardized coordinates z = (tau - mu) / sigma.
The numerically delicate quantity is the hazard ratio pdf/tail: the naive
quotient is 0/0 once the tail probability underflows, so all hazard-type
ratios are routed through the scaled complementary error function, which
stays accurate for arbitrarily large |z|.

Cost per row: one erfcx, and for ``log_cdf_and_signed_hazard`` one
log_ndtr too, plus a few numpy passes.  From ``_order.ORDERED_ROWS`` rows
on, a call evaluates them in blocks sorted by erfcx's Chebyshev piece
(``_erfcx_piece``), which keeps their branches predictable: on a 2-vCPU
Xeon at 10^4 rows, erfcx costs 17 ns a row that way against 29 ns in row
order, and log_ndtr with erfcx 49 against 81 ns.
"""

import math

import numpy as np
from scipy import special

from ._order import in_key_order

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
    return _SQRT_2_OVER_PI / erfcx(z / _SQRT2)


def erfcx(x):
    """scipy's erfcx, evaluated in the order of each row's Chebyshev piece."""
    return in_key_order(special.erfcx, _erfcx_piece, x)


def _erfcx_piece(x, *_):
    """Faddeeva's erfcx evaluates |x| < 50 on the Chebyshev piece
    floor(400 / (4 + |x|)), at x < 0 after an exp: that piece with the sign
    of x, an int8.  Further arguments, evaluated in the same order, are not
    read."""
    a = np.abs(x)
    a += 4.0
    np.divide(400.0, a, out=a)
    np.copysign(a, x, out=a)
    with np.errstate(invalid="ignore"):  # a nan row may take any key
        return a.astype(np.int8)


def signed_hazard(z, bits):
    """b * pdf(z) / P(B=b) for bits b in {-1, +1}.

    P(B=+1) = CDF(z) and P(B=-1) = 1 - CDF(z).  This signed ratio is the
    single quantity from which every truncated-normal moment is assembled;
    it stays finite even when P(B=b) underflows to zero.
    """
    bits = np.asarray(bits)
    # b * hazard(-b z): one erfcx per row, and exact, as b = +-1
    return bits * hazard(-bits * np.asarray(z, dtype=float))


def log_cdf_and_signed_hazard(z, bits):
    """(log P(B=b), ``signed_hazard``) per row: log_ndtr(b z) and the one erfcx
    of the hazard, evaluated in one key order."""
    bits = np.asarray(bits)
    bz = bits * np.asarray(z, dtype=float)
    log_p, e = in_key_order(_log_ndtr_and_erfcx, _erfcx_piece, -bz / _SQRT2, bz)
    return log_p, bits * (_SQRT_2_OVER_PI / e)


def _log_ndtr_and_erfcx(x, y):
    return special.log_ndtr(y), special.erfcx(x)


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
    """E[|X|^3] for X ~ N(mu, sigma^2), in closed form in mu and sigma, so
    that it leaves the float range only where it does: with m = mu / sigma,

        sqrt(2/pi) sigma (mu^2 + 2 sigma^2) exp(-m^2/2) + mu (mu^2 + 3 sigma^2) erf(m/sqrt(2)).

    Both terms are >= 0, so a nan can only be 0 times an overflowed factor:
    it reads inf, without a warning.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        m = mu / sigma
        mu2, s2 = mu * mu, sigma * sigma
        tail = _SQRT_2_OVER_PI * sigma * (mu2 + 2.0 * s2) * np.exp(-0.5 * (m * m))
        moment = tail + mu * (mu2 + 3.0 * s2) * special.erf(m / _SQRT2)
    return np.where(np.isnan(moment), np.inf, moment)
