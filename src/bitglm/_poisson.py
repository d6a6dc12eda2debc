"""Poisson tail probabilities and the probability mass function.

``far_tail`` is the one tail kernel: per row it evaluates only the tail on
the far side of the rate, P(X > t) where t + 1 > lam and P(X <= t)
elsewhere, and returns it with that side.  The other tail is its
complement.  ``poisson_tails`` places the two; the Poisson family reads the
far tail directly, as its information weight is symmetric in the two tails
and its likelihood needs only each bit's own.  Rows take one of three
routes:

- t < 0 gives (0, 1) exactly.
- A left tail below ``SUM_BELOW_RATE`` (t + 1 <= lam < 16, so t <= 14) is
  its finite sum exp(-lam) sum_{j <= t} lam^j / j!, taken by Horner from
  the top.  Every term is positive, so nothing cancels: against 50-digit
  mpmath on 3,000 random such rows it is within 3.3 eps (median 0.30 eps),
  where scipy's ``pdtr`` is within 18.1 eps (median 1.37 eps).  A row's
  value depends on its own (t, lam) alone, not on the other rows of its
  call.
- Every other row is scipy's regularized incomplete gamma ratio, ``pdtrc``
  for a right tail and ``pdtr`` for a left one (DiDonato & Morris, ACM
  TOMS 12(4), 1986), at 60-125 ns a row in row order.  From
  ``_order.ORDERED_ROWS`` rows on, a route evaluates them in blocks sorted
  by t and then by the rate (``_gamma_key``), whose series lengths they
  set: on the 5,820 right tails of the info-sweep design, 99 ns a row
  against 113 ns in row order (2-vCPU Xeon).  Its complement is scipy's own
  other tail bit for bit, except in scipy's asymptotic bands, at t = 0
  with 1/1.1 <= lam <= 1.1, and at lam = t + 1 exactly, where scipy
  evaluates the two ratios separately.

The complement keeps full relative precision: by the t + 1 vs lam rule the
evaluated tail is at most 1 - 1/e, so the complement is at least 1/e and
its relative error is at most e - 1 times the evaluated tail's, plus one
rounding.  Both tails therefore keep their digits far into the tails for
every rate the models accept.

``poisson_pmf`` reads log t! from a table of scipy's ``gammaln(t + 1)``
and calls ``gammaln`` only on the rows off the table, so its values, and
their loss of about lam * eps relative, are the gammaln formula's.

Cost per row: one special function, the incomplete gamma or the summed
tail, plus a few numpy passes to pick each row's route, gather its
arguments and place its value, and above ``_order.ORDERED_ROWS`` rows on
a route, its key, sort and reordering; the pmf adds a log, an exp and its
table lookup.  On the 10^4 rows of ``bench/workloads.iid_instance`` (a
2-vCPU Xeon) the special functions take about 0.7 ms of the family's
1.5 ms ``fisher.dpi_check`` (``tools/trial_stages.py`` prints both).

All functions are vectorized over observations; thresholds are whole-number
floats (callers apply the floor rule before arriving here).
"""

import numpy as np
from scipy import special

from ._order import in_key_order

#: Rates below which a left tail is summed.  The sum then has at most 15
#: terms, and each summed row of a call takes as many Horner steps as the
#: call's largest summed t, about 2 ns a row each: on a 2-vCPU Xeon, 31 ns
#: a row at t = 14 and 9 ns at t = 3, against 92 and 62-70 ns for
#: ``pdtr``.  Near a bound of 40, one large t would make every summed row
#: of its call cost what ``pdtr`` does; 16 keeps that worst case at a third.
#: The sum's numpy calls also cost about 7 us a call whatever its rows, so
#: a call with only a few summed rows pays more than ``pdtr`` would.
SUM_BELOW_RATE = 16.0

#: Horner's steps m, from 14, the largest t a summed row can have, down to 1.
_STEPS = np.arange(SUM_BELOW_RATE - 2.0, 0.0, -1.0)[:, None]

#: Whole numbers t whose log t! is read from the table.  Its 8 KiB stay in
#: the first-level cache, and building it takes about 60 us at import.
#: With the table the pmf costs about 8 ns a row at small t, against 28 ns
#: with ``gammaln`` on every row.
LOG_FACTORIAL_ROWS = 1024

_LOG_FACTORIAL = special.gammaln(np.arange(LOG_FACTORIAL_ROWS) + 1.0)


def far_tail(t, lam):
    """(far, right) for whole-number float thresholds ``t`` and rates ``lam``,
    both of shape (n,): per row the tail on the far side of the rate, and
    whether it is the right one.  ``right`` is t + 1 > lam, where ``far`` is
    P(X > t); elsewhere ``far`` is P(X <= t), 0 at t < 0.  The other tail is
    1 - far."""
    right = t + 1 > lam
    left = np.nonzero(~right & (t >= 0))[0]
    small = lam[left] < SUM_BELOW_RATE
    far = np.zeros(t.size)
    for rows, tail in (
        (np.nonzero(right)[0], pdtrc),
        (left[~small], pdtr),
        (left[small], _left_tail_sum),
    ):
        if rows.size:
            far[rows] = tail(t[rows], lam[rows])
    return far, right


def _gamma_key(t, lam):
    """The incomplete gamma's route and series length follow t and lam: a
    16-bit key, t-major, min(t, 511) * 64 + min(4 lam, 63)."""
    key = np.minimum(t, 511.0)
    key *= 64.0
    key += np.minimum(4.0 * lam, 63.0)
    return key.astype(np.int16)


def pdtrc(t, lam):
    """scipy's pdtrc, evaluated in ``_gamma_key`` order."""
    return in_key_order(special.pdtrc, _gamma_key, t, lam)


def pdtr(t, lam):
    """scipy's pdtr, evaluated in ``_gamma_key`` order."""
    return in_key_order(special.pdtr, _gamma_key, t, lam)


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
    t = np.atleast_1d(np.asarray(t, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if t.shape != lam.shape:
        t, lam = np.broadcast_arrays(t, lam)
    shape = t.shape
    far, right = far_tail(t.ravel(), lam.ravel())
    near = 1.0 - far
    return np.where(right, near, far).reshape(shape), np.where(right, far, near).reshape(shape)


def _left_tail_sum(t, lam):
    """exp(-lam) sum_{j <= t} lam^j / j! for whole 0 <= t <= 14, by Horner
    from the top: 1 + lam/1 (1 + lam/2 (... (1 + lam/t))).  Each step m
    multiplies by lam/m where m <= t and by 0 elsewhere, so a row's sum
    stays 1 until m reaches its own t, and its value does not depend on the
    other rows."""
    m = _STEPS[_STEPS.shape[0] - int(t.max()):]
    acc = np.ones(t.size)
    # a product with the mask, not np.where, which branches on each entry,
    # and in place, which spares a cast copy of it
    ratios = lam / m
    ratios *= m <= t
    for ratio in ratios:
        acc *= ratio
        acc += 1.0
    return np.exp(-lam) * acc


def poisson_cdf(t, lam):
    """P(X <= t), elementwise; entries with t < 0 give 0."""
    return poisson_tails(t, lam)[0]


def poisson_sf(t, lam):
    """P(X > t), elementwise; entries with t < 0 give 1."""
    return poisson_tails(t, lam)[1]


def poisson_pmf(x, lam):
    """P(X = x), elementwise, as exp(x log lam - lam - log x!).  Not exact:
    the exponent's terms cancel, so it loses about lam * eps relative
    (3.6e-11 at lam = 1e4, worst over x within 3 sd of lam, against mpmath)."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    k = np.minimum(np.maximum(x, 0.0), LOG_FACTORIAL_ROWS - 1).astype(np.intp)
    log_factorial = np.asarray(_LOG_FACTORIAL[k])  # an array, not a scalar, at 0-d x
    # past the table, and at negative x (masked to 0 below), gammaln itself
    off = x != k
    if off.any():
        log_factorial[off] = special.gammaln(x[off] + 1.0)
    out = np.exp(x * np.log(lam) - lam - log_factorial)
    return np.where(x < 0, 0.0, out)
