"""Core value types: designs and censored datasets.

A parameter theta is a plain (k,) float array; its domain belongs to the
model family (``ModelFamily.domain``, checked by ``check_theta``).
Designs have one form, ``DesignSet``: the (V_i, tau_i) of all
observations stacked into arrays, which every layer takes.  All types are
immutable after construction (arrays are made read-only), so they can be
shared freely across workers; a design set shares, and does not copy, an
array that another design set holds.  ``is_finite_number`` and
``is_integer`` are the number checks of every config type.
"""

import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np


def is_finite_number(value):
    """Whether ``value`` is a finite real number, and not a bool."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        return real and math.isfinite(value)
    except OverflowError:
        return False


def is_integer(value, minimum):
    """Whether ``value`` is an integer >= ``minimum``, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


#: The float arrays that design sets hold, by id: read-only, checked and owned
#: by them alone.  An array from outside is never held: its owner can write it.
_HELD = weakref.WeakValueDictionary()


def _hold(a):
    """``a``, read-only and held: a fresh array, or a view of a held one."""
    a.setflags(write=False)
    _HELD[id(a)] = a
    return a


def _kept(a, error):
    """``a`` if held and still read-only, else a held copy: ValueError(``error``) unless finite."""
    if _HELD.get(id(a)) is a and not a.flags.writeable:
        return a
    a = _hold(np.array(a, dtype=float, copy=True))
    if not np.isfinite(a).all():
        raise ValueError(error)
    return a


def _checked(cls, **fields):
    """``cls`` holding ``fields``, read-only, past its constructor's checks and
    copies: for fresh arrays taken from checked ones."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


class DesignSet:
    """The designs of n observations, stored as stacked arrays.

    ``V`` (n, d, k) holds the design matrices and ``taus`` (n,) the
    thresholds.  ``aux`` (n,) optionally carries a per-observation known
    constant that some model families read (the known mean of a
    variance-only Gaussian model); families that do not need it ignore it.
    Fields are set at construction; ``_passed`` records the families that
    have checked the set.  Arguments are copied and checked finite, except
    held ones: ``DesignSet(ds.V, taus, ds.aux)`` copies ``taus`` alone.
    """

    __slots__ = ("V", "taus", "aux", "_passed")

    def __init__(self, V, taus, aux=None):
        V = _kept(V, "designs must be finite")
        if V.ndim != 3:
            raise ValueError("stacked designs must have shape (n, d, k)")
        taus = _kept(taus, "designs must be finite")
        if taus.shape != (V.shape[0],):
            raise ValueError("thresholds must have shape (n,)")
        if V.shape[0] < 1 or V.shape[1] < 1 or V.shape[2] < 1:
            raise ValueError("need n, d, k >= 1")
        if aux is not None:
            aux = _kept(aux, "aux must be finite, of shape (n,)")
            if aux.shape != taus.shape:
                raise ValueError("aux must be finite, of shape (n,)")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "aux", aux)
        object.__setattr__(self, "_passed", set())

    def __setattr__(self, name, value):
        raise AttributeError(f"DesignSet.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"DesignSet.{name} is read-only")

    def __reduce__(self):  # a copy is checked afresh
        return DesignSet, (self.V, self.taus, self.aux)

    @property
    def n(self):
        return self.V.shape[0]

    @property
    def d(self):
        return self.V.shape[1]

    @property
    def k(self):
        return self.V.shape[2]

    def __len__(self):
        return self.n

    def subset(self, idx):
        """The rows ``idx``, held as gathered or as read-only views: not copied again."""
        rows = (None if a is None else _hold(a[idx]) for a in (self.V, self.taus, self.aux))
        return DesignSet(*rows)

    def natural_params(self, theta):
        """eta_i = V_i theta for every observation, shape (n, d)."""
        theta = np.asarray(theta, dtype=float)
        # one flat GEMV instead of n tiny matrix products
        n, d, k = self.V.shape
        return (self.V.reshape(n * d, k) @ theta).reshape(n, d)


def _rank(values):
    """(rank, count): each entry's rank among the distinct values, and their number."""
    order = np.argsort(values)  # unstable is enough: equal entries share a rank
    s = values[order]
    rank = np.empty(values.shape, np.intp)
    rank[order] = np.cumsum(np.concatenate(([0], s[1:] != s[:-1])))
    return rank, int(rank[order[-1]]) + 1


def _design_code(V, columns):
    """(code, size): each row's number below ``size``, equal for equal rows of
    (V's columns, *columns) and increasing in their lexicographic order, with
    the last column most significant and -0.0 equal to 0.0.  The number has
    one mixed-radix digit per varying column, its rank there, which takes a
    sort only where a column has over two values."""
    n = V.shape[0]
    flat = V.reshape(n, -1)
    # one pass over the block: a column varies iff a row differs from the one before
    changed = (flat[1:] != flat[:-1]).ravel().nonzero()[0] % flat.shape[1]
    varying = [flat[:, j] for j in np.bincount(changed, minlength=flat.shape[1]).nonzero()[0]]
    code, size = np.zeros(n, np.intp), 1
    for column in [*varying, *columns]:
        lo, hi = column.min(), column.max()
        if lo == hi:
            continue
        digit, radix = column > lo, 2
        if np.count_nonzero(column == hi) != np.count_nonzero(digit):
            digit, radix = _rank(column)
        code += size * digit
        size *= radix
        if size > n:
            code, size = _rank(code)
    return code, size


@dataclass(frozen=True)
class CensoredDataset:
    """Observed bits paired with their designs.

    Attributes
    ----------
    bits : ndarray of int8, shape (n,)
        Each entry -1 or +1.
    designs : DesignSet
    counts : ndarray of int64, shape (n,)
        How many identical observations each row stands for; one each
        when not given.  ``n`` and ``len`` count rows, ``total``
        observations.
    """

    bits: np.ndarray
    designs: DesignSet
    counts: np.ndarray = None

    def __post_init__(self):
        bits = np.atleast_1d(np.asarray(self.bits))
        if bits.ndim != 1 or bits.shape[0] < 1:
            raise ValueError("need at least one observation")
        if not ((bits == 1) | (bits == -1)).all():
            raise ValueError("bits must be -1 or +1")
        b = bits.astype(np.int8)
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)
        if not isinstance(self.designs, DesignSet):
            raise TypeError(f"designs must be a DesignSet, got {type(self.designs).__name__}")
        if self.designs.n != b.shape[0]:
            raise ValueError("bits and designs must have equal length")
        counts = np.ones(b.shape, np.int64) if self.counts is None else np.array(self.counts)
        if counts.shape != b.shape:
            raise ValueError("counts must have one entry per row")
        if self.counts is not None and not ((counts >= 1) & (counts == np.round(counts))).all():
            raise ValueError("counts must be positive integers")
        counts = counts.astype(np.int64, copy=False)  # np.array made it a copy already
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n(self):
        return self.bits.shape[0]

    def __len__(self):
        return self.n

    @property
    def total(self):
        """Number of observations the rows stand for."""
        return int(self.counts.sum())

    def permuted(self, order):
        """Dataset with rows reordered by the given index array."""
        order = np.asarray(order)
        return CensoredDataset(self.bits[order], self.designs.subset(order), self.counts[order])

    def grouped(self):
        """The same observations with identical rows merged into counts.

        Rows are identical when every design entry, the threshold, aux and
        the bit agree.  Groups come in sorted key order (the bit most
        significant, then the design: aux, the threshold and the design
        entries from last to first), so every permutation of the rows gives
        the same grouped dataset, bit for bit.

        Returns ``(grouped, first, tally)``: the grouped dataset; per group,
        the index of its first row in this dataset; and ``tally = (rows,
        totals, plus)``, per distinct design (V, tau, aux) in key order, its
        first grouped row, the number of observations it carries and how
        many of them have bit +1.
        """
        designs, n = self.designs, self.n
        aux = [] if designs.aux is None else [designs.aux]
        code, size = _design_code(designs.V, [designs.taus, *aux])
        code += size * (self.bits > 0)  # the bit is the most significant digit
        first = np.full(2 * size, n)
        np.minimum.at(first, code, np.arange(n))
        counts = np.zeros(2 * size, np.int64)
        np.add.at(counts, code, self.counts)
        seen = first < n
        # the tally is read off the 2 x size table of (bit, design) groups
        row = (np.cumsum(seen) - 1).reshape(2, size)  # each group's grouped row
        (minus, plus), both = counts.reshape(2, size), seen.reshape(2, size)
        design = both.any(axis=0)
        tally = (np.where(both[0], row[0], row[1])[design], (minus + plus)[design], plus[design])
        first, counts = first[seen], counts[seen]
        # adding 0.0 maps -0.0 to 0.0, so the group's first row does not
        # leak the input order into the representative
        V, taus, known = (
            a if a is None else _hold(a[first] + 0.0)
            for a in (designs.V, designs.taus, designs.aux)
        )
        # every family's design rules are row-wise: the rows keep the record
        picked = _checked(DesignSet, V=V, taus=taus, aux=known, _passed=set(designs._passed))
        grouped = _checked(CensoredDataset, bits=self.bits[first], designs=picked, counts=counts)
        return grouped, first, tally
