"""Core value types: parameters, designs, and censored datasets.

Designs have one form, ``DesignSet``: the (V_i, tau_i) of all
observations stacked into contiguous arrays, which every layer takes.
All types are immutable after construction (arrays are made read-only),
so they can be shared freely across workers.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

#: Allowed per-coordinate domain constraints for a parameter vector.
DOMAIN_KINDS = ("unbounded", "positive")


def _readonly(a):
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def check_domain(values, domain):
    """Raise DomainError unless every coordinate satisfies its constraint."""
    values = np.asarray(values, dtype=float)
    if len(domain) != values.shape[0]:
        raise DomainError(
            f"parameter has {values.shape[0]} coordinates but domain lists {len(domain)}"
        )
    if not np.all(np.isfinite(values)):
        raise DomainError("parameter coordinates must be finite")
    for j, (v, kind) in enumerate(zip(values, domain)):
        if kind not in DOMAIN_KINDS:
            raise DomainError(f"unknown domain constraint {kind!r}")
        if kind == "positive" and not v > 0.0:
            raise DomainError(f"coordinate {j} must be strictly positive, got {v!r}")


def satisfies_domain(values, domain):
    """True iff check_domain would pass."""
    try:
        check_domain(values, domain)
    except DomainError:
        return False
    return True


@dataclass(frozen=True)
class ParameterVector:
    """A parameter point together with its per-coordinate domain.

    Attributes
    ----------
    values : ndarray, shape (k,)
    domain : tuple of str
        One of "unbounded", "positive" per coordinate,
        checked on construction.
    """

    values: np.ndarray
    domain: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(np.atleast_1d(self.values)))
        object.__setattr__(self, "domain", tuple(self.domain))
        if self.values.ndim != 1 or self.values.shape[0] < 1:
            raise DomainError("parameter must be a vector with k >= 1 coordinates")
        check_domain(self.values, self.domain)

    @property
    def k(self):
        return self.values.shape[0]


class DesignSet:
    """The designs of n observations, stored as contiguous arrays.

    ``V`` (n, d, k) holds the design matrices and ``taus`` (n,) the
    thresholds.  ``aux`` (n,) optionally carries a per-observation known
    constant that some model families read (the known mean of a
    variance-only Gaussian model); families that do not need it ignore it.
    """

    __slots__ = ("V", "taus", "aux")

    def __init__(self, V, taus, aux=None):
        V = np.asarray(V, dtype=float)
        if V.ndim != 3:
            raise ValueError("stacked designs must have shape (n, d, k)")
        taus = np.asarray(taus, dtype=float)
        if taus.shape != (V.shape[0],):
            raise ValueError("thresholds must have shape (n,)")
        if not (np.all(np.isfinite(V)) and np.all(np.isfinite(taus))):
            raise ValueError("designs must be finite")
        if V.shape[0] < 1 or V.shape[1] < 1 or V.shape[2] < 1:
            raise ValueError("need n, d, k >= 1")
        self.V = _readonly(V)
        self.taus = _readonly(taus)
        if aux is None:
            self.aux = None
        else:
            aux = np.asarray(aux, dtype=float)
            if aux.shape != taus.shape:
                raise ValueError("aux must have shape (n,)")
            self.aux = _readonly(aux)

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
        aux = None if self.aux is None else self.aux[idx]
        return DesignSet(self.V[idx], self.taus[idx], aux)

    def natural_params(self, theta):
        """eta_i = V_i theta for every observation, shape (n, d)."""
        theta = np.asarray(theta, dtype=float)
        # one flat GEMV instead of n tiny matrix products
        n, d, k = self.V.shape
        return (self.V.reshape(n * d, k) @ theta).reshape(n, d)


def _runs(columns):
    """(order, starts): a stable lexicographic order of the rows (the last
    column most significant) and where each run of equal rows starts in it."""
    n = columns[0].shape[0]
    # constant columns cannot split a run; sorting on them is waste
    keys = [c for c in columns if np.any(c != c[0])]
    order = np.lexsort(keys) if keys else np.arange(n)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for key in keys:
        s = key[order]
        new[1:] |= s[1:] != s[:-1]
    return order, np.flatnonzero(new)


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
        if not np.all((bits == 1) | (bits == -1)):
            raise ValueError("bits must be -1 or +1")
        b = bits.astype(np.int8)
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)
        if not isinstance(self.designs, DesignSet):
            raise TypeError(f"designs must be a DesignSet, got {type(self.designs).__name__}")
        if self.designs.n != b.shape[0]:
            raise ValueError("bits and designs must have equal length")
        counts = np.ones(b.shape, np.int64) if self.counts is None else np.asarray(self.counts)
        if counts.shape != b.shape:
            raise ValueError("counts must have one entry per row")
        if not (np.all(counts == np.round(counts)) and np.all(counts >= 1)):
            raise ValueError("counts must be positive integers")
        counts = counts.astype(np.int64)
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

    def grouped(self, return_index=False):
        """The same observations with identical rows merged into counts.

        Rows are identical when every design entry, the threshold, aux and
        the bit agree.  Groups come in sorted key order, so every
        permutation of the rows gives the same grouped dataset, bit for bit.
        With ``return_index`` also returns, per group, the index of its
        first row in this dataset.
        """
        n, designs = self.n, self.designs
        columns = [*designs.V.reshape(n, -1).T, designs.taus, self.bits]
        if designs.aux is not None:
            columns.append(designs.aux)
        order, starts = _runs(columns)
        first = order[starts]
        counts = np.add.reduceat(self.counts[order], starts)
        # adding 0.0 maps -0.0 to 0.0, so the group's first row does not
        # leak the input order into the representative
        picked = [a[first] for a in (designs.V, designs.taus, designs.aux) if a is not None]
        for a in picked:
            a += 0.0
        grouped = CensoredDataset(self.bits[first], DesignSet(*picked), counts)
        return (grouped, first) if return_index else grouped

    def design_tally(self):
        """Observation and +1 counts per distinct design (V, tau, aux).

        Returns ``(rows, totals, plus)``: per distinct design, the index of
        one of its rows, the number of observations it carries and how many
        of them have bit +1.  Designs come sorted by threshold first.
        """
        n, designs = self.n, self.designs
        aux = [] if designs.aux is None else [designs.aux]
        order, starts = _runs([*designs.V.reshape(n, -1).T, *aux, designs.taus])
        counts = self.counts[order]
        plus = np.where(self.bits[order] > 0, counts, 0)
        return order[starts], np.add.reduceat(counts, starts), np.add.reduceat(plus, starts)
