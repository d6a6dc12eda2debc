"""Fisher information for censored and uncensored observation of a GLM.

Censored:   J_n = sum_i V_i^T Cov(E[T_i | B_i]) V_i, with the inner
covariance assembled exactly from the two-point distribution of each bit.
Uncensored: I_n = sum_i V_i^T Cov(T_i) V_i.

Each total is assembled as one k x k BLAS reduction over the stacked rows:
the censored information as sum_b (g_b * P(b))^T g_b over the per-bit
scores g_b = V_i^T dev_b, the sandwiches as the (n d) x k product
V^T (inner V).  The (n, k, k) stack of per-observation summands is built
only when asked for.

``fim_numeric_oracle`` is an independent verification route: it enumerates
both bit values per observation and averages the outer product of the
single-observation score.  ``negative_expected_hessian`` is a second
independent route through the curvature.  Processing a sample into a bit
cannot create information, so I_n - J_n must be positive semidefinite;
``dpi_check`` verifies that numerically.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import likelihood
from .exceptions import DegenerateThreshold
from .types import CensoredDataset, DesignSet

#: Eigenvalues above this are treated as genuinely nonnegative.
PSD_TOLERANCE = -1e-10


def _det_small(m):
    """Determinant of a small symmetric matrix; exact arithmetic for k <= 2."""
    k = m.shape[0]
    if k == 1:
        return float(m[0, 0])
    if k == 2:
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return float(np.linalg.det(m))


@dataclass(frozen=True)
class FimResult:
    """A k x k information matrix with PSD metadata.

    ``per_observation_terms`` (optional) holds each observation's k x k
    summand in observation order.
    """

    matrix: np.ndarray
    min_eigenvalue: float
    determinant: float
    per_observation_terms: tuple = None

    @classmethod
    def build(cls, total, terms=None):
        """From the k x k total and, optionally, its (n, k, k) summands."""
        total = 0.5 * (total + total.T)
        eigs = np.linalg.eigvalsh(total)
        total.setflags(write=False)
        return cls(
            matrix=total,
            min_eigenvalue=float(eigs[0]),
            determinant=_det_small(total),
            per_observation_terms=None if terms is None else tuple(terms),
        )

    @property
    def k(self):
        return self.matrix.shape[0]


def _theta_values(model, theta):
    values = np.atleast_1d(np.asarray(getattr(theta, "values", theta), dtype=float))
    model.check_theta(values)
    return values


def _check_thresholds(f, model_name):
    bad = (f <= 0.0) | (f >= 1.0)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DegenerateThreshold(
            f"{model_name} design {idx}: censoring probability is numerically 0 or 1",
            index=idx,
        )


def fim_censored(model, theta, designs, keep_terms=False):
    """Information carried by the bits: per observation, the two-point
    covariance of E[T | B] sandwiched by the design matrix."""
    theta = _theta_values(model, theta)
    designs = DesignSet.coerce(designs)
    f = model.prob_leq(theta, designs)
    _check_thresholds(f, model.name)

    plus = np.ones(designs.n, dtype=np.int8)
    # per-bit scores g_b = V^T (E[T | b] - E[T]), shape (n, k)
    g_p = np.einsum("ndk,nd->nk", designs.V, model.cond_mean_dev_T(theta, designs, plus))
    g_m = np.einsum("ndk,nd->nk", designs.V, model.cond_mean_dev_T(theta, designs, -plus))
    # V^T Cov(E[T|B]) V = sum_b P(b) g_b g_b^T
    wg_p = g_p * f[:, None]
    wg_m = g_m * (1.0 - f)[:, None]
    total = wg_p.T @ g_p + wg_m.T @ g_m
    terms = None
    if keep_terms:
        terms = wg_p[:, :, None] * g_p[:, None, :] + wg_m[:, :, None] * g_m[:, None, :]
    return FimResult.build(total, terms)


def _sandwich(V, inner, keep_terms):
    """FimResult of sum_i V_i^T inner_i V_i, assembled as one (n d) x k product."""
    n, d, k = V.shape
    right = np.matmul(inner, V)  # (n, d, k)
    total = V.reshape(n * d, k).T @ right.reshape(n * d, k)
    terms = np.matmul(V.swapaxes(1, 2), right) if keep_terms else None
    return FimResult.build(total, terms)


def fim_uncensored(model, theta, designs, keep_terms=False):
    """Information carried by the raw observations."""
    theta = _theta_values(model, theta)
    designs = DesignSet.coerce(designs)
    return _sandwich(designs.V, model.cov_T(theta, designs), keep_terms)


def fim_numeric_oracle(model, theta, designs, keep_terms=False):
    """Independent check of the censored information: enumerate both bits
    per observation and average the outer product of the score computed by
    the likelihood module."""
    theta = _theta_values(model, theta)
    designs = DesignSet.coerce(designs)
    f = model.prob_leq(theta, designs)
    _check_thresholds(f, model.name)

    k = designs.k
    terms = np.empty((designs.n, k, k))
    for i in range(designs.n):
        design = designs.design(i)
        acc = np.zeros((k, k))
        for b, pb in ((1, f[i]), (-1, 1.0 - f[i])):
            s = likelihood.score_single(model, theta, design, b)
            acc += np.outer(s, s) * pb
        terms[i] = acc
    return FimResult.build(np.add.reduce(terms, axis=0), terms if keep_terms else None)


def negative_expected_hessian(model, theta, designs, keep_terms=False):
    """-E[Hessian] with the expectation enumerated over both bit values;
    equals the censored information by the information-matrix equality."""
    theta = _theta_values(model, theta)
    designs = DesignSet.coerce(designs)
    f = model.prob_leq(theta, designs)
    _check_thresholds(f, model.name)

    plus = np.ones(designs.n, dtype=np.int8)
    dev_p = model.cond_cov_dev_T(theta, designs, plus)
    dev_m = model.cond_cov_dev_T(theta, designs, -plus)
    # -E[Cov(T|B) - Cov(T)] = -(dev_+ P(+1) + dev_- P(-1))
    inner = -(dev_p * f[:, None, None] + dev_m * (1.0 - f)[:, None, None])
    return _sandwich(designs.V, inner, keep_terms)


@dataclass(frozen=True)
class DpiReport:
    """Result of the information data-processing check I_n >= J_n."""

    censored: FimResult
    uncensored: FimResult
    min_eigenvalue_gap: float

    @property
    def passed(self):
        return self.min_eigenvalue_gap >= PSD_TOLERANCE


def dpi_check(model, theta, designs):
    """Verify that censoring cannot increase information: the smallest
    eigenvalue of I_n - J_n must be nonnegative up to rounding."""
    censored = fim_censored(model, theta, designs)
    uncensored = fim_uncensored(model, theta, designs)
    gap = uncensored.matrix - censored.matrix
    eigs = np.linalg.eigvalsh(0.5 * (gap + gap.T))
    return DpiReport(
        censored=censored,
        uncensored=uncensored,
        min_eigenvalue_gap=float(eigs[0]),
    )
