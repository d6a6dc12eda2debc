"""Fisher information for censored and uncensored observation of a GLM.

Censored:   J_n = sum_i V_i^T Cov(E[T_i | B_i]) V_i.  A bit takes two
values, so the inner covariance is rank one, w_i u_i u_i^T; the family
gives its factors (``bit_information_T``) from one evaluation of each
tail and of the density, one erfcx call per row for a Gaussian family.
Uncensored: I_n = sum_i V_i^T Cov(T_i) V_i.

Each total is assembled as one k x k BLAS reduction over the stacked rows:
the censored information as (g * w)^T g over the rows g_i = V_i^T u_i,
the uncensored one as the (n d) x k product V^T (Cov(T) V).

Processing a sample into a bit cannot create information, so I_n - J_n
must be positive semidefinite; ``dpi_check`` verifies that numerically.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateThreshold
from .likelihood import _theta_values

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
    """A k x k information matrix with PSD metadata."""

    matrix: np.ndarray
    min_eigenvalue: float
    determinant: float

    @classmethod
    def build(cls, total):
        """From the k x k total, symmetrized."""
        total = 0.5 * (total + total.T)
        eigs = np.linalg.eigvalsh(total)
        total.setflags(write=False)
        return cls(matrix=total, min_eigenvalue=float(eigs[0]), determinant=_det_small(total))

    @property
    def k(self):
        return self.matrix.shape[0]


def _reject(model, bad):
    """DegenerateThreshold naming the first design where ``bad`` holds."""
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DegenerateThreshold(
            f"{model.name} design {idx}: censoring probability is numerically 0 or 1",
            index=idx,
        )


def fim_censored(model, theta, designs):
    """Information carried by the bits: per observation, the rank-one
    covariance w u u^T of E[T | B] sandwiched by the design matrix.
    DegenerateThreshold where w is not finite, at a bit of probability 0."""
    theta = _theta_values(model, theta)
    u, w = model.bit_information_T(theta, designs)
    _reject(model, ~np.isfinite(w))

    g = np.einsum("ndk,nd->nk", designs.V, u)  # V^T u per row, (n, k)
    return FimResult.build((g * w[:, None]).T @ g)


def _sandwich(V, inner):
    """FimResult of sum_i V_i^T inner_i V_i, assembled as one (n d) x k product."""
    n, d, k = V.shape
    # d = 1: each block product is one multiply, bit-identical and far faster
    right = inner * V if d == 1 else np.matmul(inner, V)  # (n, d, k)
    return FimResult.build(V.reshape(n * d, k).T @ right.reshape(n * d, k))


def fim_uncensored(model, theta, designs):
    """Information carried by the raw observations."""
    inner = model.cov_T(_theta_values(model, theta), designs)
    return _sandwich(designs.V, inner)


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
