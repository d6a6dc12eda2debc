"""Fisher information for censored and uncensored observation of a GLM.

Censored:   J_n = sum_i V_i^T Cov(E[T_i | B_i]) V_i.  The bit has
P(B_i = +1) = F(z_i) for the family's linear index z_i = offset_i +
x_i.beta, so this is the binary-response information in beta,
sum_i w_i x_i x_i^T with w = F'^2 / (F (1 - F)) (``index_weight``; McCullagh
& Nelder, Generalized Linear Models, 1989), taken to theta by the
likelihood module's chain rule: one BLAS reduction over the rows, one
erfcx call per row for a Gaussian family.
Uncensored: I_n = sum_i V_i^T Cov(T_i) V_i, assembled as the (n d) x k
product V^T (Cov(T) V).

Processing a sample into a bit cannot create information, so I_n - J_n
must be positive semidefinite; ``dpi_check`` verifies that numerically.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateThreshold
from .likelihood import _theta_values, to_theta

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
    """Information carried by the bits: X^T diag(w) X in the index parameter,
    for the family's regressors X and weights w, taken to theta.
    DegenerateThreshold where w is not finite, at a bit of probability 0."""
    beta = model.index_from_theta(_theta_values(model, theta))
    X, offset = model.index_regressors(designs)
    w = model.index_weight(offset + X @ beta, designs)
    _reject(model, ~np.isfinite(w))
    # the expected score is 0, so the information transforms as a Hessian there
    return FimResult.build(to_theta(model, beta, np.zeros(model.k), X.T @ (X * w[:, None]))[1])


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
