"""Fisher information for censored and uncensored observation of a GLM.

Censored:   J_n = sum_i V_i^T Cov(E[T_i | B_i]) V_i.  The bit has
P(B_i = +1) = F(z_i) for the family's linear index z_i = offset_i +
x_i.beta, so this is the binary-response information in beta,
sum_i w_i x_i x_i^T with w = F'^2 / (F (1 - F)) (``index_weight``; McCullagh
& Nelder, Generalized Linear Models, 1989), taken to theta by the
likelihood module's chain rule: one pairwise sum over the rows per entry
(``likelihood.gram``).
Uncensored: I_n = sum_i V_i^T Cov(T_i) V_i, the family's closed form
(``uncensored_information``): one or two dot products over the rows.

Cost per row: the one special function of the weight (erfcx for a Gaussian
family; for Poisson each row's far tail, an incomplete gamma or a summed
left tail, and the pmf's log and exp), evaluated in key order from
``_order.ORDERED_ROWS`` rows on (at 10^4 rows on a 2-vCPU Xeon, erfcx 17 ns
a row against 29 ns in row order, the incomplete gamma 99 against 113 ns),
plus the numpy passes the formulas need: the regressors and the index, the
weight's arithmetic, one product per Gram column and one per entry, a
finiteness check, and the uncensored closed form.  A family's design check runs once per design set.
At k = 1 the smallest eigenvalue is the matrix's entry.

Sweep (``fim_sweep``, behind ``fim --sweep``): J_n as one design's
threshold runs over P grid points.  The other rows' X^T diag(w) X is summed
once and each point adds its rank-one w_p x_p x_p^T: O(n + P), not O(n P).

Processing a sample into a bit cannot create information, so I_n - J_n
must be positive semidefinite; ``dpi_check`` verifies that numerically.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateThreshold, NumericalError
from .likelihood import gram, to_theta
from .types import DesignSet

#: Eigenvalues above this are treated as genuinely nonnegative.
PSD_TOLERANCE = -1e-10


@dataclass(frozen=True)
class FimResult:
    """A k x k symmetric information matrix, read-only; its smallest
    eigenvalue and determinant are computed where they are read, the
    determinant a NumericalError where it is not finite."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def k(self):
        return self.matrix.shape[0]

    @property
    def min_eigenvalue(self):
        return _min_eigenvalue(self.matrix)

    @property
    def determinant(self):
        m = self.matrix  # exact arithmetic for k <= 2
        with np.errstate(over="ignore", invalid="ignore"):
            if self.k == 1:
                det = float(m[0, 0])
            elif self.k == 2:
                det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
            else:
                det = float(np.linalg.det(m))
        if not np.isfinite(det):
            raise NumericalError(f"the determinant of a {self.k} x {self.k} information overflows")
        return det


def _min_eigenvalue(m):
    """The smallest eigenvalue of the symmetric ``m``: its entry where k = 1."""
    return float(m[0, 0] if m.shape[0] == 1 else np.linalg.eigvalsh(m)[0])


def _reject(model, bad):
    """DegenerateThreshold naming the first design where ``bad`` holds."""
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DegenerateThreshold(
            f"{model.name} design {idx}: censoring probability is numerically 0 or 1",
            index=idx,
        )


def _index_weights(model, beta, designs):
    """(X, w): the family's regressors and index weights at beta."""
    X, offset = model.index_regressors(designs)
    return X, model.index_weight(offset + X.dot(beta), designs)


def _in_theta(model, beta, total):
    """The information ``total`` in beta, taken to theta; NumericalError where
    that overflows, or underflows to 0 from a nonzero one."""
    # the expected score is 0, so the information transforms as a Hessian there
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = to_theta(model, beta, np.zeros(model.k), total)[1]
    if not np.all(np.isfinite(matrix)):
        raise NumericalError(f"the {model.name} information in theta overflows a float")
    if not matrix.any() and total.any():
        raise NumericalError(f"the {model.name} information in theta underflows to 0")
    return FimResult(matrix)


def fim_censored(model, theta, designs):
    """Information carried by the bits: X^T diag(w) X in the index parameter,
    for the family's regressors X and weights w, taken to theta.
    DegenerateThreshold where w is not finite, at a bit of probability 0."""
    beta = model.index_from_theta(model.check_theta(theta))
    X, w = _index_weights(model, beta, designs)
    if not np.isfinite(w).all():
        _reject(model, ~np.isfinite(w))
    with np.errstate(over="ignore", invalid="ignore"):  # _in_theta reports an overflow
        total = gram(X, w)
    return _in_theta(model, beta, total)


def fim_sweep(model, theta, designs, index, grid):
    """[(tau, FimResult)]: ``fim_censored`` with design ``index``'s threshold
    set to each tau of ``grid`` in turn, skipping a tau where that row's bit
    has probability 0.  Empty where another row's bit has, or where a rate
    leaves the supported range or the information in theta overflows or
    underflows (NumericalError)."""
    beta = model.index_from_theta(model.check_theta(theta))
    grid = np.asarray(grid, dtype=float)
    row = designs.subset(np.full(grid.shape, index))
    points = DesignSet(row.V, grid, row.aux)
    try:
        x, w_p = _index_weights(model, beta, points)
        X, w = _index_weights(model, beta, designs)
        w[index] = 0.0  # the swept row's term enters per point
        if not np.all(np.isfinite(w)):
            return []
        with np.errstate(over="ignore", invalid="ignore"):  # _in_theta reports an overflow
            base = gram(X, w)
            return [
                (float(tau), _in_theta(model, beta, base + w_p[p] * np.outer(x[p], x[p])))
                for p, tau in enumerate(grid)
                if np.isfinite(w_p[p])
            ]
    except NumericalError:
        return []


def fim_uncensored(model, theta, designs):
    """Information carried by the raw observations, in the family's closed form;
    NumericalError where that overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = model.uncensored_information(theta, designs)
    if not np.all(np.isfinite(matrix)):
        raise NumericalError(f"the {model.name} uncensored information overflows a float")
    return FimResult(matrix)


@dataclass(frozen=True)
class DpiReport:
    """Result of the information data-processing check I_n >= J_n."""

    censored: FimResult
    uncensored: FimResult

    @property
    def min_eigenvalue_gap(self):
        # both are exactly symmetric, so their gap is too
        return _min_eigenvalue(self.uncensored.matrix - self.censored.matrix)

    @property
    def passed(self):
        return self.min_eigenvalue_gap >= PSD_TOLERANCE


def dpi_check(model, theta, designs):
    """Verify that censoring cannot increase information: the smallest
    eigenvalue of I_n - J_n must be nonnegative up to rounding."""
    return DpiReport(fim_censored(model, theta, designs), fim_uncensored(model, theta, designs))
