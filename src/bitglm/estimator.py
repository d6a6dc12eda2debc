"""Maximum-likelihood fitting of the censored GLM.

Each family's P(B_i = +1) is a log-concave cdf of a linear index
offset_i + x_i.beta (``index_regressors``), so the log-likelihood is
concave in beta over all of R^k (Pratt, JASA 76, 1981).  ``fit`` ascends it
by damped Newton steps in beta, with the derivatives of ``index_link``, on
the grouped data, so each iteration costs O(distinct rows), not O(n).  Steps
must raise the log-likelihood enough (Armijo), except where the gain a step
predicts is below its float resolution, the rounding of each index included:
there the full step is taken when it lowers the score in beta.  An ascent
stops only where its Newton step would change no row's index beyond
rounding, or where it comes back to a point it has left: the score's own
rounding can carry a step past that test, and the two acceptance rules then
alternate between two points forever.

A finite maximizer exists unless the bits are separated: some direction d,
with d >= 0 in the 1/sigma coordinate, has b_i x_i.d >= 0 on every row and
> 0 on one (Albert & Anderson, Biometrika 71, 1984).  ``fit`` checks that
first, then that the distinct designs' regressors have rank k: with fewer
independent indices the maximizers form a ridge, whatever the start.  For
k <= 2 the first needs no linear program: the cone of such d is spanned by
the rays perpendicular to the rows at either end of the widest angular gap
between them, or by its middle where it is a half-plane.  At a converged
estimate the same rank test, on the rows weighted by sqrt(-n r), judges the
information X^T diag(-n r) X.  Neither test reads the data's location up to
alpha/sigma ~ 1e6; beyond about 1e7 the unweighted test refuses case 3, whose
regressors' relative singular value falls as (sigma/alpha)^2.

Then a maximizer over beta_p >= 0, for a family's positive coordinate
beta_p = 1/sigma, exists, and by the KKT conditions it lies on the wall
beta_p = 0 (sigma -> infinity) exactly when dl/dbeta_p <= 0 at the
maximizer along the wall.  Unless the start is stationary and the wall
beyond rounding of it, ``fit`` decides that before any interior ascent,
and reports a maximum on the wall, just inside, as "boundary-divergence".
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import likelihood
from .exceptions import DegenerateLikelihood, DomainError, NonIdentifiable, NumericalError

#: Most Newton directions an ascent takes before it stops as "max-iterations".
MAX_ITERATIONS = 200
#: Smallest line-search damping before giving up on a direction.
MIN_DAMPING = 1e-14
#: Factor the line search shrinks a rejected step by.
BACKTRACKING_FACTOR = 0.5
#: Armijo constant: the share of the predicted gain a step must achieve.
SUFFICIENT_INCREASE = 1e-4
#: |b_i x_i.d| relative to |x_i| |d| below which the separation check reads 0,
#: and the relative singular value at or below which the rank check does.
SEPARATION_TOLERANCE = 1e3 * np.finfo(float).eps
#: |x_i.d| relative to ``_index_scale`` at or below which a step d changes no
#: row's index z_i beyond rounding.
STATIONARY_TOLERANCE = 16.0 * np.finfo(float).eps
#: dl/dbeta_p = sum_i n_i s_i x_ip on the wall reads <= 0 up to this share of
#: sum_i n_i |x_ip| (|s_i| + |r_i| ``_index_scale``): its rounding, and that of z.
WALL_TOLERANCE = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit, in theta.

    ``theta_hat`` is a read-only (k,) float array inside the family's domain;
    ``observed_information`` is the negated Hessian at the estimate; ``status``
    is one of "converged" (stationary to rounding in beta: the Newton step moves
    no index beyond rounding, or the ascent came back to a point it had left,
    and the regressors weighted by sqrt(-n r) have rank k; past alpha/sigma ~
    1e8 the smallest eigenvalue of the information in theta can read below its
    rounding), "max-iterations" (short of a stationary point: at the cap of
    MAX_ITERATIONS = 200 directions, or a direction that did not ascend or found
    no step) or "boundary-divergence" (the supremum lies on the wall sigma ->
    infinity, and the estimate and its log-likelihood are the maximizer along
    it, moved just inside to sigma ~ 1/eps).  ``iterations`` counts Newton
    directions: the interior ascent's, or for a boundary fit the ascent along
    the wall's.  ``final_score_norm`` is the score in theta, as it is.

    Both are taken to theta from ``_in_beta`` (the family, and the estimate's
    beta, score and Hessian) by ``likelihood.to_theta`` where one is first read,
    and then kept.  Only ``fit`` constructs a FitResult.
    """

    theta_hat: np.ndarray
    iterations: int
    log_likelihood: float
    status: str
    _in_beta: tuple = field(repr=False, compare=False)

    @cached_property
    def _in_theta(self):
        grad, hess = likelihood.to_theta(*self._in_beta)
        observed = -hess
        observed.setflags(write=False)
        return float(np.max(np.abs(grad))), observed

    final_score_norm = property(lambda self: self._in_theta[0])
    observed_information = property(lambda self: self._in_theta[1])

    @property
    def converged(self):
        return self.status == "converged"


def _separating_direction(model, data, X):
    """A unit direction d of the index parameter beta (regressors ``X``) along
    which no bit gets less likely and at least one gets more likely, or None.

    Each candidate is verified on every row up to a relative tolerance, so
    that x and -x (one design seen with both bits) cancel.
    """
    A = data.bits[:, None] * X
    k = A.shape[1]
    wall = np.eye(k)[[] if model.index_positive is None else [model.index_positive]]
    candidates = np.array([[1.0], [-1.0]])
    if k == 2:
        rays = np.concatenate([A[(A != 0.0).any(axis=1)], wall])
        angles = np.arctan2(rays[:, 1], rays[:, 0])
        order = np.argsort(angles)
        rays, angles = rays[order], angles[order]
        gaps = np.concatenate([angles[1:], angles[:1] + 2.0 * np.pi]) - angles
        if np.max(gaps, initial=0.0) < np.pi - SEPARATION_TOLERANCE:
            return None  # the rows leave no half-plane free, so only d = 0 keeps all >= 0
        j = np.argmax(gaps)
        lo, hi = rays[j], rays[(j + 1) % len(rays)]
        lo, hi = lo / np.hypot(*lo), hi / np.hypot(*hi)
        perps = np.array([lo, hi]) @ np.array([[0.0, 1.0], [-1.0, 0.0]])  # turned by 90 degrees
        candidates = np.vstack([lo + hi, perps, -perps])
    elif k > 2:
        raise NotImplementedError("the separation check covers k <= 2")
    norms = np.linalg.norm(candidates, axis=1)
    push = A @ candidates.T
    slack = SEPARATION_TOLERANCE * np.linalg.norm(A, axis=1)[:, None] * norms
    in_cone = np.all(wall @ candidates.T >= -SEPARATION_TOLERANCE * norms, axis=0)
    ok = in_cone & np.all(push >= -slack, axis=0) & np.any(push > slack, axis=0)
    j = np.argmax(ok)
    return candidates[j] / norms[j] if ok[j] else None


def _check_identifiable(model, data, X, rows, paired):
    # where every design has both bits (``paired``), each row x of b X has a
    # twin -x, and b x.d >= 0 on both forces x.d = 0: nothing is separated
    d = None if paired else _separating_direction(model, data, X)
    if d is not None:
        raise NonIdentifiable(
            f"the bits are separated along the index direction {np.array2string(d, precision=4)}:"
            " the likelihood rises without bound along it, so no finite maximizer exists"
        )
    # the likelihood reads beta only through the distinct designs' indices
    # (the grouped ``rows`` of X): with fewer than k independent ones it is flat
    _check_rank(X[rows], model.k, "the distinct designs' regressors")


def _check_rank(M, k, what):
    """NonIdentifiable, naming ``what``, where the rows ``M`` have rank below k:
    a smallest singular value at most SEPARATION_TOLERANCE times the largest."""
    s = np.linalg.svd(M, compute_uv=False)  # half the cost of the whole SVD
    if len(s) < k or s[-1] <= SEPARATION_TOLERANCE * s[0]:
        flat = np.linalg.svd(M, full_matrices=len(M) < k)[2][-1]  # Vt is k x k
        raise NonIdentifiable(
            f"{what} have rank below {k}: the likelihood is flat along the index"
            f" direction {np.array2string(flat, precision=4)}"
        )


def _safe_ll(model, data, index, beta):
    """``likelihood.index_evaluate`` at a probe; ll = -inf where that raises."""
    try:
        return likelihood.index_evaluate(model, beta, data, index)
    except (DegenerateLikelihood, NumericalError):
        return -np.inf, None, None, None


def _cramer(M, y, rcond=0.0):
    """M^-1 y for a 2 x 2 ``M`` by Cramer's rule in Python floats, forward stable
    for 2 x 2 systems (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, 1.10.1); None where |det M| is 0, not finite or <= ``rcond`` |M|_F^2."""
    ((a, b), (c, d)), (e, f) = M.tolist(), y.tolist()
    det = a * d - b * c
    if not 0.0 < abs(det) < np.inf or abs(det) <= rcond * (a * a + b * b + c * c + d * d):
        return None
    return np.array([(d * e - b * f) / det, (a * f - c * e) / det])


def _ascent_direction(neg_hess, grad):
    """Newton direction: ``_cramer``'s for k = 2, else or where that is None
    the LU solve, or least squares where LU finds the negated Hessian singular."""
    direction = _cramer(neg_hess, grad) if len(grad) == 2 else None
    if direction is not None:
        return direction
    try:
        return np.linalg.solve(neg_hess, grad)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(neg_hess, grad, rcond=None)[0]


def _index_scale(index, beta):
    """max(1, |offset_i| + sum_j |x_ij beta_j|) per row: the size of the terms
    that the index z_i sums, to which its rounding is relative."""
    X, offset = index
    return np.maximum(1.0, np.abs(offset) + np.abs(X).dot(np.abs(beta)))


def _newton_direction(index, beta, grad, hess):
    """The Newton direction d at an evaluated point, or None where it moves no
    index beyond rounding, |x_i.d| <= STATIONARY_TOLERANCE ``_index_scale``."""
    direction = _ascent_direction(-hess, grad)
    if np.all(np.abs(index[0].dot(direction)) <= STATIONARY_TOLERANCE * _index_scale(index, beta)):
        return None
    return direction


def _evaluable(model, data, index, beta, anchor=None):
    """(beta, its ``index_evaluate``); where a bit has probability 0 at beta, the
    same for the first point toward ``anchor`` (the family's by default)."""
    try:
        return beta, likelihood.index_evaluate(model, beta, data, index)
    except (DegenerateLikelihood, NumericalError):
        pass
    if anchor is None:
        anchor = model.anchor()
    for _ in range(60):
        beta = 0.5 * (beta + anchor)
        state = _safe_ll(model, data, index, beta)
        if np.isfinite(state[0]):
            return beta, state
    # where no probe could be evaluated, this raises the error of the last
    return beta, likelihood.index_evaluate(model, beta, data, index)


def _below_resolution(gain, ll, rounding=0.0):
    """Whether a gain in the log-likelihood ``ll`` is below its float resolution:
    64 eps max(1, |ll|) for the sum, plus the ``rounding`` of its terms."""
    return gain <= 64.0 * np.finfo(float).eps * max(1.0, abs(ll)) + rounding


def _index_rounding(data, index, beta, s):
    """eps sum_i n_i |s_i| ``_index_scale``_i: the indices' rounding in the log-likelihood."""
    return np.finfo(float).eps * np.add.reduce(data.counts * np.abs(s) * _index_scale(index, beta))


def _wall_within_rounding(p, beta, state):
    """Whether the quadratic model at ``beta`` (``state``) drops to the wall beta_p = 0
    by 1/2 beta_p^2 / ((-H)^-1)_pp, a Schur complement (k <= 2), ``_below_resolution``."""
    ll, _, hess, _ = state
    schur = -float(hess[p, p])
    if len(beta) == 2 and hess[1 - p, 1 - p] != 0.0:
        schur += float(hess[p, 1 - p]) ** 2 / float(hess[1 - p, 1 - p])
    return _below_resolution(0.5 * float(beta[p]) ** 2 * schur, ll)


def _newton(model, data, index, beta, state, direction):
    """Damped Newton ascent from ``beta``, its evaluation ``state`` and its
    ``_newton_direction`` until that is None or the ascent is back at a point
    it has left ("converged"), a direction does not ascend or the line search
    finds no step: (beta, status, iterations, its ``index_evaluate``)."""
    ll, grad, hess, link = state
    visited = set()
    for iterations in range(1, MAX_ITERATIONS + 1):
        # the ascent is deterministic, so back at a point it has left it
        # would cycle to the iteration cap
        point = beta.tobytes()
        if direction is None or point in visited:
            return beta, "converged", iterations, (ll, grad, hess, link)
        visited.add(point)
        slope = float(grad @ direction)
        if not slope > 0.0:
            break
        # a predicted gain below the float resolution of the log-likelihood
        # makes the sufficient-increase test a coin flip; there the full
        # step is judged by whether it lowers the score in beta instead
        t = 1.0
        while t >= MIN_DAMPING:
            cand = beta + t * direction
            step = _safe_ll(model, data, index, cand)
            if step[0] >= ll + SUFFICIENT_INCREASE * t * slope or (
                t == 1.0 and step[1] is not None
                and np.max(np.abs(step[1])) < np.max(np.abs(grad))
                and _below_resolution(0.5 * slope, ll, _index_rounding(data, index, beta, link[0]))
            ):
                break
            t *= BACKTRACKING_FACTOR
        if t < MIN_DAMPING:
            break  # no measurable progress left at this precision
        beta, (ll, grad, hess, link) = cand, step
        direction = _newton_direction(index, beta, grad, hess)
    return beta, "max-iterations", iterations, (ll, grad, hess, link)


def _wall_maximum(model, data, index, beta, state):
    """The maximizer along the wall beta_p = 0, moved in until an index moves
    by eps, as ``_newton`` returns it; None where dl/dbeta_p is positive there
    beyond WALL_TOLERANCE.  Ascends from the wall maximizer of the quadratic
    model at ``beta``, evaluated as ``state``."""
    p, (X, offset) = model.index_positive, index
    free = np.arange(len(beta)) != p
    wall_index = (X[:, free], offset)
    _, g, h, _ = state
    start = beta[free] + _ascent_direction(-h[free][:, free], g[free] - h[free, p] * beta[p])
    # toward beta_free = 0, where every index is its offset
    start, state = _evaluable(model, data, wall_index, start, np.zeros(len(start)))
    direction = _newton_direction(wall_index, start, *state[1:3])
    free_beta, _, iterations, (_, _, _, (s, r)) = _newton(
        model, data, wall_index, start, state, direction
    )
    x = X[:, p]
    slope = np.add.reduce(x * (s * data.counts))
    bound = np.abs(s) + np.abs(r) * _index_scale(wall_index, free_beta)
    if slope > WALL_TOLERANCE * np.add.reduce(np.abs(x) * data.counts * bound):
        return None
    wall = np.insert(free_beta, p, np.finfo(float).eps / np.max(np.abs(x)))
    state = likelihood.index_evaluate(model, wall, data, index)
    return wall, "boundary-divergence", iterations, state


def fit(model, data):
    """Maximize the censored log-likelihood over the model's domain.

    Works on ``data.grouped()``, so the result is bit-identical under any
    permutation of the observations.  Raises NonIdentifiable where the bits
    are separated (no finite maximizer), or the designs' regressors have rank
    below k or the information at a stationary point is singular (no unique
    one); propagates degenerate-data errors and DomainError, naming a row in
    the numbering of ``data``.
    """
    # every evaluation below costs O(distinct rows), and the canonical row
    # order makes the fit independent of the order of the observations
    data, rows, tally = data.grouped()
    try:
        index = model.index_regressors(data.designs)
        _check_identifiable(model, data, index[0], tally[0], paired=data.n == 2 * len(tally[0]))
        beta, state = _evaluable(model, data, index, model.initial_point(data, index, tally))
        direction = _newton_direction(index, beta, *state[1:3])
        # a start stationary to rounding is the estimate, unless the wall is
        # within rounding of it; elsewhere it is decided before any ascent
        fitted, p = None, model.index_positive
        if p is not None and (direction is not None or _wall_within_rounding(p, beta, state)):
            fitted = _wall_maximum(model, data, index, beta, state)
        beta, status, iterations, state = fitted or _newton(model, data, index, beta, state, direction)
    except (DomainError, DegenerateLikelihood) as err:
        if err.index is None:
            raise
        # name the row in the caller's numbering, not the grouped one
        i = int(rows[err.index])
        if isinstance(err, DegenerateLikelihood):
            raise DegenerateLikelihood.at_observation(i) from err
        raise DomainError(str(err), index=i) from err
    ll, grad, hess, (_, r) = state
    # a regular point is locally identified iff its information is nonsingular
    # (Rothenberg, Econometrica 39, 1971); in beta that is X^T diag(-n r) X
    if status == "converged":
        weights = np.sqrt(data.counts * np.maximum(-r, 0.0))[:, None]
        _check_rank(index[0] * weights, model.k, "the estimate's information-weighted regressors")
    theta_hat = model.check_theta(model.theta_from_index(beta)).copy()
    theta_hat.setflags(write=False)
    return FitResult(theta_hat, iterations, ll, status, (model, beta, grad, hess))
