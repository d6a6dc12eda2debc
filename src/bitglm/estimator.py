"""Maximum-likelihood fitting of the censored GLM.

Each family's P(B_i = +1) is a log-concave cdf of a linear index
offset_i + x_i.beta (``index_regressors``), so the log-likelihood is
concave in beta over all of R^k (Pratt, JASA 76, 1981).  ``fit`` runs one
damped Newton ascent in beta with the derivatives of ``index_link``, on
the grouped data (identical observations merged into counts), so each
iteration costs O(distinct rows), not O(n).  Steps must raise the
log-likelihood enough (Armijo), except where the gain a step predicts is
below its float resolution: there the full step is taken when it lowers
the score.  That score, judged and reported, is the one in theta, J^-T g
for the Jacobian J of theta(beta).

A finite maximizer exists unless the bits are separated: some direction d,
with d >= 0 in the 1/sigma coordinate, has b_i x_i.d >= 0 on every row and
> 0 on one (Albert & Anderson, Biometrika 71, 1984).  ``fit`` checks that
first.  For k <= 2 it needs no linear program: the cone of such d is
spanned by the rays perpendicular to the rows at either end of the widest
angular gap between them, or by its middle where it is a half-plane.

Where the ascent ends at 1/sigma <= 0, or stops short while the score at
the maximizer along the wall 1/sigma = 0 points out of the domain or its
likelihood ties the iterate's, the supremum lies on that wall (sigma ->
infinity): ``fit`` reports that maximizer, just inside, as "boundary-divergence".
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from . import likelihood
from .exceptions import DegenerateLikelihood, DomainError, NonIdentifiable, NumericalError
from .types import ParameterVector

#: Smallest line-search damping before giving up on a direction.
MIN_DAMPING = 1e-14
#: Factor the line search shrinks a rejected step by.
BACKTRACKING_FACTOR = 0.5
#: Armijo constant: the share of the predicted gain a step must achieve.
SUFFICIENT_INCREASE = 1e-4
#: Smallest eigenvalue of the observed information, relative to its trace,
#: below which a converged fit is a ridge and raises NonIdentifiable.
RIDGE_TOLERANCE = 1e3 * np.finfo(float).eps
#: |b_i x_i.d| relative to |x_i| |d| below which the separation check reads 0.
SEPARATION_TOLERANCE = 1e3 * np.finfo(float).eps


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; the defaults suit all bundled model families."""

    max_iterations: int = 200
    gradient_tolerance: float = 1e-9
    start: tuple = None  # explicit start; None means model.initial_point

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.gradient_tolerance > 0):
            raise ValueError("gradient_tolerance must be > 0")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit, in theta.

    ``observed_information`` is the negated Hessian at the estimate;
    ``status`` is one of "converged", "max-iterations" or
    "boundary-divergence" (the supremum lies on the wall sigma -> infinity,
    and the estimate and its log-likelihood are the maximizer along it,
    moved just inside to sigma ~ 1/eps).
    """

    theta_hat: ParameterVector
    iterations: int
    final_score_norm: float
    log_likelihood: float
    observed_information: np.ndarray
    status: str

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


def _check_identifiable(model, data, X):
    V = data.designs.V
    for j in range(data.designs.k):
        if np.all(V[:, :, j] == 0.0):
            raise NonIdentifiable(f"every design is zero in parameter direction {j}")
    d = _separating_direction(model, data, X)
    if d is not None:
        raise NonIdentifiable(
            f"the bits are separated along the index direction {np.array2string(d, precision=4)}:"
            " the likelihood rises without bound along it, so no finite maximizer exists"
        )


def _safe_ll(model, data, index, beta):
    """``likelihood.index_evaluate`` at a probe; ll = -inf where that raises."""
    try:
        return likelihood.index_evaluate(model, beta, data, index)
    except (DegenerateLikelihood, NumericalError):
        return -np.inf, None, None


def _ll_resolution(ll):
    """Smallest change of a log-likelihood near ``ll`` that rounding cannot fake."""
    return 64.0 * np.finfo(float).eps * max(1.0, abs(ll))


def _ascent_direction(neg_hess, grad):
    """Newton direction; least squares where the negated Hessian is singular."""
    try:
        return sla.cho_solve(sla.cho_factor(neg_hess, check_finite=False), grad, check_finite=False)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(neg_hess, grad, rcond=None)[0]


def _newton(model, data, index, beta, config, score_norm):
    """Damped Newton ascent in beta until ``score_norm(beta, grad)`` falls to
    the tolerance: (beta, status, iterations, its (ll, grad, hess))."""
    ll, grad, hess = likelihood.index_evaluate(model, beta, data, index)  # _newton_from catches
    status = "max-iterations"
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        gnorm = score_norm(beta, grad)
        if gnorm <= config.gradient_tolerance:
            status = "converged"
            break
        direction = _ascent_direction(-hess, grad)
        slope = float(grad @ direction)
        if not slope > 0.0:
            break
        # a predicted gain below the float resolution of the log-likelihood
        # makes the sufficient-increase test a coin flip; there the full
        # step is judged by whether it lowers the score instead
        blind = 0.5 * slope <= _ll_resolution(ll)
        t = 1.0
        while t >= MIN_DAMPING:
            cand = beta + t * direction
            step = _safe_ll(model, data, index, cand)
            if step[0] >= ll + SUFFICIENT_INCREASE * t * slope or (
                blind and t == 1.0 and step[1] is not None and score_norm(cand, step[1]) < gnorm
            ):
                break
            t *= BACKTRACKING_FACTOR
        if t < MIN_DAMPING:
            break  # no measurable progress left at this precision
        beta, (ll, grad, hess) = cand, step
    return beta, status, iterations, (ll, grad, hess)


def _newton_from(model, data, index, beta, config):
    """``_newton`` judged on the theta-score, from ``beta`` or, where bits
    have probability 0 there, from the first point toward a neutral interior
    one where none has."""
    def score_norm(b, g):  # the score in theta
        return float(np.max(np.abs(likelihood.to_theta(model, b, g)[0])))

    try:
        return _newton(model, data, index, beta, config, score_norm)
    except (DegenerateLikelihood, NumericalError) as err:
        error = err
    anchor = model.index_from_theta(np.array([float(k == "positive") for k in model.domain]))
    for _ in range(60):
        beta = 0.5 * (beta + anchor)
        if np.isfinite(_safe_ll(model, data, index, beta)[0]):
            return _newton(model, data, index, beta, config, score_norm)
    raise error


def _wall_maximum(model, data, index, beta, ll, config):
    """The maximizer along the wall beta_p = 0, moved in until an index moves
    by eps, and its evaluation; None where ``beta`` is inside, the wall's
    score points inside and the likelihoods differ: an interior maximum."""
    p, (X, offset) = model.index_positive, index
    free = np.arange(len(beta)) != p
    wall = np.zeros_like(beta)
    wall[free] = _newton(
        model, data, (X[:, free], offset), beta[free], config,
        lambda b, g: float(np.max(np.abs(g), initial=0.0)),
    )[0]
    wall_ll, grad, _ = likelihood.index_evaluate(model, wall, data, index)
    if beta[p] > 0.0 and grad[p] > 0.0 and abs(ll - wall_ll) > _ll_resolution(wall_ll):
        return None
    wall[p] = np.finfo(float).eps / np.max(np.abs(X[:, p]))
    return wall, likelihood.index_evaluate(model, wall, data, index)


def fit(model, data, config=None):
    """Maximize the censored log-likelihood over the model's domain.

    Works on ``data.grouped()``, so the result is bit-identical under any
    permutation of the observations.  Raises NonIdentifiable where the bits
    are separated (no finite maximizer) or the information at a stationary
    point is singular (no unique one); propagates degenerate-data errors and
    DomainError, naming a row in the numbering of ``data``.
    """
    config = config or FitConfig()
    # every evaluation below costs O(distinct rows), and the canonical row
    # order makes the fit independent of the order of the observations
    data, rows = data.grouped(return_index=True)
    try:
        index = model.index_regressors(data.designs)
    except DomainError as err:
        if err.index is None:
            raise
        raise DomainError(str(err), index=int(rows[err.index])) from err
    _check_identifiable(model, data, index[0])
    start = model.initial_point(data) if config.start is None else config.start
    start = np.atleast_1d(np.asarray(start, dtype=float))
    model.check_theta(start)
    beta0 = model.index_from_theta(start)
    try:
        beta, status, iterations, (ll, grad, hess) = _newton_from(model, data, index, beta0, config)
    except DegenerateLikelihood as err:
        if err.index is None:
            raise
        # name the observation in the caller's numbering, not the grouped one
        raise DegenerateLikelihood.at_observation(int(rows[err.index])) from err
    p = model.index_positive
    if p is not None and (status != "converged" or not beta[p] > 0.0):
        wall = _wall_maximum(model, data, index, beta, ll, config)
        if wall is not None:
            (beta, (ll, grad, hess)), status = wall, "boundary-divergence"
    grad, hess = likelihood.to_theta(model, beta, grad, hess)
    gnorm = float(np.max(np.abs(grad)))
    observed = -hess
    observed.setflags(write=False)
    # converged means a stationary point that is locally a maximum: tiny
    # score and a positive definite observed information.  A regular point
    # is locally identified iff its information is nonsingular (Rothenberg,
    # Econometrica 39, 1971), so a singular one at a stationary point is a
    # ridge of maximizers, not an estimate
    if status == "converged":
        eigs, vecs = np.linalg.eigh(observed)
        trace = float(np.trace(observed))
        if abs(eigs[0]) <= RIDGE_TOLERANCE * abs(trace):
            raise NonIdentifiable(
                f"the observed information is singular at the estimate (smallest "
                f"eigenvalue {eigs[0]:.3g}, trace {trace:.3g}); the likelihood is flat "
                f"along the direction {np.array2string(vecs[:, 0], precision=4)}"
            )
        if not eigs[0] > 0.0:
            status = "max-iterations"
    return FitResult(
        # the start itself where no step was taken, so it is not rounded twice
        theta_hat=model.parameter_vector(start if beta is beta0 else model.theta_from_index(beta)),
        iterations=iterations,
        final_score_norm=gnorm,
        log_likelihood=ll,
        observed_information=observed,
        status=status,
    )
