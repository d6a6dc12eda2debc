"""Maximum-likelihood fitting of the censored GLM.

Each family's P(B_i = +1) is a log-concave cdf of a linear index
offset_i + x_i.beta (``index_regressors``), so the log-likelihood is
concave in beta over all of R^k (Pratt, JASA 76, 1981).  ``fit`` runs one
damped Newton ascent in beta with the derivatives of ``index_link``, on
the grouped data (identical observations merged into counts), so each
iteration costs O(distinct rows), not O(n).  Steps must raise the
log-likelihood enough (Armijo), except where the gain a step predicts is
below its float resolution: there the full step is taken when it lowers
the score in beta (the one in theta divides by 1/sigma, so near the wall
it reads rounding as slope).  Convergence is judged, and the score
reported, in theta: J^-T g for the Jacobian J of theta(beta).

A finite maximizer exists unless the bits are separated: some direction d,
with d >= 0 in the 1/sigma coordinate, has b_i x_i.d >= 0 on every row and
> 0 on one (Albert & Anderson, Biometrika 71, 1984).  ``fit`` checks that
first, then that the distinct designs' regressors have rank k: with fewer
independent indices the maximizers form a ridge, whatever the start.  For
k <= 2 the first needs no linear program: the cone of such d is spanned by
the rays perpendicular to the rows at either end of the widest angular gap
between them, or by its middle where it is a half-plane.

The ascent also stops where its Newton step would change no row's index
beyond rounding: beta is then stationary to its precision, whatever the
theta-score's own rounding reads (it divides by 1/sigma).

Where the ascent ends at 1/sigma <= 0, the supremum lies on the wall
1/sigma = 0 (sigma -> infinity).  So it does where the ascent ends short of
a theta-score at the tolerance, or where the step to the wall itself would
move no index beyond rounding, while the score at the maximizer along the
wall points out of the domain or its likelihood ties the iterate's.
``fit`` reports that maximizer, just inside, as "boundary-divergence".
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from . import likelihood
from .exceptions import DegenerateLikelihood, DomainError, NonIdentifiable, NumericalError
from .types import is_finite_number, is_integer

#: Smallest line-search damping before giving up on a direction.
MIN_DAMPING = 1e-14
#: Factor the line search shrinks a rejected step by.
BACKTRACKING_FACTOR = 0.5
#: Armijo constant: the share of the predicted gain a step must achieve.
SUFFICIENT_INCREASE = 1e-4
#: Smallest eigenvalue of the observed information, relative to its trace,
#: below which a converged fit is a ridge and raises NonIdentifiable.
RIDGE_TOLERANCE = 1e3 * np.finfo(float).eps
#: |b_i x_i.d| relative to |x_i| |d| below which the separation check reads 0,
#: and the relative singular value at or below which the rank check does.
SEPARATION_TOLERANCE = 1e3 * np.finfo(float).eps
#: |x_i.d| relative to max(1, |z_i|) at or below which a step d changes no
#: row's index z_i beyond rounding.
STATIONARY_TOLERANCE = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; the defaults suit all bundled model families."""

    max_iterations: int = 200
    gradient_tolerance: float = 1e-9

    def __post_init__(self):
        if not is_integer(self.max_iterations, 1):
            raise ValueError("max_iterations must be an integer >= 1")
        if not (is_finite_number(self.gradient_tolerance) and self.gradient_tolerance > 0):
            raise ValueError("gradient_tolerance must be finite and > 0")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit, in theta.

    ``theta_hat`` is a read-only (k,) float array inside the family's
    domain; ``observed_information`` is the negated Hessian at the estimate;
    ``status`` is one of "converged" (stationary to rounding in beta, at a
    locally maximal point: the theta-score fell to the tolerance or the
    Newton step moves no index beyond rounding, and the observed
    information is positive definite), "max-iterations" or
    "boundary-divergence" (the supremum lies on the wall sigma -> infinity,
    and the estimate and its log-likelihood are the maximizer along it,
    moved just inside to sigma ~ 1/eps).  ``final_score_norm`` is the
    theta-score as it is, above the tolerance where a flat optimum's
    rounding puts it there.
    """

    theta_hat: np.ndarray
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
    s = np.linalg.svd(X[rows], compute_uv=False)  # half the cost of the whole SVD
    if len(s) < model.k or s[-1] <= SEPARATION_TOLERANCE * s[0]:
        flat = np.linalg.svd(X[rows], full_matrices=len(rows) < model.k)[2][-1]  # Vt is k x k
        raise NonIdentifiable(
            f"the distinct designs' regressors have rank below {model.k}: the likelihood"
            f" is flat along the index direction {np.array2string(flat, precision=4)}"
        )


def _safe_ll(model, data, index, beta):
    """``likelihood.index_evaluate`` at a probe; ll = -inf where that raises."""
    try:
        return likelihood.index_evaluate(model, beta, data, index)
    except (DegenerateLikelihood, NumericalError):
        return -np.inf, None, None, None


def _ll_resolution(ll):
    """Smallest change of a log-likelihood near ``ll`` that rounding cannot fake."""
    return 64.0 * np.finfo(float).eps * max(1.0, abs(ll))


def _ascent_direction(neg_hess, grad):
    """Newton direction; least squares where the negated Hessian is singular."""
    try:
        return sla.cho_solve(sla.cho_factor(neg_hess, check_finite=False), grad, check_finite=False)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(neg_hess, grad, rcond=None)[0]


def _moves_no_index(z, moves):
    """Whether index moves ``moves`` (X d for a step d) from the indices ``z``
    stay within rounding: |moves_i| <= STATIONARY_TOLERANCE max(1, |z_i|)."""
    return bool(np.all(np.abs(moves) <= STATIONARY_TOLERANCE * np.maximum(1.0, np.abs(z))))


def _newton(model, data, index, beta, config, score_norm):
    """Damped Newton ascent in beta until ``score_norm(beta, grad)`` falls to
    the tolerance ("converged") or the Newton step moves no index beyond
    rounding ("stationary"): (beta, status, iterations, its (ll, grad, hess, z))."""
    ll, grad, hess, z = likelihood.index_evaluate(model, beta, data, index)  # _newton_from catches
    status = "max-iterations"
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        gnorm = score_norm(beta, grad)
        if gnorm <= config.gradient_tolerance:
            status = "converged"
            break
        direction = _ascent_direction(-hess, grad)
        if _moves_no_index(z, index[0].dot(direction)):
            status = "stationary"
            break
        slope = float(grad @ direction)
        if not slope > 0.0:
            break
        # a predicted gain below the float resolution of the log-likelihood
        # makes the sufficient-increase test a coin flip; there the full
        # step is judged by whether it lowers the score in beta instead
        blind = 0.5 * slope <= _ll_resolution(ll)
        t = 1.0
        while t >= MIN_DAMPING:
            cand = beta + t * direction
            step = _safe_ll(model, data, index, cand)
            if step[0] >= ll + SUFFICIENT_INCREASE * t * slope or (
                blind and t == 1.0 and step[1] is not None
                and np.max(np.abs(step[1])) < np.max(np.abs(grad))
            ):
                break
            t *= BACKTRACKING_FACTOR
        if t < MIN_DAMPING:
            break  # no measurable progress left at this precision
        beta, (ll, grad, hess, z) = cand, step
    return beta, status, iterations, (ll, grad, hess, z)


def _newton_from(model, data, index, beta, config):
    """``_newton`` judged on the theta-score, from ``beta`` or, where bits
    have probability 0 there, from the first point toward a neutral interior
    one where none has."""
    def score_norm(b, g):  # the score in theta
        return float(np.max(np.abs(likelihood.to_theta(model, b, g)[0])))

    try:
        return _newton(model, data, index, beta, config, score_norm)
    except (DegenerateLikelihood, NumericalError):
        pass
    anchor = model.index_from_theta(np.array([float(k == "positive") for k in model.domain]))
    for _ in range(60):
        beta = 0.5 * (beta + anchor)
        if np.isfinite(_safe_ll(model, data, index, beta)[0]):
            break
    # where no probe could be evaluated, this raises the error of the last
    return _newton(model, data, index, beta, config, score_norm)


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
    wall_ll, grad, _, _ = likelihood.index_evaluate(model, wall, data, index)
    if beta[p] > 0.0 and grad[p] > 0.0 and abs(ll - wall_ll) > _ll_resolution(wall_ll):
        return None
    wall[p] = np.finfo(float).eps / np.max(np.abs(X[:, p]))
    return wall, likelihood.index_evaluate(model, wall, data, index)


def fit(model, data, config=None):
    """Maximize the censored log-likelihood over the model's domain.

    Works on ``data.grouped()``, so the result is bit-identical under any
    permutation of the observations.  Raises NonIdentifiable where the bits
    are separated (no finite maximizer), or the designs' regressors have rank
    below k or the information at a stationary point is singular (no unique
    one); propagates degenerate-data errors and DomainError, naming a row in
    the numbering of ``data``.
    """
    config = config or FitConfig()
    # every evaluation below costs O(distinct rows), and the canonical row
    # order makes the fit independent of the order of the observations
    data, rows, tally = data.grouped()
    try:
        index = model.index_regressors(data.designs)
        _check_identifiable(model, data, index[0], tally[0], paired=data.n == 2 * len(tally[0]))
        beta = model.initial_point(data, index, tally)
        beta, status, iterations, (ll, grad, hess, z) = _newton_from(model, data, index, beta, config)
    except (DomainError, DegenerateLikelihood) as err:
        if err.index is None:
            raise
        # name the row in the caller's numbering, not the grouped one
        i = int(rows[err.index])
        if isinstance(err, DegenerateLikelihood):
            raise DegenerateLikelihood.at_observation(i) from err
        raise DomainError(str(err), index=i) from err
    p = model.index_positive
    # the step to the wall beta_p = 0 moves each index z_i by -beta_p x_ip
    if p is not None and (
        status != "converged" or not beta[p] > 0.0
        or _moves_no_index(z, beta[p] * index[0][:, p])
    ):
        wall = _wall_maximum(model, data, index, beta, ll, config)
        if wall is not None:
            (beta, (ll, grad, hess, _)), status = wall, "boundary-divergence"
    if status == "stationary":
        status = "converged"
    grad, hess = likelihood.to_theta(model, beta, grad, hess)
    gnorm = float(np.max(np.abs(grad)))
    observed = -hess
    observed.setflags(write=False)
    # converged means a stationary point that is locally a maximum: a tiny
    # score or a Newton step below rounding, and a positive definite
    # observed information.  A regular point is locally identified iff its
    # information is nonsingular (Rothenberg, Econometrica 39, 1971), so a
    # singular one at a stationary point is a ridge of maximizers, not an
    # estimate
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
    theta_hat = model.check_theta(model.theta_from_index(beta)).copy()
    theta_hat.setflags(write=False)
    return FitResult(
        theta_hat=theta_hat,
        iterations=iterations,
        final_score_norm=gnorm,
        log_likelihood=ll,
        observed_information=observed,
        status=status,
    )
