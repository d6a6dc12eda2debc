"""Maximum-likelihood fitting of the censored GLM.

``fit`` runs one damped Newton ascent, with analytic score and Hessian,
from ``FitConfig.start`` or else the family's ``initial_point``.  It works
on the grouped data (identical observations merged into counts), so each
iteration costs O(distinct rows), not O(n).  Where the negated Hessian is
not positive definite, a diagonal Levenberg shift is escalated until it is,
falling back to gradient ascent past a shift of 1e6.  Steps are halved
until feasible and must raise the log-likelihood enough (Armijo), except
near the optimum, where the gain a step predicts is below the float
resolution of the log-likelihood: there the full Newton step is taken when
it lowers the score.

Each family's P(B_i = +1) increases in a linear index offset_i + x_i.beta
(``index_regressors``), in which the likelihood is concave.  So a finite
maximizer exists unless the bits are separated: some direction d, with
d >= 0 in the 1/sigma coordinate, has b_i x_i.d >= 0 on every row and > 0
on one (Albert & Anderson, Biometrika 71, 1984).  ``fit`` checks that
first.  For k <= 2 it needs no linear program: the cone of such d is
spanned by the rays perpendicular to the rows at either end of the widest
angular gap between them, or by its middle where it is a half-plane.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from . import likelihood
from .exceptions import DegenerateLikelihood, NonIdentifiable, NumericalError
from .types import ParameterVector, satisfies_domain

#: Iterate norm beyond which a still-increasing likelihood is declared monotone.
DIVERGENCE_NORM = 1e8
#: Largest Levenberg shift before falling back to gradient ascent.
MAX_SHIFT = 1e6
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
    """Outcome of a fit.

    ``observed_information`` is the negated Hessian at the estimate;
    ``status`` is one of "converged", "max-iterations",
    "boundary-divergence" (the estimate slid into a domain wall), or
    "non-identifiable" (only seen inside failure reports; fit raises).
    """

    theta_hat: ParameterVector
    converged: bool
    iterations: int
    final_score_norm: float
    log_likelihood: float
    observed_information: np.ndarray
    status: str


def _separating_direction(model, data):
    """A unit direction d of the index parameter beta along which no bit
    gets less likely and at least one gets more likely, or None.

    Each candidate is verified on every row up to a relative tolerance, so
    that x and -x (one design seen with both bits) cancel.
    """
    A = data.bits[:, None] * model.index_regressors(data.designs)[0]
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


def _check_identifiable(model, data):
    V = data.designs.V
    for j in range(data.designs.k):
        if np.all(V[:, :, j] == 0.0):
            raise NonIdentifiable(f"every design is zero in parameter direction {j}")
    d = _separating_direction(model, data)
    if d is not None:
        raise NonIdentifiable(
            f"the bits are separated along the index direction {np.array2string(d, precision=4)}:"
            " the likelihood rises without bound along it, so no finite maximizer exists"
        )


def _safe_ll(model, data, theta):
    try:
        return likelihood.log_likelihood(model, theta, data)
    except (DegenerateLikelihood, NumericalError):
        return -np.inf


def _safe_evaluate(model, data, theta):
    try:
        return likelihood.evaluate(model, theta, data)
    except (DegenerateLikelihood, NumericalError):
        return None


def _ll_resolution(ll):
    """Smallest change of a log-likelihood near ``ll`` that rounding cannot fake."""
    return 64.0 * np.finfo(float).eps * max(1.0, abs(ll))


def _ascent_direction(neg_hess, grad):
    """Newton direction with escalating diagonal shift; gradient fallback."""
    k = neg_hess.shape[0]
    shift = 0.0
    scale = max(1.0, float(np.trace(neg_hess)) / k)
    while True:
        try:
            c, low = sla.cho_factor(neg_hess + shift * np.eye(k), check_finite=False)
            return sla.cho_solve((c, low), grad, check_finite=False)
        except np.linalg.LinAlgError:
            pass
        shift = max(shift * 10.0, 1e-8 * scale) if shift else 1e-8 * scale
        if shift > MAX_SHIFT:
            return grad.copy()


def _newton(model, data, theta0, config):
    """Damped Newton ascent from ``theta0``.

    Returns (theta, status, iterations, (ll, grad, hess)), the last being
    the evaluation at the returned theta.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if not satisfies_domain(theta, model.domain):
        raise DegenerateLikelihood("starting point outside the parameter domain")
    ll, grad, hess = likelihood.evaluate(model, theta, data)  # may raise; see _newton_from

    status = "max-iterations"
    iterations = 0
    stalled = 0
    for iterations in range(1, config.max_iterations + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= config.gradient_tolerance:
            status = "converged"
            break
        direction = _ascent_direction(-hess, grad)
        slope = float(grad @ direction)
        if slope <= 0.0:  # fallback already guarantees ascent; belt and braces
            direction = grad.copy()
            slope = float(grad @ grad)

        t = 1.0
        while not satisfies_domain(theta + t * direction, model.domain):
            t *= BACKTRACKING_FACTOR
            if t < MIN_DAMPING:
                status = "boundary-divergence"
                break
        if status == "boundary-divergence":
            break

        # a predicted gain below the float resolution of the log-likelihood
        # makes the sufficient-increase test a coin flip; there the full
        # step is judged by whether it lowers the score instead
        accepted = False
        if t == 1.0 and 0.5 * slope <= _ll_resolution(ll):
            step = _safe_evaluate(model, data, theta + direction)
            if step is not None and float(np.max(np.abs(step[1]))) < gnorm:
                theta = theta + direction
                gain = step[0] - ll
                ll, grad, hess = step
                accepted = True
        if not accepted:
            while t >= MIN_DAMPING:
                cand = theta + t * direction
                cand_ll = _safe_ll(model, data, cand)
                if cand_ll >= ll + SUFFICIENT_INCREASE * t * slope:
                    gain = cand_ll - ll
                    theta = cand
                    accepted = True
                    break
                t *= BACKTRACKING_FACTOR
            if not accepted:
                break  # no measurable progress left at this precision
            ll, grad, hess = likelihood.evaluate(model, theta, data)

        # progress below the float resolution of the log-likelihood for many
        # consecutive steps means the line search has gone blind; give slow
        # shifted-Newton crawls room, but do not churn to the iteration cap
        if gain <= _ll_resolution(ll):
            stalled += 1
            if stalled >= 25:
                break
        else:
            stalled = 0

        if float(np.linalg.norm(theta)) > DIVERGENCE_NORM:
            raise NonIdentifiable(
                "iterates diverged with increasing likelihood; the data do "
                "not pin down a finite maximizer"
            )

    return theta, status, iterations, (ll, grad, hess)


def _newton_from(model, data, start, config):
    """``_newton`` from ``start`` or, where bits have probability 0 there, from
    the first point toward a neutral interior one where none has."""
    try:
        return _newton(model, data, start, config)
    except (DegenerateLikelihood, NumericalError) as err:
        error = err
    anchor = np.array([1.0 if k == "positive" else 0.0 for k in model.domain])
    for _ in range(60):
        start = 0.5 * (start + anchor)
        if np.isfinite(_safe_ll(model, data, start)):
            return _newton(model, data, start, config)
    raise error


def fit(model, data, config=None):
    """Maximize the censored log-likelihood over the model's domain.

    Works on ``data.grouped()``, so the result is bit-identical under any
    permutation of the observations.  Raises NonIdentifiable where the bits
    are separated (no finite maximizer) or the information at a stationary
    point is singular (no unique one); propagates degenerate-data errors.
    """
    config = config or FitConfig()
    # every evaluation below costs O(distinct rows), and the canonical row
    # order makes the fit independent of the order of the observations
    data, rows = data.grouped(return_index=True)
    _check_identifiable(model, data)
    start = model.initial_point(data) if config.start is None else config.start
    start = np.atleast_1d(np.asarray(start, dtype=float))
    try:
        theta, status, iterations, (ll, grad, hess) = _newton_from(model, data, start, config)
    except DegenerateLikelihood as err:
        if err.index is None:
            raise
        # name the observation in the caller's numbering, not the grouped one
        raise DegenerateLikelihood.at_observation(int(rows[err.index])) from err
    gnorm = float(np.max(np.abs(grad)))
    observed = -hess
    observed.setflags(write=False)
    # converged means a stationary point that is locally a maximum: tiny
    # score and a positive definite observed information.  A regular point
    # is locally identified iff its information is nonsingular (Rothenberg,
    # Econometrica 39, 1971), so a singular one at a stationary point is a
    # ridge of maximizers, not an estimate
    converged = status == "converged" and gnorm <= config.gradient_tolerance
    if converged:
        eigs, vecs = np.linalg.eigh(observed)
        trace = float(np.trace(observed))
        if abs(eigs[0]) <= RIDGE_TOLERANCE * abs(trace):
            raise NonIdentifiable(
                f"the observed information is singular at the estimate (smallest "
                f"eigenvalue {eigs[0]:.3g}, trace {trace:.3g}); the likelihood is flat "
                f"along the direction {np.array2string(vecs[:, 0], precision=4)}"
            )
        converged = bool(eigs[0] > 0.0)
    if status == "converged" and not converged:
        status = "max-iterations"
    return FitResult(
        theta_hat=model.parameter_vector(theta),
        converged=converged,
        iterations=iterations,
        final_score_norm=gnorm,
        log_likelihood=ll,
        observed_information=observed,
        status=status,
    )
