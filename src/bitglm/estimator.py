"""Maximum-likelihood fitting of the censored GLM.

A damped Newton ascent on the censored log-likelihood with analytic score
and Hessian.  When the negated Hessian is not positive definite (the
censored log-likelihood is not concave for every family) a diagonal
Levenberg shift is escalated until it is, falling back to plain gradient
ascent past a shift of 1e6.  Iterates never leave the parameter domain:
steps are halved until feasible.  Steps must raise the log-likelihood
enough (Armijo), except near the optimum, where the gain a step predicts is
below the float resolution of the log-likelihood: there the full Newton
step is taken when it lowers the score.

``fit`` works on the grouped data (identical observations merged into
counts), so each iteration costs O(distinct rows), not O(n).

Multistart: each family's ``initial_point`` plus seeded multiplicative
jitters; the winner is the candidate with the highest log-likelihood, ties
broken by smaller parameter norm and then lexicographic order, so results
are reproducible bit for bit.  The Gaussian families start at the
per-design probit inversion (Berkson's minimum-chi-square start): where
designs repeat, each design's +1 fraction p_j gives Phi^-1(p_j), which is
linear in a reparameterisation of theta, and a weighted least-squares fit
of those values is the start.  With exactly k designs, each seen with both
bits and none one-sided, it is the MLE itself, so such a fit converges at
its first iteration.  With fewer than k designs seen with both bits (every
i.i.d. dataset), a rank-deficient system or a solution outside the domain,
they fall back to a pooled start built from the overall bit fraction and
mean threshold.
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


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; the defaults suit all bundled model families."""

    max_iterations: int = 200
    gradient_tolerance: float = 1e-9
    initial_points: tuple = None  # explicit starts; None means auto
    multistart_count: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.gradient_tolerance > 0):
            raise ValueError("gradient_tolerance must be > 0")
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be >= 1")


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


def auto_initialize(model, data, multistart_count=5, seed=0):
    """Starting points: ``model.initial_point(data)`` plus seeded
    multiplicative log-normal jitters (scale 0.5).

    For the Gaussian families the base point is the per-design probit
    inversion where at least k designs are seen with both bits, and the
    pooled bit-fraction start otherwise (see the module docstring).

    Returns a list of ``multistart_count`` parameter arrays, the
    deterministic base point first.
    """
    base = model.initial_point(data)
    starts = [base]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    while len(starts) < multistart_count:
        jitter = np.exp(0.5 * rng.standard_normal(base.shape[0]))
        starts.append(base * jitter)
    return starts


def _check_identifiable(model, data):
    V = data.designs.V
    for j in range(data.designs.k):
        if np.all(V[:, :, j] == 0.0):
            raise NonIdentifiable(
                f"parameter direction {j} is unconstrained (all designs zero there)"
            )
    # monotone-likelihood detection through the effective push direction of
    # each bit; exact for the scalar families, conservative for the rest
    lead = V[:, 0, 0]
    nz = lead != 0.0
    if data.designs.k == 1 and data.designs.d == 1:
        s = data.bits[nz] * np.sign(lead[nz])
        if s.size and np.all(s == s[0]):
            raise NonIdentifiable(
                "all observations push the same parameter direction "
                "(one-sided bits); the likelihood is monotone and no finite "
                "maximizer exists"
            )
    elif np.all(data.bits == data.bits[0]):
        s = data.bits[nz] * np.sign(lead[nz])
        if s.size == 0 or np.all(s == s[0]):
            raise NonIdentifiable(
                "all observed bits are equal; the likelihood is monotone and "
                "no finite maximizer exists"
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
    ll, grad, hess = likelihood.evaluate(model, theta, data)  # may raise; caller skips start

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


def fit(model, data, config=None):
    """Maximize the censored log-likelihood over the model's domain.

    Works on ``data.grouped()``, so the result is bit-identical under any
    permutation of the observations.  Runs every start from
    ``config.initial_points`` (or auto_initialize), then deterministically
    selects the best candidate.  Raises NonIdentifiable when the data admit
    no finite maximizer or no unique one (a singular observed information
    at a stationary point) and propagates degenerate-data errors.
    """
    config = config or FitConfig()
    # every evaluation below costs O(distinct rows), and the canonical row
    # order makes the fit independent of the order of the observations
    data, rows = data.grouped(return_index=True)
    _check_identifiable(model, data)

    if config.initial_points is not None:
        starts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in config.initial_points]
        if not starts:
            raise ValueError("initial_points must not be empty")
    else:
        starts = auto_initialize(model, data, config.multistart_count, config.seed)

    candidates = []
    last_error = None
    for theta0 in starts:
        try:
            candidates.append(_newton(model, data, theta0, config))
        except (DegenerateLikelihood, NumericalError) as err:
            last_error = err
    if not candidates:
        # every start was infeasible (zero-probability bits there); pull the
        # starts toward a neutral interior point until the likelihood is
        # finite, then try again
        anchor = np.array([1.0 if k == "positive" else 0.0 for k in model.domain])
        for theta0 in starts:
            cur = np.asarray(theta0, dtype=float)
            for _ in range(60):
                cur = 0.5 * (cur + anchor)
                if np.isfinite(_safe_ll(model, data, cur)):
                    try:
                        candidates.append(_newton(model, data, cur, config))
                    except (DegenerateLikelihood, NumericalError) as err:
                        last_error = err
                    break
    if not candidates:
        if isinstance(last_error, DegenerateLikelihood) and last_error.index is not None:
            # name the observation in the caller's numbering, not the grouped one
            raise DegenerateLikelihood.at_observation(int(rows[last_error.index])) from last_error
        raise last_error

    def rank(c):
        theta, _, _, (ll, _, _) = c
        return (-ll, float(np.linalg.norm(theta)), tuple(theta))

    # the final diagnostics are the winner's last evaluation, at its theta
    theta, status, iterations, (ll, grad, hess) = min(candidates, key=rank)
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
