"""Solver behavior: oracle agreement, determinism, identifiability."""

import inspect
import math
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bitglm
from bitglm import (
    BitGlmError,
    CensoredDataset,
    DegenerateLikelihood,
    DesignSet,
    DomainError,
    ModelFamily,
    NonIdentifiable,
    NumericalError,
    cli,
    estimator,
    fit,
    likelihood,
    models,
    montecarlo,
)
from bitglm._gauss import fim_weight, log_cdf_and_signed_hazard, norm_ppf
from conftest import MODEL_NAMES, random_instance, repeated_rows
from _oracles import grid_search_maximizer, lp_separated


def iid_case1(bits, tau=0.0, sigma=1.0):
    n = len(bits)
    fam = models.GaussianCase1(np.ones(n), sigma=sigma)
    return fam, CensoredDataset(bits, fam.design_set(np.full(n, tau)))


class TestFitSpots:
    def test_balanced_bits_give_zero(self):
        fam, data = iid_case1([1, -1, 1, -1])
        res = fit(fam, data)
        assert res.converged
        assert res.theta_hat[0] == pytest.approx(0.0, abs=1e-12)

    def test_three_quarters_inversion(self):
        # closed form: alpha_hat = tau - sigma * quantile(3/4)
        fam, data = iid_case1([1, 1, 1, -1])
        res = fit(fam, data)
        want = -float(norm_ppf(0.75))
        assert res.converged
        assert_allclose(res.theta_hat[0], want, rtol=1e-8)
        assert res.theta_hat[0] == pytest.approx(-0.6744897501960817, abs=1e-7)

    def test_all_positive_bits_raise(self):
        fam, data = iid_case1([1, 1, 1, 1])
        with pytest.raises(NonIdentifiable):
            fit(fam, data)

    def test_one_sided_through_mixed_weight_signs(self):
        # bits differ but every observation pushes alpha the same way
        fam = models.GaussianCase1([1.0, -1.0], sigma=1.0)
        data = CensoredDataset([1, -1], fam.design_set([0.0, 0.0]))
        with pytest.raises(NonIdentifiable):
            fit(fam, data)

    def test_degenerate_error_names_the_callers_observation(self, monkeypatch):
        # only observation 1 is impossible at a start of 0, where P(X > 300)
        # at rate 1 is exactly 0 (the retreat's anchor is that start), and
        # the grouped data store it as row 2
        fam = models.PoissonModel([1.0] * 4)
        data = CensoredDataset([-1, -1, 1, -1], fam.design_set([2.0, 300.0, 2.0, 1.0]))
        monkeypatch.setattr(fam, "initial_point", lambda *args: np.zeros(1))
        with pytest.raises(DegenerateLikelihood) as err:
            fit(fam, data)
        assert err.value.index == 1
        assert str(err.value).startswith("observation 1 ")

    def test_degenerate_error_where_the_retreat_gives_up(self):
        # the start, log(mean threshold) = 42.6, is past the rate range, and
        # every probe toward the anchor finds observation 2 impossible, as
        # P(X > 1e19) is 0 at every supported rate; the start's rate error
        # was reported instead
        fam = models.PoissonModel([1.0] * 3)
        data = CensoredDataset([1, -1, -1], fam.design_set([1.0, 3.0, 1e19]))
        with pytest.raises(DegenerateLikelihood) as err:
            fit(fam, data)
        assert err.value.index == 2
        assert str(err.value).startswith("observation 2 ")

    def test_negative_poisson_threshold_names_the_callers_row(self):
        # the grouped data store the bad row 0 as row 1 (the bit is the most
        # significant key), and the error names the caller's row
        fam = models.PoissonModel([1.0] * 3)
        data = CensoredDataset([1, -1, 1], DesignSet(np.ones((3, 1, 1)), [-1.0, 2.0, 4.0]))
        with pytest.raises(DomainError, match="poisson thresholds must be >= 0") as err:
            fit(fam, data)
        assert err.value.index == 0

    def test_designs_of_the_wrong_shape_raise_without_an_index(self):
        fam = models.GaussianCase3([1.0, 1.0])
        data = CensoredDataset([1, -1], DesignSet(np.ones((2, 1, 1)), [0.0, 1.0]))
        with pytest.raises(DomainError, match=r"shape \(2, 2\), got \(1, 1\)") as err:
            fit(fam, data)
        assert err.value.index is None

    def test_poisson_fit_checks_its_designs_once(self):
        # the thresholds are checked where the index route starts, not on
        # every likelihood evaluation
        fam = models.PoissonModel([0.5, 1.0, 1.5, 1.0] * 3)
        data = CensoredDataset([1, -1, 1, -1, -1, 1] * 2, fam.design_set([1.0, 2.0, 4.0, 3.0] * 3))
        with mock.patch.object(fam, "check_designs", wraps=fam.check_designs) as check, \
                mock.patch.object(fam, "index_link", wraps=fam.index_link) as link:
            assert fit(fam, data).converged
        assert link.call_count > 1
        assert check.call_count == 1

    def test_unconstrained_direction_raises(self):
        fam = models.GaussianCase1([0.0, 0.0], sigma=1.0)
        data = CensoredDataset([1, -1], fam.design_set([0.0, 0.0]))
        with pytest.raises(NonIdentifiable):
            fit(fam, data)

    @pytest.mark.parametrize("seed", [11, 14, 23])
    def test_a_ridge_is_not_reported_as_converged(self, seed):
        # each dataset has one distinct case-3 design, which identifies only
        # (tau - w alpha) / sigma; the fit stopped at a point on that ridge
        # of maximizers and reported it converged, with the smallest
        # eigenvalue of the observed information at ~1e-16 of its trace.
        # The rank of the distinct designs' regressors now rules first
        fam, _, data = repeated_rows("gaussian-case3", np.random.default_rng(seed), max_reps=30)
        assert len(np.unique(data.designs.taus)) == 1
        with pytest.raises(NonIdentifiable, match="rank below 2: .* flat along the index"):
            fit(fam, data)

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.floats(-3.0, 3.0),
        tau=st.floats(-3.0, 3.0),
        plus=st.integers(1, 20),
        minus=st.integers(1, 20),
        from_anchor=st.booleans(),
    )
    def test_one_case3_design_is_a_ridge_from_any_start(self, w, tau, plus, minus, from_anchor):
        # one distinct design seen with both bits leaves a line of maximizers
        # through the wall 1/sigma = 0; from the neutral anchor theta = (0, 1)
        # instead of the pooled start the ascent drifted to the wall or ran
        # out, and reported boundary-divergence or max-iterations
        n = plus + minus
        fam = models.GaussianCase3(np.full(n, w))
        data = CensoredDataset([1] * plus + [-1] * minus, fam.design_set(np.full(n, tau)))
        start = fam.initial_point
        if from_anchor:
            start = mock.Mock(return_value=fam.index_from_theta(np.array([0.0, 1.0])))
        with mock.patch.object(fam, "initial_point", start):
            with pytest.raises(NonIdentifiable, match="rank below 2"):
                fit(fam, data)

    def test_nearly_coincident_designs_fit_the_closed_form(self):
        # two case-3 thresholds 1e-7 apart, seen with +1 fractions 1/2 and
        # 3/5: exactly k usable designs, so the MLE is the two-threshold
        # inversion, alpha = 1 and sigma = 3.947e-7.  An eigenvalue test of
        # the information in theta (1e3 eps of its trace) read this
        # alpha/sigma ~ 2.5e6 as a ridge and raised NonIdentifiable
        fam = models.GaussianCase3(np.ones(20))
        taus = np.repeat([1.0, 1.0 + 1e-7], 10)
        data = CensoredDataset([1] * 5 + [-1] * 5 + [1] * 6 + [-1] * 4, fam.design_set(taus))
        res = fit(fam, data)
        assert res.converged
        # each index cancels terms of 1/sigma ~ 2.5e6, so it carries ~6e-10 of
        # rounding: ~2e-9 of the quantile gap 0.25 that sigma divides
        assert_allclose(fam.to_moment(res.theta_hat), _closed_form_two_threshold(data), rtol=1e-8)

    def test_information_that_underflows_is_singular(self):
        # the anchor alpha = 0 is stationary, but at z = +-40 each row's
        # information weight -r, about pdf(40) ~ 1e-348, underflows to 0:
        # the information-weighted regressors have rank 0
        fam = models.GaussianCase1(np.ones(2), sigma=1.0)
        data = CensoredDataset([-1, 1], fam.design_set([-40.0, 40.0]))
        with pytest.raises(NonIdentifiable, match="information-weighted regressors have rank below 1"):
            fit(fam, data)

    def test_a_singular_hessian_takes_the_least_squares_step(self):
        # the LU solve finds [[1, 1], [1, 1]] singular; the minimum-norm
        # solution remains
        step = estimator._ascent_direction(np.ones((2, 2)), np.array([1.0, 1.0]))
        assert_allclose(step, [0.5, 0.5], rtol=1e-14)

    def test_two_parameter_fit_recovers_truth_roughly(self):
        rng = np.random.default_rng(7)
        n = 4000
        fam = models.GaussianCase3(np.ones(n))
        taus = rng.choice([0.42, 2.0], n)
        ds = fam.design_set(taus)
        theta0 = models.GaussianCase3.natural_from_alpha_sigma2(2.0, 1.0)
        x = fam.sample(theta0, ds, rng)
        data = CensoredDataset(np.where(x <= taus, 1, -1), ds)
        res = fit(fam, data)
        assert res.converged
        alpha, sigma2 = models.GaussianCase3.alpha_sigma2_from_natural(res.theta_hat)
        assert alpha == pytest.approx(2.0, abs=0.15)
        assert sigma2 == pytest.approx(1.0, abs=0.2)
        assert res.final_score_norm <= 1e-9
        assert np.linalg.eigvalsh(res.observed_information)[0] >= -1e-8

    def test_boundary_divergence_status(self):
        # mixed bits that reward an ever-smaller precision: the supremum
        # lies on the wall sigma -> infinity, reported just inside
        fam = models.GaussianCase2(means=[0.0, 0.0])
        data = CensoredDataset([1, -1], fam.design_set([-1.0, 2.0]))
        res = fit(fam, data)
        assert not res.converged
        assert res.status == "boundary-divergence"
        assert res.theta_hat[0] > 0  # never left the domain

    @pytest.mark.parametrize("tau, b", [(9.0, -1), (-40.0, 1)])
    def test_one_far_tail_bit_does_not_stop_the_fit(self, tau, b):
        # its probability at the estimate, about 7e-19 or 3e-353, used to read 0
        rng = np.random.default_rng(3)
        taus = np.r_[rng.uniform(-1.0, 1.0, 2000), tau]
        fam = models.GaussianCase1(np.ones(taus.size), sigma=1.0)
        x = fam.sample([0.2], fam.design_set(taus), rng)
        data = CensoredDataset(np.r_[np.where(x[:-1] <= taus[:-1], 1, -1), b], fam.design_set(taus))
        res = fit(fam, data)
        assert res.converged and res.final_score_norm <= 1e-9
        assert np.isfinite(res.log_likelihood)


def _case2_wall_statistic(fam, data):
    """S = sum_i n_i b_i (tau_i - m_i): the derivative of the log-likelihood
    in 1/sigma at 1/sigma = 0 is 2 pdf(0) S.  Summed exactly, since its sign
    is the verdict and a tie S = 0 must read 0."""
    return math.fsum(data.counts * data.bits * (data.designs.taus - data.designs.aux))


class TestWall:
    """The log-likelihood is concave in the index beta, so where the bits are
    not separated the supremum over 1/sigma > 0 lies on the wall 1/sigma = 0
    exactly when the score there points out of the domain."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=4650683)  # S = 0 exactly, where a plain sum reads 8.9e-16
    def test_case2_wall_iff_the_score_at_zero_is_not_positive(self, seed):
        fam, _, data = repeated_rows("gaussian-case2", np.random.default_rng(seed), max_reps=30)
        if lp_separated(fam, data):
            return
        res = fit(fam, data)
        wall = _case2_wall_statistic(fam, data) <= 0.0
        assert res.status == ("boundary-divergence" if wall else "converged")

    def test_case2_tied_score_is_on_the_wall(self):
        # S = 0 exactly: the maximizer over R is 1/sigma = 0 itself
        fam = models.GaussianCase2(np.zeros(8))
        data = CensoredDataset([1, -1, 1, -1] * 2, fam.design_set([1.5] * 4 + [-0.5] * 4))
        assert _case2_wall_statistic(fam, data) == 0.0
        res = fit(fam, data)
        assert res.status == "boundary-divergence" and 0.0 < res.theta_hat[0] < 1e-20

    @staticmethod
    def _case2_ties(seed):
        """Up to 5 designs, each seen equally often with either bit."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        means = rng.uniform(-2.0, 2.0, k)
        taus = means + rng.uniform(0.15, 2.5, k) * rng.choice([-1.0, 1.0], k)
        fam = models.GaussianCase2(np.tile(means, 2))
        counts = np.tile(rng.integers(1, 16, k), 2)
        return fam, CensoredDataset(np.repeat([1, -1], k), fam.design_set(np.tile(taus, 2)), counts)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_case2_ties_stop_well_under_the_cap(self, seed):
        # every design seen equally often with either bit, so S = 0 exactly;
        # toward 1/sigma = 0 the theta-score g/(2 beta) tends to H/2, not 0
        # (an ascent toward the wall took the 200-iteration cap in 13 of the
        # 23 such sweep draws, then up to 26).  The wall, decided first, is
        # the one point beta = 0: one iteration, and no interior ascent
        fam, data = self._case2_ties(seed)
        assert _case2_wall_statistic(fam, data) == 0.0
        res = fit(fam, data)
        assert res.status == "boundary-divergence" and res.iterations <= 40

    @pytest.mark.parametrize("seed", [46, 1225, 2032, 2387, 2486])
    def test_blind_steps_near_the_wall_are_judged_in_beta(self, seed):
        # an iterate at 1/sigma ~ -6e-14 has a full step toward 0 whose gain
        # is below rounding; the theta-score there divides by 1/sigma and
        # reads ~1, so judging the step by it rejected it and the ascent
        # crept on by backtracked steps (21-25 iterations; at most 5 over
        # seeds 0-2,999 with the score in beta).  No ascent runs toward the
        # wall now that the wall is decided first
        fam, data = self._case2_ties(seed)
        res = fit(fam, data)
        assert res.status == "boundary-divergence" and res.iterations <= 6

    def test_case3_tied_bits_are_on_the_wall(self):
        # each design shows both bits equally often, so beta = 0 maximizes
        # over R^2; the score cancels exactly on the way there, at a 1/sigma
        # that moves no index beyond rounding: the wall itself
        fam = models.GaussianCase3(np.ones(8))
        data = CensoredDataset([1, -1] * 4, fam.design_set([0.5] * 4 + [2.0] * 4))
        res = fit(fam, data)
        assert res.status == "boundary-divergence" and 0.0 < res.theta_hat[1] < 1e-20

    def test_case3_wall_maximum_against_a_bounded_line_search(self):
        # this used to stop at max-iterations, 4.6e-4 below the supremum
        from scipy.optimize import minimize_scalar
        from scipy.special import log_ndtr

        fam, _, data = repeated_rows("gaussian-case3", np.random.default_rng(0), max_reps=30)
        assert not lp_separated(fam, data)
        res = fit(fam, data)
        assert res.status == "boundary-divergence" and not res.converged
        # on the wall z = -w alpha/sigma, so P(B = b) = Phi(-b w alpha/sigma)
        w, b = data.designs.V[:, 0, 0], data.bits
        line = minimize_scalar(
            lambda a: -np.sum(log_ndtr(-b * w * a)), bounds=(-50.0, 50.0), method="bounded",
            options={"xatol": 1e-12},
        )
        assert_allclose(res.log_likelihood, -line.fun, rtol=1e-8)


def _draw(name, seed, repeated):
    """(family, data) as ``tools/fit_sweep.py`` draws them: a ``repeated_rows``
    dataset, or a ``random_instance`` with random bits."""
    rng = np.random.default_rng(seed)
    if repeated:
        fam, _, data = repeated_rows(name, rng, max_reps=30)
        return fam, data
    fam, _, designs = random_instance(name, rng)
    return fam, CensoredDataset(rng.choice([-1, 1], designs.n), designs)


def _mpmath_wall_slope(fam, data):
    """(dl/dbeta_p, ``fit``'s resolution for it) at the maximizer along the
    wall beta_p = 0, in 50-digit arithmetic.  The free coordinate (case 3)
    is the root of its score on the wall, bracketed, as the log-likelihood
    along the wall is concave; case 2 has none, and its wall is beta = 0."""
    grouped = data.grouped()[0]
    X, offset = fam.index_regressors(grouped.designs)
    p = fam.index_positive
    free = [j for j in range(X.shape[1]) if j != p]
    rows = [
        ([mpmath.mpf(float(v)) for v in x], mpmath.mpf(float(o)), int(b), int(n))
        for x, o, b, n in zip(X, offset, grouped.bits, grouped.counts)
    ]

    def terms(beta_f):
        """Per row (x, n, s, r, scale): the link's derivatives in z at the
        wall point, and the size of the terms the index sums."""
        out = []
        for x, o, b, n in rows:
            parts = [x[j] * c for j, c in zip(free, beta_f)]
            z = o + mpmath.fsum(parts)
            s = b * mpmath.npdf(z) / mpmath.ncdf(b * z)
            scale = max(1, abs(o) + mpmath.fsum(abs(t) for t in parts))
            out.append((x, n, s, -s * (z + s), scale))
        return out

    def free_score(t):
        return mpmath.fsum(n * s * x[free[0]] for x, n, s, _, _ in terms([t]))

    with mpmath.workdps(50):
        beta_f = []
        if free and free_score(0) != 0:
            sign = 1 if free_score(0) > 0 else -1
            near, far = mpmath.mpf(0), mpmath.mpf(sign)
            while free_score(far) * sign > 0:
                near, far = far, 2 * far
            beta_f = [mpmath.findroot(free_score, (near, far), solver="anderson")]
        elif free:
            beta_f = [mpmath.mpf(0)]
        rows_at_wall = terms(beta_f)
        slope = mpmath.fsum(n * s * x[p] for x, n, s, _, _ in rows_at_wall)
        bound = mpmath.fsum(
            n * abs(x[p]) * (abs(s) + abs(r) * scale) for x, n, s, r, scale in rows_at_wall
        )
        return float(slope), estimator.WALL_TOLERANCE * float(bound)


class TestWallDecision:
    """By the KKT conditions for the concave log-likelihood over beta_p >= 0,
    the maximizer lies on the wall exactly where dl/dbeta_p <= 0 at the
    maximizer along it; ``fit`` decides that before any interior ascent."""

    @pytest.mark.parametrize("name", ["gaussian-case2", "gaussian-case3"])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), repeated=st.booleans())
    def test_the_wall_decision_is_the_sign_at_the_mpmath_wall_maximizer(
        self, name, seed, repeated
    ):
        fam, data = _draw(name, seed, repeated)
        try:
            res = fit(fam, data)
        except NonIdentifiable as err:
            if "information-weighted" not in str(err):
                return  # separated or rank deficient: no maximizer to place
            status = "converged"  # decided interior, then found the information singular there
        else:
            status = res.status
        slope, resolution = _mpmath_wall_slope(fam, data)
        # ties (slope 0) lie on the wall; so, by the stated resolution, does
        # a slope that rounding could have put on either side of 0
        assert status == ("boundary-divergence" if slope <= resolution else "converged")

    @pytest.mark.parametrize("gap", [1e-3, 1e-5])
    @pytest.mark.parametrize("plus", range(1, 10))
    def test_a_stationary_start_at_the_wall_is_on_it(self, gap, plus):
        # two designs 1 and 1 + gap with the same +1 fraction: the wall slope
        # is 0, a tie.  Where the probit inversion solves, its 1/sigma is
        # rounding, about eps/gap, and the start is stationary; it used to be
        # the estimate ("converged", sigma ~ 3e10-6e13), or NonIdentifiable
        # from an eigenvalue test.  Its quadratic model puts the wall within
        # the log-likelihood's resolution, so the wall is decided
        fam = models.GaussianCase3(np.ones(20))
        bits = np.tile([1] * plus + [-1] * (10 - plus), 2)
        data = CensoredDataset(bits, fam.design_set(np.repeat([1.0, 1.0 + gap], 10)))
        slope, resolution = _mpmath_wall_slope(fam, data)
        assert abs(slope) <= 1e-40 < resolution
        assert fit(fam, data).status == "boundary-divergence"


class TestStartIndependence:
    """An ascent stops only where its Newton step moves no index beyond
    rounding, so from any start it ends within rounding of the maximizer:
    the indices of two estimates agree to a few eps of their scale.  With
    the 1e-9 theta-score tolerance, estimates from the default start and
    from the anchor differed by up to 1.3e-8 (case 3, relative).  Where the
    default start is the anchor, the other start is the pooled one."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), repeated=st.booleans())
    # Poisson draws whose default-start ascent cycled to the iteration cap
    # between two points a few ulps apart (``TestCyclingAscent``)
    @example(seed=5662, repeated=True)
    @example(seed=7124, repeated=True)
    @example(seed=8257, repeated=True)
    @example(seed=9542, repeated=True)
    @example(seed=12189, repeated=True)
    @example(seed=12084, repeated=False)
    def test_the_anchor_start_reaches_the_same_estimate(self, name, seed, repeated):
        fam, data = _draw(name, seed, repeated)
        # theta = (0, 1) for case 3: 0, or 1 in a positive coordinate
        other = fam.index_from_theta(np.array([float(k == "positive") for k in fam.domain]))
        if name != "poisson" and np.array_equal(_start(fam, data), other):
            # no usable design: the default start is the anchor itself
            other = _pooled_beta(fam, data)
        try:
            a = fit(fam, data)
        except BitGlmError:
            return
        with mock.patch.object(fam, "initial_point", return_value=other):
            b = fit(fam, data)
        assert a.status == b.status
        X, offset = fam.index_regressors(data.designs)
        beta_a, beta_b = (fam.index_from_theta(r.theta_hat) for r in (a, b))
        scale = np.maximum(1.0, np.abs(offset) + np.abs(X).dot(np.abs(beta_a)))
        moved = np.abs(X.dot(beta_a - beta_b))
        assert np.all(moved <= 4.0 * estimator.STATIONARY_TOLERANCE * scale)


class TestCyclingAscent:
    """Six of the Poisson draws at seeds 0-15,999 alternated between two
    estimates a few ulps apart until the 200-iteration cap: each Newton step
    moved an index by 1.15-1.51 times the stop test's resolution, carried
    there by the score's own rounding (about 7e-14), and the Armijo and the
    blind-step rules each accepted one of the two steps.  The ascent now
    stops where it comes back to a point it has left."""

    DRAWS = [(5662, True), (7124, True), (8257, True), (9542, True), (12189, True), (12084, False)]

    @pytest.mark.parametrize(("seed", "repeated"), DRAWS)
    def test_the_cycle_converges(self, seed, repeated):
        fam, data = _draw("poisson", seed, repeated)
        res = fit(fam, data)
        assert res.status == "converged" and res.iterations < 20

    def test_the_estimate_is_the_mpmath_maximizer(self):
        # the Poisson MLE: the root of sum_i n_i v_i lam_i pmf(t_i) (b_i = -1)
        # or -(...) (b_i = +1), over each bit's own tail, at lam = exp(v theta)
        fam, data = _draw("poisson", 5662, True)
        theta = fit(fam, data).theta_hat[0]
        grouped = data.grouped()[0]
        rows = [
            (mpmath.mpf(float(v)), int(t), int(b), int(n))
            for v, t, b, n in zip(
                grouped.designs.V[:, 0, 0], np.floor(grouped.designs.taus), grouped.bits,
                grouped.counts,
            )
        ]

        def score(th):
            total = mpmath.mpf(0)
            for v, t, b, n in rows:
                lam = mpmath.exp(v * th)
                pmf = mpmath.exp(t * mpmath.log(lam) - lam - mpmath.loggamma(t + 1))
                cdf = mpmath.gammainc(t + 1, lam, mpmath.inf, regularized=True)
                total += n * v * lam * pmf * (-1 / cdf if b > 0 else 1 / (1 - cdf))
            return total

        with mpmath.workdps(50):
            want = float(mpmath.findroot(score, mpmath.mpf(theta)))
        # the index -v theta within the stop test's resolution of the root's
        v = grouped.designs.V[:, 0, 0]
        scale = np.maximum(1.0, np.abs(v * want))
        assert np.all(np.abs(v * (theta - want)) <= 2.0 * estimator.STATIONARY_TOLERANCE * scale)


def _mpmath_case3_maximizer(data, beta):
    """The case-3 MLE in theta: the root of the score in beta, sum_i n_i b_i
    pdf(b_i z_i)/Phi(b_i z_i) (tau_i, -w_i) with z_i = tau_i beta_0 - w_i
    beta_1, found from ``beta`` by 50-digit Newton."""
    rows = [
        (mpmath.mpf(float(t)), mpmath.mpf(float(w)), int(b), int(n))
        for t, w, b, n in zip(data.designs.taus, data.designs.V[:, 0, 0], data.bits, data.counts)
    ]

    def score(b0, b1):
        g = [mpmath.mpf(0), mpmath.mpf(0)]
        for t, w, b, n in rows:
            z = b * (t * b0 - w * b1)
            h = n * b * mpmath.npdf(z) / mpmath.ncdf(z)
            g[0] += h * t
            g[1] -= h * w
        return g

    with mpmath.workdps(50):
        b0, b1 = mpmath.findroot(score, (mpmath.mpf(beta[0]), mpmath.mpf(beta[1])))
        return np.array([float(b0 * b1), float(b0 * b0)])


class TestFlatOptimum:
    """Two case-3 draws of ``tools/fit_sweep.py`` (seed 5) with optima so flat,
    sigma ~ 2,300, that the theta-score's rounding floor is the 1e-9
    tolerance itself.  The ascent stops where its Newton step moves no index
    beyond rounding, at the maximizer, whatever the theta-score reads."""

    # sweep draw: five designs' thresholds and weights, each seen with
    # bit -1 and with bit +1 the given numbers of times
    DRAWS = {
        316: (
            [-2.456714206989738, -2.0726517782964073, 0.44681147881628025,
             4.193964987042467, 4.3603870607405435],
            [0.7757019779920165, -1.42303080078735, -1.4821883088859686,
             1.1815099279895136, 1.42067757905341],
            [4, 4, 12, 12, 11],
            [3, 8, 8, 11, 16],
        ),
        1400: (
            [-3.0676484546306777, -2.9585743835828557, -0.8644055173965048,
             1.180007279105778, 1.18239320088578],
            [-1.9923474731078272, 1.4394789999457165, -0.8556596354041177,
             -0.9819226111241066, -0.7281827322605525],
            [13, 4, 15, 4, 10],
            [12, 5, 10, 9, 5],
        ),
    }

    @pytest.mark.parametrize("draw", sorted(DRAWS))
    def test_converges_at_the_mpmath_maximizer(self, draw):
        taus, w, minus, plus = self.DRAWS[draw]
        fam = models.GaussianCase3(np.tile(w, 2))
        data = CensoredDataset(np.repeat([-1, 1], 5), fam.design_set(np.tile(taus, 2)), minus + plus)
        res = fit(fam, data)
        assert res.converged and res.iterations <= 10
        want = _mpmath_case3_maximizer(data, fam.index_from_theta(res.theta_hat))
        assert_allclose(res.theta_hat, want, rtol=1e-11)


def _case3_at_zero(seed, n=2000):
    """(family, bits, thresholds): case 3 at alpha = 0 and sigma = 1, with
    weights w ~ U(0.5, 1.5) and thresholds U(-2, 2); translate to alpha by
    adding w alpha to the thresholds."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, n)
    taus = rng.uniform(-2.0, 2.0, n)
    bits = np.where(rng.standard_normal(n) <= taus, 1, -1)
    return models.GaussianCase3(w), bits, taus


class TestTranslation:
    """alpha -> alpha + D with tau -> tau + w D moves no index, so the case-3
    MLE moves by D and sigma stays.  An eigenvalue test of the information in
    theta, 1e3 eps of its trace, refused every such fit from alpha/sigma =
    1,000 on: its smallest eigenvalue over its trace falls as (sigma/alpha)^4."""

    @pytest.mark.parametrize("seed", range(20))
    def test_a_translated_fit_is_the_fit_translated(self, seed):
        fam, bits, taus = _case3_at_zero(seed)
        base = fit(fam, CensoredDataset(bits, fam.design_set(taus)))
        b0, b1 = fam.index_from_theta(base.theta_hat)
        for shift in 10.0 ** np.arange(7):
            moved = taus + fam.weights * shift
            res = fit(fam, CensoredDataset(bits, fam.design_set(moved)))
            assert base.converged and res.converged
            # the untranslated estimate's indices, against those of the
            # translated one on the translated rows, within the stop test's
            # resolution there: terms of size alpha/sigma ~ shift
            beta = fam.index_from_theta(res.theta_hat)
            z = moved * beta[0] - fam.weights * beta[1]
            scale = np.maximum(1.0, np.abs(moved * beta[0]) + np.abs(fam.weights * beta[1]))
            want = taus * b0 - fam.weights * b1
            assert np.all(np.abs(z - want) <= 4.0 * estimator.STATIONARY_TOLERANCE * scale)

    def test_the_estimate_at_alpha_over_sigma_1e3_is_the_mpmath_maximizer(self):
        fam, bits, taus = _case3_at_zero(0, n=500)
        data = CensoredDataset(bits, fam.design_set(taus + fam.weights * 1e3))
        res = fit(fam, data)
        assert res.converged
        beta = fam.index_from_theta(res.theta_hat)
        want = fam.index_from_theta(_mpmath_case3_maximizer(data, beta))
        X, offset = fam.index_regressors(data.designs)
        scale = np.maximum(1.0, np.abs(offset) + np.abs(X).dot(np.abs(beta)))
        assert np.all(np.abs(X.dot(beta - want)) <= 2.0 * estimator.STATIONARY_TOLERANCE * scale)


class TestEstimateType:
    """An estimate is one type everywhere: a read-only float64 (k,) array
    that the family's ``check_theta`` accepts, from ``fit`` and from
    ``run_trial`` alike, censored or uncensored."""

    PARAMS = {
        "gaussian-case1": {"alpha": 0.5, "sigma": 1.0},
        "gaussian-case2": {"sigma": 1.0},
        "gaussian-case3": {"alpha": 0.5, "sigma": 1.0},
        "poisson": {"theta": 0.3},
    }

    @staticmethod
    def _check(fam, theta_hat):
        assert type(theta_hat) is np.ndarray and theta_hat.dtype == np.float64
        assert theta_hat.shape == (fam.k,) and not theta_hat.flags.writeable
        assert np.array_equal(fam.check_theta(theta_hat), theta_hat)

    def _config(self, name, estimator):
        return montecarlo.ExperimentConfig(
            model=name,
            true_params=self.PARAMS[name],
            weights=montecarlo.WeightsRule(kind="constant", value=1.0),
            thresholds=montecarlo.ThresholdRule(
                kind="two-point", values=(0.0, 2.0), probabilities=(0.5, 0.5)
            ),
            sample_sizes=(400,),
            trials=1,
            seed=3,
            estimator=estimator,
        )

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_fit_and_run_trial(self, name):
        config = self._config(name, "censored")
        rng = np.random.default_rng(3)
        fam, designs, theta0 = montecarlo.family_and_theta(config, 400, rng)
        res = fit(fam, montecarlo.generate_and_censor(fam, theta0, designs, rng))
        assert res.status == "converged"
        self._check(fam, res.theta_hat)
        outcome = montecarlo.run_trial(config, 400, 0)
        assert outcome.status == "converged"
        self._check(fam, outcome.theta_hat)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_uncensored_run_trial(self, name):
        config = self._config(name, "uncensored")
        fam, _, _ = montecarlo.family_and_theta(config, 400, np.random.default_rng(3))
        outcome = montecarlo.run_trial(config, 400, 0)
        assert outcome.status == "converged"
        self._check(fam, outcome.theta_hat)

    def test_boundary_divergence(self):
        fam = models.GaussianCase2(np.zeros(8))
        data = CensoredDataset([1, -1, 1, -1] * 2, fam.design_set([1.5] * 4 + [-0.5] * 4))
        res = fit(fam, data)
        assert res.status == "boundary-divergence"
        self._check(fam, res.theta_hat)


class TestSeparation:
    """No finite maximizer exists exactly when the bits are separated in the
    family's linear index; fit raises NonIdentifiable there, and only there."""

    def test_case3_bits_split_by_threshold(self):
        # every bit -1 at the low threshold and +1 at the high one: the
        # supremum lies at sigma -> 0; this used to converge at (1.214, 0.116)
        fam = models.GaussianCase3(np.ones(200))
        taus = np.repeat([0.42, 2.0], 100)
        data = CensoredDataset(np.repeat([-1, 1], 100), fam.design_set(taus))
        assert lp_separated(fam, data)
        with pytest.raises(NonIdentifiable, match="separated"):
            fit(fam, data)

    def test_case2_bits_split_by_threshold_sign(self):
        # the design is -1/2 on every case-2 row, so a sign test on it cannot
        # see this; it used to converge at precision 39.1
        fam = models.GaussianCase2(np.zeros(4))
        data = CensoredDataset([1, 1, -1, -1], fam.design_set([1.0, 1.0, -1.0, -1.0]))
        assert lp_separated(fam, data)
        with pytest.raises(NonIdentifiable, match="separated"):
            fit(fam, data)

    def test_case2_equal_bits_can_have_a_finite_maximizer(self):
        # all bits -1, but the thresholds lie on both sides of the mean; this
        # used to raise NonIdentifiable
        fam = models.GaussianCase2(np.zeros(4))
        data = CensoredDataset([-1] * 4, fam.design_set([-2.0, -2.0, -2.0, 1.0]))
        assert not lp_separated(fam, data)
        res = fit(fam, data)
        assert res.converged
        top = res.theta_hat[0]
        assert top == pytest.approx(0.3882, abs=1e-4)
        assert abs(top - grid_search_maximizer(fam, data, 1e-3, top + 3.0)) <= 1e-6

    @pytest.mark.parametrize("other_bit, separated", [(1, True), (-1, False)])
    def test_case3_quasi_separation(self, other_bit, separated):
        # the design at tau = 0.5 is seen with both bits, which pins the
        # index direction to (1, 0.5), on which it reads 0; the other
        # design's bits then decide whether the likelihood rises along it.
        # If they fall instead, more -1 bits at the higher threshold ask for
        # sigma < 0, and the supremum lies on the wall sigma -> infinity
        fam = models.GaussianCase3(np.ones(10))
        taus = np.repeat([0.5, 2.0], 5)
        bits = np.r_[[1, -1, 1, -1, 1], np.full(5, other_bit)]
        data = CensoredDataset(bits, fam.design_set(taus))
        assert lp_separated(fam, data) == separated
        if separated:
            with pytest.raises(NonIdentifiable, match=r"separated .* \[0.8944 0.4472\]"):
                fit(fam, data)
        else:
            assert not fit(fam, data).converged

    def test_one_direction_for_every_row_is_a_half_plane(self):
        # with no positivity wall, rows that all point one way leave a
        # half-plane of separating directions, whose edges read 0 on every
        # row: only its middle separates
        class Index:
            index_positive = None

            def index_regressors(self, designs):
                return np.tile([3.0, 4.0], (designs.n, 1)), 0.0

        fam = models.GaussianCase3(np.ones(3))
        data = CensoredDataset([1, 1, 1], fam.design_set(np.zeros(3)))
        X = Index().index_regressors(data.designs)[0]
        assert_allclose(estimator._separating_direction(Index(), data, X), [0.6, 0.8])

    def test_the_search_refuses_more_than_two_index_coordinates(self):
        # ModelFamily is public, so a family can have k = 3; the angular-gap
        # search needs k <= 2, and bits that are not paired need the search
        class Probit3(ModelFamily):
            name, d, k = "probit-3", 1, 3

            def index_regressors(self, designs):
                return designs.V[:, 0, :], designs.taus

            def index_link(self, z, designs, bits):
                log_p, c = log_cdf_and_signed_hazard(z, bits)
                return log_p, c, -c * (z + c)

            def index_weight(self, z, designs):
                return fim_weight(z)

            def initial_point(self, data, index, tally):
                return self.anchor()

            # what fit does not call
            uncensored_information = max_third_abs_moment_T = sample = uncensored_mle = None

        V = np.random.default_rng(0).normal(size=(6, 1, 3))
        data = CensoredDataset([1, -1, 1, 1, -1, -1], DesignSet(V, np.zeros(6)))
        with pytest.raises(NotImplementedError, match="k <= 2"):
            fit(Probit3(), data)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_designs_seen_with_both_bits_are_never_separated(self, name):
        # fit skips the search where every design has both bits: there the
        # LP oracle finds no separation, and neither does the search
        paired = 0
        for seed in range(80):
            fam, _, data = repeated_rows(name, np.random.default_rng(seed))
            data, _, (_, totals, plus) = data.grouped()
            if np.all((plus > 0) & (plus < totals)):
                paired += 1
                assert not lp_separated(fam, data)
                X = fam.index_regressors(data.designs)[0]
                assert estimator._separating_direction(fam, data, X) is None
        assert paired >= 20

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_paired_data_runs_no_search(self, name, monkeypatch):
        # two designs, each seen with both bits: the tally of the one
        # grouping pass shows the pairs for every family, case 2 included
        searches = []
        search = estimator._separating_direction
        monkeypatch.setattr(
            estimator, "_separating_direction", lambda *a: searches.append(a) or search(*a)
        )
        values, taus = np.repeat([0.5, 2.0], 4), np.repeat([1.0, 3.0], 4)
        cls = models.REGISTRY[name]
        fam = cls(values, 1.0) if name == "gaussian-case1" else cls(values)
        res = fit(fam, CensoredDataset([1, -1, 1, 1, -1, 1, -1, -1], fam.design_set(taus)))
        assert searches == [] and res.status in ("converged", "boundary-divergence")

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_the_paired_shortcut_changes_no_fit(self, name, monkeypatch):
        # the same status, estimate or error with the tally read off the
        # rows and the search skipped, as with both done in full
        def outcome(fam, data):
            try:
                res = fit(fam, data)
            except BitGlmError as err:
                return type(err).__name__, str(err)
            return res.status, res.iterations, res.theta_hat.tobytes()

        for seed in range(40):
            fam, _, data = repeated_rows(name, np.random.default_rng(seed))
            fast = outcome(fam, data)
            with monkeypatch.context() as patch:
                check = estimator._check_identifiable
                patch.setattr(
                    estimator,
                    "_check_identifiable",
                    lambda m, d, X, rows, paired: check(m, d, X, rows, False),
                )
                assert outcome(fam, data) == fast

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), repeated=st.booleans())
    def test_raises_exactly_on_separated_data(self, name, seed, repeated):
        rng = np.random.default_rng(seed)
        if repeated:
            fam, _, data = repeated_rows(name, rng, max_reps=30)
        else:
            fam, _, designs = random_instance(name, rng)
            data = CensoredDataset(rng.choice([-1, 1], designs.n), designs)
        separated = lp_separated(fam, data)
        try:
            fit(fam, data)
        except NonIdentifiable as err:
            assert separated == ("separated" in str(err))
        except BitGlmError:
            assert not separated
        else:
            assert not separated


class TestOracleAgreement:
    def test_grid_search_on_small_instances(self, rng):
        hits = 0
        for i in range(40):
            name = ("gaussian-case1", "poisson", "gaussian-case2")[i % 3]
            fam, theta, ds = random_instance(name, rng, n_max=6)
            # replicate designs to a workable sample
            reps = int(rng.integers(3, 9))
            if name == "gaussian-case1":
                fam = models.GaussianCase1(np.tile(fam.weights, reps), sigma=fam.sigma)
            elif name == "poisson":
                fam = models.PoissonModel(np.tile(fam.covariates, reps))
            else:
                fam = models.GaussianCase2(np.tile(fam.means, reps))
            taus = np.tile(ds.taus, reps)
            ds = fam.design_set(taus)
            data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
            try:
                res = fit(fam, data)
            except (NonIdentifiable, NumericalError):
                continue
            if not res.converged:
                continue
            top = res.theta_hat[0]
            lo, hi = (1e-3, top + 4.0) if name == "gaussian-case2" else (top - 4.0, top + 4.0)
            star = grid_search_maximizer(fam, data, lo, hi)
            assert abs(top - star) <= 1e-6, f"{name}: {top} vs grid {star}"
            hits += 1
        assert hits >= 20  # most random instances must be identifiable

    def test_result_is_a_local_maximum(self, rng):
        for _ in range(10):
            fam, theta, ds = random_instance("gaussian-case3", rng, n_max=6)
            reps = 8
            fam = models.GaussianCase3(np.tile(fam.weights, reps))
            ds = fam.design_set(np.tile(ds.taus, reps))
            data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
            try:
                res = fit(fam, data)
            except NonIdentifiable:
                continue
            if not res.converged:
                continue
            base = res.log_likelihood
            for _ in range(12):
                probe = res.theta_hat + 1e-4 * rng.standard_normal(2)
                if probe[1] <= 0:
                    continue
                assert likelihood.log_likelihood(fam, probe, data) <= base + 1e-10


def test_poisson_fit_reads_the_far_right_tail():
    # the -1 bit of the third design has probability 2.1e-11 near the
    # maximizer; formed as 1 - CDF it was quantized at ~1e-5 of the
    # log-likelihood, and the fit stalled at a score of 6.4e-3
    v = np.tile([-1.09704017, 0.47672656, -0.83110711], 2)
    rows = np.repeat(np.arange(6), [4, 22, 3, 5, 8, 6])
    fam = models.PoissonModel(v[rows])
    taus = np.array([2.0, 5.0, 6.0, 2.0, 5.0, 6.0])[rows]
    data = CensoredDataset(np.array([-1, -1, -1, 1, 1, 1])[rows], fam.design_set(taus))
    res = fit(fam, data)
    assert res.converged
    top = res.theta_hat[0]
    assert abs(top - grid_search_maximizer(fam, data, top - 3.0, top + 3.0)) <= 1e-6


@pytest.mark.filterwarnings("error")
def test_poisson_line_search_probe_past_the_rate_range_does_not_warn():
    # the line search probes a rate past exp(709): the supported-range check
    # rejects the infinite rate, and forming it must not warn
    fam = models.PoissonModel([
        0.9699388396579856, -0.9311192124643677, 0.2196609946758769,
        0.7400709264759451, -1.1011350013996313, -0.9782347537975848,
    ])
    taus = fam.design_set([1.0, 4.0, 6.0, 2.0, 5.0, 2.0])
    res = fit(fam, CensoredDataset(np.array([-1, -1, 1, 1, -1, -1]), taus))
    assert res.converged
    assert res.theta_hat[0] == pytest.approx(-1.975720862747147, rel=1e-12)


class TestDeterminism:
    def test_bit_identical_rerun(self, rng):
        fam, theta, ds = random_instance("gaussian-case3", rng, n_max=5)
        reps = 10
        fam = models.GaussianCase3(np.tile(fam.weights, reps))
        ds = fam.design_set(np.tile(ds.taus, reps))
        data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
        try:
            a = fit(fam, data)
            b = fit(fam, data)
        except NonIdentifiable:
            pytest.skip("instance not identifiable")
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert a.log_likelihood == b.log_likelihood
        assert a.iterations == b.iterations
        assert np.array_equal(a.observed_information, b.observed_information)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_order_invariant_fit(self, name, rng):
        # fit groups its data in a canonical order, so any permutation of
        # the observations gives the same estimate, bit for bit
        fitted = 0
        for _ in range(6):
            fam, _, data = repeated_rows(name, rng, max_reps=12)
            outcomes = []
            for order in [np.arange(data.n)] + [rng.permutation(data.n) for _ in range(3)]:
                try:
                    res = fit(fam, data.permuted(order))
                except BitGlmError as err:
                    outcomes.append(type(err))
                    continue
                outcomes.append(
                    (res.theta_hat.tobytes(), res.log_likelihood, res.status, res.iterations)
                )
            assert all(o == outcomes[0] for o in outcomes)
            fitted += not isinstance(outcomes[0], type)
        assert fitted >= 1

    def test_monotone_start_improvement(self, rng):
        # the estimate is at least as good as the likelihood at the start
        fam, theta, ds = random_instance("gaussian-case1", rng, n_max=5)
        reps = 6
        fam = models.GaussianCase1(np.tile(fam.weights, reps), sigma=fam.sigma)
        ds = fam.design_set(np.tile(ds.taus, reps))
        data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
        try:
            res = fit(fam, data)
        except NonIdentifiable:
            pytest.skip("instance not identifiable")
        start = fam.theta_from_index(_start(fam, data))
        assert res.log_likelihood >= likelihood.log_likelihood(fam, start, data) - 1e-12


def _start(fam, data):
    """``fam.initial_point`` as ``fit`` calls it, on the grouped rows: a beta."""
    grouped, _, tally = data.grouped()
    return fam.initial_point(grouped, fam.index_regressors(grouped.designs), tally)


class TestInitialPoint:
    def test_balanced_fraction_starts_at_zero(self):
        fam, data = iid_case1([1, -1, 1, -1])
        assert _start(fam, data)[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_parameter_base_has_unit_precision(self):
        fam = models.GaussianCase3(np.ones(4))
        data = CensoredDataset([1, -1, 1, -1], fam.design_set(np.zeros(4)))
        assert _start(fam, data)[0] == 1.0  # beta_0 = 1/sigma


def test_fit_takes_no_settings():
    # an ascent stops only where its Newton step moves no index beyond
    # rounding, or at the fixed cap MAX_ITERATIONS: there is nothing to set
    assert list(inspect.signature(fit).parameters) == ["model", "data"]
    assert "FitConfig" not in bitglm.__all__
    assert not hasattr(bitglm, "FitConfig") and not hasattr(estimator, "FitConfig")


def test_readme_quick_start_runs_as_written():
    # a name removed from the API must not stay in the README
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    scope = {}
    exec(block.split("```", 1)[0], scope)
    assert scope["result"].status == "converged"
    assert scope["alpha"] == pytest.approx(2.0, abs=0.1)
    assert scope["sigma2"] == pytest.approx(1.0, abs=0.1)
    assert scope["info"].matrix.shape == (2, 2)


def _fig1_trial(name, n, trial):
    """(config, family, data) of one fig1.cfg trial, drawn as run_trial draws it."""
    doc = cli.load_json_config(Path(cli.__file__).parent / "configs" / "fig1.cfg")
    config = dict(cli.load_experiments(doc))[name]
    rng = montecarlo._substream(config.seed, n, trial)
    fam, designs, theta0 = montecarlo.family_and_theta(config, n, rng)
    x = fam.sample(theta0, designs, rng)
    return config, fam, CensoredDataset(np.where(x <= designs.taus, 1, -1), designs)


def _closed_form_two_threshold(data):
    """(alpha, sigma) of N(alpha, sigma^2) from bits at two thresholds with
    unit weights: each threshold's bit fraction is Phi((tau - alpha)/sigma)."""
    t1, t2 = np.unique(data.designs.taus)
    fractions = (float(np.mean(data.bits[data.designs.taus == t] > 0)) for t in (t1, t2))
    q1, q2 = (NormalDist().inv_cdf(p) for p in fractions)
    sigma = (t2 - t1) / (q2 - q1)
    return t1 - sigma * q1, sigma


class TestBlindLineSearch:
    """Near the optimum the predicted gain of a Newton step falls below the
    float resolution of the log-likelihood, and the sufficient-increase test
    turns into a coin flip.  These fig1 trials used to stall there, with a
    score of 1e-9..1e-6, and end at the iteration cap."""

    @pytest.mark.parametrize(
        "name,n,trial",
        [
            ("mixture-0.42-2.0", 1000, 50),
            ("mixture-1.2-1.9", 1000, 38),
            ("mixture-1.2-1.9", 3162, 23),
        ],
    )
    def test_fig1_trial_converges_to_closed_form(self, name, n, trial):
        config, fam, data = _fig1_trial(name, n, trial)
        assert montecarlo.run_trial(config, n, trial).status == "converged"
        res = fit(fam, data)
        assert res.converged and res.status == "converged"
        assert res.final_score_norm <= 1e-9
        alpha_sigma = fam.to_moment(res.theta_hat)
        assert_allclose(alpha_sigma, _closed_form_two_threshold(data), rtol=1e-8)


class TestNewtonGivesUp:
    """The three ways the ascent stops short of a stationary point: a direction
    that does not ascend, a line search that finds no acceptable step, and the
    iteration cap.  The first two end "max-iterations" at the iterate they had,
    here the start: two designs, whose probit start (alpha 0.279) is not the
    MLE (0.255)."""

    @staticmethod
    def _data():
        fam = models.GaussianCase1(np.ones(7), sigma=1.0)
        return fam, CensoredDataset([1, 1, 1, -1, 1, -1, -1], fam.design_set([0.0] * 4 + [1.0] * 3))

    def _assert_stopped_at_the_start(self, res):
        fam, data = self._data()
        grouped, _, tally = data.grouped()
        start = fam.initial_point(grouped, fam.index_regressors(grouped.designs), tally)
        assert res.status == "max-iterations" and res.iterations == 1
        start = fam.theta_from_index(start)[0]
        assert res.theta_hat[0] == start == pytest.approx(0.27937, abs=1e-5)
        assert fit(fam, data).theta_hat[0] == pytest.approx(0.25505, abs=1e-5)

    def test_a_direction_that_does_not_ascend(self):
        with mock.patch.object(estimator, "_ascent_direction", lambda neg_hess, grad: -grad):
            res = fit(*self._data())
        self._assert_stopped_at_the_start(res)

    def test_a_line_search_that_runs_out(self):
        with mock.patch.object(estimator, "_safe_ll", lambda *args: (-np.inf, None, None)):
            res = fit(*self._data())
        self._assert_stopped_at_the_start(res)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_the_iteration_cap(self, name):
        # distinct rows fitted from the anchor need more than two directions;
        # a cap of two stops the ascent after two, inside the domain, having
        # climbed from the anchor but not to the maximum
        fam, data = _draw(name, 0, False)
        with mock.patch.object(fam, "initial_point", lambda *args: fam.anchor()):
            full = fit(fam, data)
            with mock.patch.object(estimator, "MAX_ITERATIONS", 2):
                capped = fit(fam, data)
        assert full.converged and full.iterations > 2
        assert capped.status == "max-iterations" and capped.iterations == 2
        fam.check_theta(capped.theta_hat)
        start = likelihood.log_likelihood(fam, fam.theta_from_index(fam.anchor()), data)
        assert start < capped.log_likelihood < full.log_likelihood


def _pooled_start(model, data):
    """The start from the pooled bit fraction and mean threshold, which the
    Gaussian families used where the probit inversion has none: a second
    start, away from the anchor, for the start-independence tests."""
    n = data.total
    p = float(np.average(data.bits > 0, weights=data.counts))
    p = min(max(p, 1.0 / (n + 1.0)), n / (n + 1.0))
    mean_tau = float(np.average(data.designs.taus, weights=data.counts))
    if isinstance(model, models.GaussianCase1):
        mean_w = float(np.average(data.designs.V[:, 0, 0] * model.sigma**2, weights=data.counts))
        if abs(mean_w) < 1e-8:
            return np.array([0.0])
        return np.array([(mean_tau - model.sigma * float(norm_ppf(p))) / mean_w])
    if isinstance(model, models.GaussianCase2):
        spread = float(np.average((data.designs.taus - data.designs.aux) ** 2, weights=data.counts))
        return np.array([1.0 / max(spread, 1e-4)])
    mean_w = float(np.average(data.designs.V[:, 0, 0], weights=data.counts))
    alpha0 = 0.0 if abs(mean_w) < 1e-8 else (mean_tau - float(norm_ppf(p))) / mean_w
    return np.array([alpha0, 1.0])


def _pooled_beta(model, data):
    """``_pooled_start`` on the grouped rows of ``data``, in beta."""
    return model.index_from_theta(_pooled_start(model, data.grouped()[0]))


def _gaussian(name, taus, bits, weights=None):
    """(family, data); unit weights unless given, case-2 means 0.2 * weights."""
    n = len(taus)
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if name == "gaussian-case1":
        fam = models.GaussianCase1(weights, sigma=1.3)
    elif name == "gaussian-case2":
        fam = models.GaussianCase2(means=0.2 * weights)
    else:
        fam = models.GaussianCase3(weights)
    return fam, CensoredDataset(bits, fam.design_set(taus))


GAUSSIANS = ("gaussian-case1", "gaussian-case2", "gaussian-case3")
#: theta = 0, 1 in a positive coordinate, in beta: alpha; 1/sigma; (1/sigma, alpha/sigma)
ANCHORS = {"gaussian-case1": [0.0], "gaussian-case2": [1.0], "gaussian-case3": [1.0, 0.0]}
FIG1_TRIALS = [
    ("mixture-0.42-2.0", 1000, 50),
    ("mixture-1.2-1.9", 1000, 38),
    ("mixture-1.2-1.9", 3162, 23),
] + [
    (name, n, trial)
    for name in ("mixture-0.42-2.0", "mixture-1.2-1.9")
    for n in (1000, 10000)
    for trial in range(10)
]


class TestProbitStart:
    """The Gaussian families start at the per-design probit inversion:
    Berkson's minimum-chi-square fit of Phi^-1(p_j) over the designs seen
    with both bits, the MLE itself when there are exactly k designs and
    every one of them is seen with both bits."""

    @pytest.mark.parametrize("name,n,trial", FIG1_TRIALS)
    def test_fig1_start_is_the_closed_form_mle(self, name, n, trial):
        config, fam, data = _fig1_trial(name, n, trial)
        want = _closed_form_two_threshold(data)
        start = _start(fam, data)
        # the square 2 x 2 system solved by Cramer's rule, where NormalDist inverts
        assert_allclose(fam.to_moment(fam.theta_from_index(start)), want, rtol=1e-13)
        # any order of the rows gives the same tally, so the same start
        assert np.array_equal(_start(fam, data.permuted(np.arange(data.n)[::-1])), start)
        res = fit(fam, data)
        assert res.converged and res.iterations == 1
        # no step is taken: the estimate is the start, taken to theta once
        assert np.array_equal(res.theta_hat, fam.theta_from_index(start))
        assert_allclose(fam.to_moment(res.theta_hat), want, rtol=1e-10)

    @pytest.mark.parametrize("name", GAUSSIANS)
    def test_one_design_per_family_parameter_is_inverted_exactly(self, name):
        # k = 1: a single design seen with both bits; 3 of 4 bits are +1
        # the start is the index parameter beta
        taus = [0.9] * 4
        fam, data = _gaussian(name, taus, [1, 1, -1, 1])
        q = float(norm_ppf(0.75))
        if name == "gaussian-case3":
            # k = 2: a second design, 9 of 10 bits +1
            fam, data = _gaussian(name, taus + [2.5] * 10, [1, 1, -1, 1] + [1] * 9 + [-1])
            sigma = (2.5 - 0.9) / (float(norm_ppf(0.9)) - q)
            want = [1.0 / sigma, (0.9 - sigma * q) / sigma]  # (1/sigma, alpha/sigma)
        elif name == "gaussian-case1":
            want = [0.9 - 1.3 * q]  # alpha = tau - sigma q over a unit weight
        else:
            want = [q / (0.9 - 0.2)]  # 1/sigma with q = (tau - mean)/sigma
        assert_allclose(_start(fam, data), want, rtol=1e-12)

    @pytest.mark.parametrize("name", GAUSSIANS)
    def test_a_one_sided_design_moves_the_mle_off_the_start(self, name):
        # k designs seen with both bits, plus one whose 5 bits are all +1: it
        # adds nothing to the regression but still pulls on the likelihood
        taus, bits = [0.9] * 4, [1, 1, -1, 1]
        if name == "gaussian-case3":
            taus, bits = taus + [2.5] * 10, bits + [1] * 9 + [-1]
        fam_usable, usable = _gaussian(name, taus, bits)
        fam, data = _gaussian(name, taus + [4.0] * 5, bits + [1] * 5)
        start = _start(fam, data)
        assert_allclose(start, _start(fam_usable, usable), rtol=1e-12)
        res = fit(fam, data)
        assert res.converged and res.iterations > 1
        assert not np.allclose(res.theta_hat, fam.theta_from_index(start), rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("name", GAUSSIANS)
    def test_iid_designs_start_at_the_anchor(self, name, rng):
        fam, _, designs = random_instance(name, rng, n=60)
        data = CensoredDataset(rng.choice([-1, 1], designs.n), designs)
        assert np.array_equal(_start(fam, data), ANCHORS[name])

    @pytest.mark.parametrize(
        "name,taus,bits,weights",
        [
            # one design, but two parameters
            ("gaussian-case3", [1.0] * 4, [1, -1, 1, 1], None),
            # the +1 fraction falls as the threshold rises: sigma < 0
            ("gaussian-case3", [0.5, 0.5, 0.5, 2.0, 2.0, 2.0], [1, 1, -1, 1, -1, -1], None),
            ("gaussian-case2", [1.0] * 4, [1, -1, -1, -1], None),
            # a design with only +1 bits leaves one usable design of two
            ("gaussian-case3", [0.5, 0.5, 2.0, 2.0, 2.0], [1, -1, 1, 1, 1], None),
            # only one-sided designs
            ("gaussian-case1", [0.5, 0.5, 2.0, 2.0], [1, 1, -1, -1], None),
            ("gaussian-case2", [0.5, 0.5, 2.0, 2.0], [-1, -1, 1, 1], None),
            # thresholds proportional to the weights: a rank-deficient system
            ("gaussian-case3", [1.0, 1.0, 2.0, 2.0], [1, -1, 1, -1], [1.0, 1.0, 2.0, 2.0]),
        ],
    )
    def test_fallback_is_the_anchor(self, name, taus, bits, weights):
        fam, data = _gaussian(name, taus, bits, weights)
        assert np.array_equal(_start(fam, data), ANCHORS[name])

    @pytest.mark.parametrize("ulps", [1, 10, 11, 30, 50, 51, 60])
    def test_a_square_system_at_the_cutoff_starts_at_the_anchor(self, ulps):
        # case-3 rows x = (tau, -w): (1, -1) at p = 1/2 and (10 + delta, -10) at
        # p = 3/4, delta = ulps ulp(10), so det = delta exactly.  At |det| <= 2 eps
        # |X|_F^2 (ulps <= 50) the rank reads 1.  The rows' weights n pdf(q)^2 /
        # (p (1 - p)) balance the short row against the long one, so that a
        # weighted least-squares fit reads rank 2 from delta ~ 11 ulp(10) on
        delta = ulps * np.spacing(10.0)
        taus, weights = [1.0] * 400 + [10.0 + delta] * 4, [1.0] * 400 + [10.0] * 4
        fam, data = _gaussian("gaussian-case3", taus, [1, -1] * 200 + [1, 1, 1, -1], weights)
        start = _start(fam, data)
        cutoff = 2 * Fraction(np.finfo(float).eps) * sum(
            Fraction(v) ** 2 for v in (1.0, -1.0, 10.0 + delta, -10.0)
        )
        if Fraction(delta) <= cutoff:
            assert np.array_equal(start, ANCHORS["gaussian-case3"])
        else:
            # beta_0 = beta_1 = q(3/4) / delta, one rounding from exact
            q = float(norm_ppf(0.75))
            assert np.array_equal(start, [q / delta, q / delta])

    @pytest.mark.parametrize("name", GAUSSIANS)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fit_agrees_with_the_pooled_start_fit(self, name, seed):
        fam, _, data = repeated_rows(name, np.random.default_rng(seed), max_reps=30)
        try:
            with mock.patch.object(fam, "initial_point", return_value=_pooled_beta(fam, data)):
                old = fit(fam, data)
        except BitGlmError:
            return
        if not old.converged:
            return
        try:
            new = fit(fam, data)
        except NonIdentifiable:
            return  # a singular information: a ridge, no unique maximizer
        assert new.converged
        # each estimate is within about |score| / lambda_min of the exact
        # maximizer, which on flat likelihoods exceeds the rounding term; a
        # singular information (one case-3 design: a ridge) has no unique one
        lam = np.linalg.eigvalsh(new.observed_information)[0]
        slack = 2.0 * (new.final_score_norm + old.final_score_norm) / lam if lam > 0 else np.inf
        got, want = new.theta_hat, old.theta_hat
        assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want) + slack)


#: angles on a grid of 2 pi / 2^20: sines and cosines are 0 or far from underflow,
#: which the error bound below does not model
ANGLES = st.integers(0, 2**20).map(lambda k: 2.0 * math.pi * k / 2**20)


def _turn(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


class TestCramer:
    """``estimator._cramer``, the 2 x 2 solve of the case-3 start and Newton
    direction, against 50-digit mpmath.

    In floats with unit roundoff u = 2^-53, the computed det = ad - bc is
    det (1 + e_D), |e_D| <= (1 + u) u (|ad| + |bc|) / |det| + u, and the
    computed numerator of x_i, t1 - t2 (de - bf or af - ce), is off by at
    most u (|t1| + |t2|) before its own rounding.  With the subtraction's
    and the division's roundings,

        |x^_i - x_i| <= ((1 + u)^2 u (|t1| + |t2|) / |det|
                         + |x_i| ((1 + u)^2 - 1 + e_D)) / (1 - e_D),

    and since (|t1| + |t2|) / |det| = (|A^-1| |b|)_i and |x_i| (|ad| + |bc|)
    / |det| <= (|A^-1| |A| |x|)_i, to first order |x^ - x|_inf <= u (2
    cond(A, x) + 3) |x|_inf <= 5 u cond(A, x) |x|_inf, with Skeel's
    cond(A, x) = | |A^-1| |A| |x| |_inf / |x|_inf >= 1 (Higham 2002, 1.10.1:
    forward stable)."""

    @settings(max_examples=300, deadline=None)
    @given(
        log_cond=st.floats(0.0, 12.0),
        turns=st.tuples(ANGLES, ANGLES),
        log_scale=st.floats(-3.0, 3.0),
        x_polar=st.tuples(st.floats(-3.0, 3.0), ANGLES),
    )
    def test_forward_error_within_its_bound(self, log_cond, turns, log_scale, x_polar):
        # singular values 10^log_scale and 10^(log_scale - log_cond), rounded
        A = _turn(turns[0]) @ np.diag([1.0, 10.0**-log_cond]) @ _turn(turns[1]) * 10.0**log_scale
        r, phi = 10.0 ** x_polar[0], x_polar[1]
        y = A @ np.array([r * math.cos(phi), r * math.sin(phi)])
        got = estimator._cramer(A, y)
        with mpmath.workdps(50):  # the products of doubles are exact here
            (a, b), (c, d) = [[mpmath.mpf(v) for v in row] for row in A.tolist()]
            e, f = (mpmath.mpf(v) for v in y.tolist())
            det, u = a * d - b * c, mpmath.mpf(2) ** -53
            x = [(d * e - b * f) / det, (a * f - c * e) / det]
            e_d = (1 + u) * u * (abs(a * d) + abs(b * c)) / abs(det) + u
            assert e_d < 1
            terms = [abs(d * e) + abs(b * f), abs(a * f) + abs(c * e)]
            bound = [
                ((1 + u) ** 2 * u * t / abs(det) + abs(xi) * ((1 + u) ** 2 - 1 + e_d)) / (1 - e_d)
                for t, xi in zip(terms, x)
            ]
            err = [abs(mpmath.mpf(float(g)) - xi) for g, xi in zip(got, x)]
            assert all(ei <= bi for ei, bi in zip(err, bound))
            # no worse than the LU solve, whose own error can be 0 by luck where
            # a backward-stable solve may commit u cond(A, x) |x|: times 5, the
            # constant of the first-order bound above
            lu = np.linalg.solve(A, y)
            lu_err = max(abs(mpmath.mpf(float(g)) - xi) for g, xi in zip(lu, x))
            inv = [[d / det, -b / det], [-c / det, a / det]]
            skeel = max(
                sum(abs(inv[i][j]) * (abs(m[0]) * abs(x[0]) + abs(m[1]) * abs(x[1]))
                    for j, m in enumerate(((a, b), (c, d))))
                for i in range(2)
            )
            assert max(err) <= 5 * max(lu_err, u * skeel)

    @pytest.mark.parametrize(
        "neg_hess",
        [
            np.ones((2, 2)),  # det 0, and LU finds it singular: least squares
            np.diag([1e-200, 1e-200]),  # det underflows to 0, and LU solves
            np.diag([1e200, 1e200]),  # det overflows
            np.array([[np.nan, 0.0], [0.0, 1.0]]),  # det nan
        ],
    )
    def test_other_determinants_take_the_lapack_chain(self, neg_hess):
        grad = np.array([1.0, 3.0])
        try:
            want = np.linalg.solve(neg_hess, grad)
        except np.linalg.LinAlgError:
            want = np.linalg.lstsq(neg_hess, grad, rcond=None)[0]
        assert estimator._ascent_direction(neg_hess, grad).tobytes() == want.tobytes()

    def test_a_regular_two_by_two_step_is_cramers(self):
        neg_hess, grad = np.array([[3.0, 1.0], [1.0, 2.0]]), np.array([1.0, 3.0])
        step = estimator._ascent_direction(neg_hess, grad)
        assert step.tobytes() == estimator._cramer(neg_hess, grad).tobytes()
        assert np.array_equal(step, [(2.0 - 3.0) / 5.0, (9.0 - 1.0) / 5.0])
