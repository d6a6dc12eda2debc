"""Core likelihood operations against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bitglm import (
    CensoredDataset,
    DegenerateLikelihood,
    DomainError,
    hessian,
    likelihood,
    log_likelihood,
    models,
    score,
)
from conftest import MODEL_NAMES, random_instance, repeated_rows
from _oracles import deviation_derivatives, fd_gradient, fd_jacobian, truncated_normal_moment


def gaussian1(weights, sigma, taus):
    fam = models.GaussianCase1(weights, sigma=sigma)
    return fam, fam.design_set(taus)


def one_row(ds, i, b):
    """Design i of ``ds`` alone, observed with bit b."""
    return CensoredDataset([b], ds.subset(slice(i, i + 1)))


def log_prob(fam, theta, ds, i, b):
    """log P(B = b) for design i alone."""
    return float(likelihood.log_bit_probabilities(fam, theta, one_row(ds, i, b))[0])


def mp_log_ncdf(z):
    """log Phi(z) to 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.ncdf(mpmath.mpf(z))))


class TestCensoredProb:
    def test_threshold_at_the_mean(self):
        fam, ds = gaussian1([1.0], 1.0, [2.0])
        assert log_prob(fam, [2.0], ds, 0, 1) == math.log(0.5)

    def test_poisson_zero_threshold(self):
        fam = models.PoissonModel([1.0])
        ds = fam.design_set([0.0])
        assert_allclose(log_prob(fam, [0.0], ds, 0, 1), -1.0, rtol=1e-15)

    def test_one_sigma_below_mean(self):
        fam, ds = gaussian1([1.0], 1.0, [1.0])
        assert_allclose(log_prob(fam, [2.0], ds, 0, 1), mp_log_ncdf(-1), rtol=1e-14)

    def test_poisson_minus_bit_takes_its_own_tail(self):
        # P(X > 6) = 2.1e-11; 1 - P(X <= 6) kept only ~5 of its digits
        v, theta, t = -0.83110711, 2.74242737, 6
        fam = models.PoissonModel([v])
        ds = fam.design_set([float(t)])
        lam = float(np.exp(np.array([v]) * theta)[0])
        with mpmath.workdps(50):
            want = float(mpmath.log(mpmath.gammainc(t + 1, 0, mpmath.mpf(lam), regularized=True)))
        assert_allclose(log_prob(fam, [theta], ds, 0, -1), want, rtol=1e-13)

    @pytest.mark.parametrize(
        "z, b", [(-40.0, 1), (-45.0, 1), (5.0, -1), (7.0, -1), (8.0, -1), (9.0, -1)]
    )
    def test_far_tails_against_mpmath(self, z, b):
        # P(+1) underflows below z = -38 and 1 - Phi(z) loses its digits
        # above z = 5 (to 2e-3 at z = 8) and rounds to 0 from z = 8.3
        fam, ds = gaussian1([1.0], 1.0, [z])
        assert_allclose(log_prob(fam, [0.0], ds, 0, b), mp_log_ncdf(b * z), rtol=1e-13)

    def test_bits_mirror_exactly(self):
        # (tau, w) -> (-tau, -w) negates the index exactly
        fam, ds = gaussian1([0.7, -0.7], 1.3, [0.4, -0.4])
        assert log_prob(fam, [1.1], ds, 0, 1) == log_prob(fam, [1.1], ds, 1, -1)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(-3, 3),
        tau=st.floats(-4, 4),
        w=st.floats(-2, 2),
        sigma=st.floats(0.3, 3),
    )
    def test_mirror_property(self, alpha, tau, w, sigma):
        fam, ds = gaussian1([w, -w], sigma, [tau, -tau])
        plus = log_prob(fam, [alpha], ds, 0, 1)
        assert plus <= 0.0
        assert plus == log_prob(fam, [alpha], ds, 1, -1)

    def test_domain_violation(self):
        fam = models.GaussianCase2(means=[0.0])
        ds = fam.design_set([1.0])
        with pytest.raises(DomainError):
            log_prob(fam, [-1.0], ds, 0, 1)

    def test_invalid_bit(self):
        fam, ds = gaussian1([1.0], 1.0, [0.0])
        with pytest.raises(ValueError):
            log_prob(fam, [0.0], ds, 0, 0)


class TestLogLikelihood:
    def test_single_observation(self):
        fam, ds = gaussian1([1.0], 1.0, [0.0])
        data = CensoredDataset([1], ds)
        assert_allclose(log_likelihood(fam, [0.0], data), math.log(0.5), rtol=1e-15)

    def test_additivity_over_duplicates(self):
        fam, ds = gaussian1([1.0], 1.0, [0.3])
        one = CensoredDataset([1], ds)
        fam2, ds2 = gaussian1([1.0, 1.0], 1.0, [0.3, 0.3])
        two = CensoredDataset([1, 1], ds2)
        assert log_likelihood(fam2, [0.8], two) == 2.0 * log_likelihood(fam, [0.8], one)

    def test_three_observation_product(self):
        # independent per-observation probabilities multiplied in mpmath
        fam, ds = gaussian1([1.0, 1.0, 1.0], 1.0, [-1.0, 0.0, 1.0])
        bits = [1, -1, 1]
        data = CensoredDataset(bits, ds)
        want = sum(mp_log_ncdf(b * (tau - 0.3)) for tau, b in zip(ds.taus, bits))
        assert_allclose(log_likelihood(fam, [0.3], data), want, rtol=1e-15)

    def test_permutation_invariance_bit_identical(self):
        rng = np.random.default_rng(5)
        fam, theta, ds = random_instance("gaussian-case3", rng, n_max=6)
        bits = rng.choice([-1, 1], ds.n)
        data = CensoredDataset(bits, ds)
        base = log_likelihood(fam, theta, data)
        for _ in range(5):
            perm = rng.permutation(ds.n)
            assert log_likelihood(fam, theta, data.permuted(perm)) == base

    def test_degenerate_observation_reported(self):
        # a Poisson tail of exactly 0, here P(X > 300) at rate 1, is the only
        # bit probability that reads 0: a Gaussian one is log Phi in log space
        fam = models.PoissonModel([1.0, 1.0])
        data = CensoredDataset([1, -1], fam.design_set([2.0, 300.0]))
        with pytest.raises(DegenerateLikelihood) as err:
            log_likelihood(fam, [0.0], data)
        assert err.value.index == 1


class TestPoissonFarTails:
    """One Poisson bit whose probability sits in a far tail at a large rate."""

    @staticmethod
    def one_bit(lam, tau, b):
        fam = models.PoissonModel([1.0])
        return fam, np.array([math.log(lam)]), CensoredDataset([b], fam.design_set([tau]))

    def test_left_tail_bit_has_finite_log_likelihood(self):
        fam, theta, data = self.one_bit(1086.07, 550.0, 1)
        lam = float(np.exp(theta[0]))
        with mpmath.workdps(50):
            want = float(mpmath.log(mpmath.gammainc(551, lam, mpmath.inf, regularized=True)))
        assert_allclose(log_likelihood(fam, theta, data), want, rtol=1e-10)

    def test_certain_bit_has_finite_derivatives(self):
        # P(B=-1) rounds to 1 and the pmf at the threshold to 0
        fam, theta, data = self.one_bit(1975.6, 215.0, -1)
        ll, g, h = likelihood.evaluate(fam, theta, data)
        assert ll == 0.0
        assert_allclose(g, 0.0, atol=1e-300)
        assert_allclose(h, 0.0, atol=1e-300)


class TestScore:
    def test_median_threshold_spot_value(self):
        # single bit at the information-optimal threshold
        alpha = 0.7
        fam, ds = gaussian1([1.0], 1.0, [alpha])
        data = CensoredDataset([1], ds)
        got = score(fam, [alpha], data)
        assert_allclose(got, [-math.sqrt(2 / math.pi)], rtol=1e-13)
        # finite-difference cross-check
        fd = fd_gradient(lambda t: log_likelihood(fam, t, data), np.array([alpha]))
        assert_allclose(got, fd, rtol=1e-7)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_zero_mean_over_bits(self, name, rng):
        for _ in range(25):
            fam, theta, ds = random_instance(name, rng)
            probs = fam.prob_leq(theta, ds)
            total = np.zeros(fam.k)
            for i in range(ds.n):
                for b, pb in ((1, probs[i]), (-1, 1 - probs[i])):
                    total += score(fam, theta, one_row(ds, i, b)) * pb
            assert np.max(np.abs(total)) <= 1e-12

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_finite_differences(self, name, rng):
        for _ in range(25):
            fam, theta, ds = random_instance(name, rng)
            bits = rng.choice([-1, 1], ds.n)
            data = CensoredDataset(bits, ds)
            got = score(fam, theta, data)
            fd = fd_gradient(lambda t: log_likelihood(fam, t, data), theta)
            assert_allclose(got, fd, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(got).max()))


class TestHessian:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_exact_symmetry(self, name, rng):
        fam, theta, ds = random_instance(name, rng)
        data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
        h = hessian(fam, theta, data)
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_score_jacobian(self, name, rng):
        for _ in range(25):
            fam, theta, ds = random_instance(name, rng)
            data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
            got = hessian(fam, theta, data)
            fd = fd_jacobian(lambda t: score(fam, t, data), theta)
            fd = 0.5 * (fd + fd.T)
            assert_allclose(got, fd, rtol=1e-4, atol=1e-4 * max(1.0, np.abs(got).max()))

    def test_single_observation_curvature_is_variance_gap(self):
        # 1x1 Hessian = w^2/sigma^4 (Var(X | bit) - sigma^2); truncated
        # variance from quadrature
        w, sigma, alpha, tau = 1.3, 0.8, 0.4, 0.9
        fam, ds = gaussian1([w], sigma, [tau])
        for b in (1, -1):
            data = CensoredDataset([b], ds)
            got = hessian(fam, [alpha], data)[0, 0]
            m1 = truncated_normal_moment(w * alpha, sigma, tau, b, 1)
            m2 = truncated_normal_moment(w * alpha, sigma, tau, b, 2)
            var = m2 - m1**2
            assert_allclose(got, w**2 / sigma**4 * (var - sigma**2), rtol=1e-7)
            if b == 1 and tau < w * alpha + sigma:
                assert got < 0  # truncation shrinks the variance here


class TestGroupedRows:
    """Every operation on ``data.grouped()`` (counts weighting distinct
    rows) against the same operation on the rows one by one."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_grouped_matches_rows(self, name, rng):
        for _ in range(10):
            fam, theta, rows = repeated_rows(name, rng)
            grouped = rows.grouped()
            assert grouped.n < rows.n and grouped.total == rows.n
            assert_allclose(
                log_likelihood(fam, theta, grouped), log_likelihood(fam, theta, rows), rtol=1e-12
            )
            assert_allclose(score(fam, theta, grouped), score(fam, theta, rows), rtol=1e-12)
            assert_allclose(hessian(fam, theta, grouped), hessian(fam, theta, rows), rtol=1e-12)
            for got, want in zip(
                likelihood.evaluate(fam, theta, grouped), likelihood.evaluate(fam, theta, rows)
            ):
                assert_allclose(got, want, rtol=1e-12)



class TestIndexRoute:
    """``index_evaluate`` in the index parameter beta against the paper's
    deviation route in theta: l_beta = J^T l_theta and l_beta,beta =
    J^T l_theta,theta J + sum_m l_theta_m C_m, for the Jacobian J = C beta
    of theta(beta)."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_chain_rule_matches_the_theta_route(self, name, rng):
        for _ in range(25):
            fam, theta, ds = random_instance(name, rng)
            data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
            beta = fam.index_from_theta(theta)
            assert_allclose(fam.theta_from_index(beta), theta, rtol=1e-15)
            ll, g, h = likelihood.index_evaluate(fam, beta, data, fam.index_regressors(ds))
            g_theta, h_theta, _, _ = deviation_derivatives(fam, theta, data)
            C = fam.index_curvature
            J = np.eye(fam.k) if C is None else C @ beta
            curve = 0.0 if C is None else C.T @ g_theta
            assert ll == log_likelihood(fam, theta, data)
            scale = np.abs(g).max() + 1.0
            assert_allclose(g, J.T @ g_theta, rtol=1e-10, atol=1e-12 * scale)
            scale = np.abs(h).max() + 1.0
            assert_allclose(h, J.T @ h_theta @ J + curve, rtol=1e-9, atol=1e-11 * scale)


class TestDeviationRoute:
    """``evaluate`` (the index route taken to theta) against the paper's
    sum_i n_i V_i^T (E[T_i | b_i] - E[T_i]) and sum_i n_i V_i^T (Cov(T_i |
    b_i) - Cov(T_i)) V_i from ``cond_devs_T``, relative to the sum of the
    rows' absolute terms: where those cancel, neither route keeps more."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_score_and_hessian_match(self, name, rng):
        for i in range(40):
            if i % 2:
                fam, theta, data = repeated_rows(name, rng)
            else:
                fam, theta, ds = random_instance(name, rng)
                data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
            ll, g, h = likelihood.evaluate(fam, theta, data)
            want_g, want_h, g_scale, h_scale = deviation_derivatives(fam, theta, data)
            assert ll == log_likelihood(fam, theta, data)
            assert np.abs(g - want_g).max() <= 1e-12 * g_scale
            assert np.abs(h - want_h).max() <= 1e-12 * h_scale
