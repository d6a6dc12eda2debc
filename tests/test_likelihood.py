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
from _oracles import fd_gradient, fd_jacobian, truncated_normal_moment


def gaussian1(weights, sigma, taus):
    fam = models.GaussianCase1(weights, sigma=sigma)
    return fam, fam.design_set(taus)


def one_row(ds, i, b):
    """Design i of ``ds`` alone, observed with bit b."""
    return CensoredDataset([b], ds.subset(slice(i, i + 1)))


def bit_prob(fam, theta, ds, i, b):
    """P(B = b) for design i alone."""
    return float(likelihood.bit_probabilities(fam, theta, one_row(ds, i, b))[0])


class TestCensoredProb:
    def test_threshold_at_the_mean(self):
        fam, ds = gaussian1([1.0], 1.0, [2.0])
        assert bit_prob(fam, [2.0], ds, 0, 1) == 0.5

    def test_poisson_zero_threshold(self):
        fam = models.PoissonModel([1.0])
        ds = fam.design_set([0.0])
        assert_allclose(bit_prob(fam, [0.0], ds, 0, 1), math.exp(-1), rtol=1e-15)

    def test_one_sigma_below_mean(self):
        # high-precision CDF oracle
        with mpmath.workdps(40):
            want = float(mpmath.ncdf(-1))
        fam, ds = gaussian1([1.0], 1.0, [1.0])
        assert_allclose(bit_prob(fam, [2.0], ds, 0, 1), want, rtol=1e-14)

    def test_bits_are_exact_complements(self):
        fam, ds = gaussian1([0.7], 1.3, [0.4])
        p = bit_prob(fam, [1.1], ds, 0, 1)
        q = bit_prob(fam, [1.1], ds, 0, -1)
        assert p + q == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(-3, 3),
        tau=st.floats(-4, 4),
        w=st.floats(-2, 2),
        sigma=st.floats(0.3, 3),
    )
    def test_complement_property(self, alpha, tau, w, sigma):
        fam, ds = gaussian1([w], sigma, [tau])
        p = bit_prob(fam, [alpha], ds, 0, 1)
        q = bit_prob(fam, [alpha], ds, 0, -1)
        assert 0.0 <= p <= 1.0
        assert p + q == 1.0

    def test_domain_violation(self):
        fam = models.GaussianCase2(means=[0.0])
        ds = fam.design_set([1.0])
        with pytest.raises(DomainError):
            bit_prob(fam, [-1.0], ds, 0, 1)

    def test_invalid_bit(self):
        fam, ds = gaussian1([1.0], 1.0, [0.0])
        with pytest.raises(ValueError):
            bit_prob(fam, [0.0], ds, 0, 0)


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
        # independent per-observation probabilities multiplied by hand
        fam, ds = gaussian1([1.0, 1.0, 1.0], 1.0, [-1.0, 0.0, 1.0])
        bits = [1, -1, 1]
        data = CensoredDataset(bits, ds)
        want = sum(
            math.log(bit_prob(fam, [0.3], ds, i, b)) for i, b in enumerate(bits)
        )
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
        fam, ds = gaussian1([1.0], 1.0, [0.0])
        data = CensoredDataset([1], ds)
        with pytest.raises(DegenerateLikelihood) as err:
            log_likelihood(fam, [45.0], data)  # z = -45, P(+1) underflows
        assert err.value.index == 0


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

