"""Closed-form conditional moments and information against generic routes
and brute-force oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import bitglm
from bitglm import (
    CensoredDataset,
    DegenerateThreshold,
    DomainError,
    ModelFamily,
    NumericalError,
    _gauss,
    dpi_check,
    fim_censored,
    fim_uncensored,
    fisher,
    fit,
    likelihood,
    log_likelihood,
    models,
    types,
)
from conftest import MODEL_NAMES, random_instance
from _oracles import (
    case1_fim,
    case1_uncensored_fim,
    case2_fim,
    case3_fim,
    cov_statistic,
    fd_gradient,
    fd_jacobian,
    gaussian_conditional_moments,
    log_partition,
    mean_statistic,
    poisson_conditional_mean,
    poisson_conditional_moment_sum,
    poisson_fim,
    t3_quad,
    third_abs_moments,
    truncated_normal_moment,
)


class TestGaussianConditionalMoments:
    def test_standard_median_threshold(self):
        ex, ex2 = gaussian_conditional_moments(0.0, 1.0, 0.0, 1)
        assert_allclose(ex, -math.sqrt(2 / math.pi), rtol=1e-14)
        assert_allclose(ex2, 1.0, rtol=1e-14)

    def test_halves_mix_back_to_the_mean(self):
        lo, _ = gaussian_conditional_moments(2.0, 1.0, 2.0, 1)
        hi, _ = gaussian_conditional_moments(2.0, 1.0, 2.0, -1)
        assert_allclose(lo + hi, 4.0, rtol=1e-14)

    def test_one_sigma_cut(self):
        from bitglm import _gauss

        ex, _ = gaussian_conditional_moments(2.0, 1.0, 1.0, 1)
        want = 2.0 - float(_gauss.norm_pdf(-1.0) / _gauss.norm_cdf(-1.0))
        assert_allclose(ex, want, rtol=1e-13)
        assert ex == pytest.approx(0.4748647, abs=1e-6)
        # independent quadrature route
        assert_allclose(ex, truncated_normal_moment(2.0, 1.0, 1.0, 1, 1), rtol=1e-9)

    def test_matches_quadrature_grid(self):
        for mu, sigma, tau, b in [
            (0.5, 0.7, 1.2, 1),
            (-1.0, 2.0, 0.0, -1),
            (3.0, 0.5, 2.4, -1),
        ]:
            ex, ex2 = gaussian_conditional_moments(mu, sigma, tau, b)
            assert_allclose(ex, truncated_normal_moment(mu, sigma, tau, b, 1), rtol=1e-8)
            assert_allclose(ex2, truncated_normal_moment(mu, sigma, tau, b, 2), rtol=1e-8)

    def test_total_expectation_and_variance(self, rng):
        from bitglm import _gauss

        for _ in range(50):
            mu = float(rng.uniform(-3, 3))
            sigma = float(rng.uniform(0.3, 2.5))
            tau = mu + sigma * float(rng.uniform(-3, 3))
            p = float(_gauss.norm_cdf((tau - mu) / sigma))
            ex_p, ex2_p = gaussian_conditional_moments(mu, sigma, tau, 1)
            ex_m, ex2_m = gaussian_conditional_moments(mu, sigma, tau, -1)
            assert_allclose(ex_p * p + ex_m * (1 - p), mu, rtol=0, atol=1e-12 * max(1, abs(mu)))
            # law of total variance: Var(E[X|B]) + E[Var(X|B)] = sigma^2
            var_p = ex2_p - ex_p**2
            var_m = ex2_m - ex_m**2
            between = (ex_p - mu) ** 2 * p + (ex_m - mu) ** 2 * (1 - p)
            within = var_p * p + var_m * (1 - p)
            assert_allclose(between + within, sigma**2, rtol=1e-10)

    def test_far_tail_is_finite_up_to_the_contract(self):
        ex, ex2 = gaussian_conditional_moments(0.0, 1.0, 38.0, -1)
        assert math.isfinite(ex) and math.isfinite(ex2)
        with pytest.raises(NumericalError):
            gaussian_conditional_moments(0.0, 1.0, 40.0, -1)

    def test_sigma_validated(self):
        with pytest.raises(DomainError):
            gaussian_conditional_moments(0.0, -1.0, 0.0, 1)


class TestCase1Information:
    def test_optimal_threshold_value(self):
        fam = models.GaussianCase1([1.0], sigma=1.0)
        got = case1_fim(fam, 0.3, [0.3])
        assert_allclose(got, 2 / math.pi, rtol=1e-12)

    def test_zero_weights(self):
        fam = models.GaussianCase1([0.0, 0.0], sigma=1.0)
        assert case1_fim(fam, 1.0, [0.5, -0.3]) == 0.0

    def test_matches_generic_assembly(self):
        fam = models.GaussianCase1([1.0, 2.0], sigma=1.0)
        ds = fam.design_set([0.5, -0.3])
        got = case1_fim(fam, 0.0, [0.5, -0.3])
        want = fim_censored(fam, [0.0], ds).matrix[0, 0]
        assert_allclose(got, want, rtol=1e-12)

    def test_uncensored_closed_form(self):
        fam = models.GaussianCase1([1.0, -2.0, 0.5], sigma=1.5)
        ds = fam.design_set([0.0, 0.0, 0.0])
        want = fim_uncensored(fam, [0.7], ds).matrix[0, 0]
        assert_allclose(case1_uncensored_fim(fam), want, rtol=1e-13)


class TestCase1OptimalThresholds:
    def test_rule(self):
        fam = models.GaussianCase1([1.0], sigma=1.0)
        assert_allclose(models.case1_optimal_thresholds(fam, 3.0), [3.0])

    def test_gridscan_argmax(self):
        # any tau != w*alpha strictly decreases the per-observation term
        fam = models.GaussianCase1([1.3], sigma=0.9)
        alpha = 0.8
        opt = models.case1_optimal_thresholds(fam, alpha)[0]
        grid = np.arange(opt - 1.0, opt + 1.0 + 1e-3, 1e-3)
        vals = np.array([case1_fim(fam, alpha, [t]) for t in grid])
        best = grid[int(np.argmax(vals))]
        assert abs(best - opt) <= 1e-3
        at_opt = case1_fim(fam, alpha, [opt])
        off = vals[np.abs(grid - opt) > 5e-3]
        assert np.all(off < at_opt)

    def test_censoring_penalty_ratio(self):
        fam = models.GaussianCase1([0.5, 1.0, 2.0], sigma=1.7)
        alpha = -0.6
        taus = models.case1_optimal_thresholds(fam, alpha)
        ratio = case1_fim(fam, alpha, taus) / case1_uncensored_fim(fam)
        assert abs(ratio - 2 / math.pi) <= 1e-12


class TestCase2Information:
    def test_threshold_at_the_mean_is_uninformative(self):
        fam = models.GaussianCase2(means=[1.0, -2.0])
        assert case2_fim(fam, 1.3, [1.0, -2.0]) == 0.0

    def test_single_observation_matches_generic(self):
        fam = models.GaussianCase2(means=[0.0])
        ds = fam.design_set([1.0])
        got = case2_fim(fam, 1.0, [1.0])
        want = fim_censored(fam, [1.0], ds).matrix[0, 0]
        assert_allclose(got, want, rtol=1e-12)

    def test_threshold_scaling_against_generic(self, rng):
        for _ in range(20):
            means = rng.uniform(-2, 2, 3)
            sigma = float(rng.uniform(0.5, 2.0))
            offs = rng.uniform(0.2, 2.0, 3)
            fam = models.GaussianCase2(means=means)
            for scale in (1.0, 2.0):
                taus = means + scale * offs
                got = case2_fim(fam, sigma, taus)
                want = fim_censored(fam, [1 / sigma**2], fam.design_set(taus)).matrix[0, 0]
                assert_allclose(got, want, rtol=1e-12)


class TestCase3Information:
    def test_two_point_example_determinant(self):
        fam = models.GaussianCase3([1.0, 1.0])
        j = case3_fim(fam, 1.0, 1.0, [-1.0, 2.0])
        assert np.linalg.det(j) == pytest.approx(0.1294, abs=5e-4)

    def test_single_summand_is_singular(self):
        fam = models.GaussianCase3([1.0])
        j = case3_fim(fam, 1.0, 1.0, [0.7])
        assert abs(np.linalg.det(j)) < 1e-14

    def test_matches_generic_entrywise(self, rng):
        for _ in range(30):
            fam, theta, ds = random_instance("gaussian-case3", rng)
            alpha, sigma2 = models.GaussianCase3.alpha_sigma2_from_natural(theta)
            got = case3_fim(fam, alpha, math.sqrt(sigma2), ds.taus)
            want = fim_censored(fam, theta, ds).matrix
            assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_always_psd(self, rng):
        for _ in range(30):
            fam, theta, ds = random_instance("gaussian-case3", rng)
            alpha, sigma2 = models.GaussianCase3.alpha_sigma2_from_natural(theta)
            j = case3_fim(fam, alpha, math.sqrt(sigma2), ds.taus)
            assert np.linalg.eigvalsh(j)[0] >= -1e-12

    def test_third_moment_reads_the_largest_mean_only(self, monkeypatch):
        fam = models.GaussianCase3([0.5, -1.0, 0.5, 2.0, -1.0, 0.5, 0.0])
        theta = models.GaussianCase3.natural_from_alpha_sigma2(0.8, 1.3)
        ds = fam.design_set(np.linspace(-1.0, 1.0, 7))
        calls = []
        moment = _gauss.abs_third_moment
        monkeypatch.setattr(
            _gauss, "abs_third_moment", lambda m, s: calls.append(m) or moment(m, s)
        )
        got = fam.max_third_abs_moment_T(theta, ds)
        assert calls == [pytest.approx(1.6, rel=1e-15)]  # w alpha at the largest |w|
        assert_allclose(got, np.max(third_abs_moments(fam, theta, ds)), rtol=1e-10)

    def test_natural_moment_roundtrip(self):
        theta = np.array([1.7, 0.4])
        alpha, sigma2 = models.GaussianCase3.alpha_sigma2_from_natural(theta)
        back = models.GaussianCase3.natural_from_alpha_sigma2(alpha, sigma2)
        assert_allclose(back, theta, rtol=1e-15)
        fam = models.GaussianCase3([1.0])
        assert_allclose(fam.from_moment(fam.to_moment(theta)), theta, rtol=1e-15)


class TestPoissonInformation:
    def test_unit_rate_zero_threshold(self):
        fam = models.PoissonModel([1.0])
        got = poisson_fim(fam, 0.0, [0.0])
        assert_allclose(got, 1 / (math.e - 1), rtol=1e-12)

    def test_zero_covariates(self):
        fam = models.PoissonModel([0.0, 0.0])
        assert poisson_fim(fam, 1.0, [1.0, 2.0]) == 0.0

    def test_rate_three_matches_enumeration(self):
        theta = math.log(3.0)
        fam = models.PoissonModel([1.0])
        got = poisson_fim(fam, theta, [2.0])
        # enumeration oracle: Var(E[X|B]) via exact pmf sums
        lam = 3.0
        f = sum(math.exp(-lam) * lam**x / math.factorial(x) for x in range(3))
        e_plus = poisson_conditional_moment_sum(lam, 2.0, 1, 1)
        e_minus = poisson_conditional_moment_sum(lam, 2.0, -1, 1)
        var_between = (e_plus - lam) ** 2 * f + (e_minus - lam) ** 2 * (1 - f)
        assert_allclose(got, var_between, rtol=1e-10)
        want = fim_censored(fam, [theta], fam.design_set([2.0])).matrix[0, 0]
        assert_allclose(got, want, rtol=1e-10)

    def test_far_left_tail_does_not_underflow(self):
        # F = 5.9e-168 here, so pmf^2 alone would underflow to 0
        theta = math.log(2000.0)
        fam = models.PoissonModel([1.0])
        got = poisson_fim(fam, theta, [900.5])
        with mpmath.workdps(60):
            lam = mpmath.mpf(math.exp(theta))
            f = mpmath.gammainc(901, lam, mpmath.inf, regularized=True)
            pmf = mpmath.exp(-lam) * lam**900 / mpmath.factorial(900)
            want = float(lam**2 * pmf**2 / (f * (1 - f)))
        assert_allclose(got, want, rtol=1e-10)
        j = fim_censored(fam, [theta], fam.design_set([900.5])).matrix[0, 0]
        assert_allclose(j, want, rtol=1e-10)

    def test_degenerate_threshold_raises(self):
        fam = models.PoissonModel([1.0])
        with pytest.raises(DegenerateThreshold):
            poisson_fim(fam, 0.0, [300.0])

    def test_floor_rule(self):
        fam = models.PoissonModel([1.0])
        assert poisson_fim(fam, 0.1, [2.0]) == poisson_fim(fam, 0.1, [2.9])

    def test_negative_threshold_rejected(self):
        fam = models.PoissonModel([1.0])
        with pytest.raises(DomainError):
            fam.design_set([-1.0])

    def test_rates_beyond_the_supported_range_raise(self):
        fam = models.PoissonModel([1.0, 1.0])
        ds = fam.design_set([0.0, 2.0 * fam.MAX_RATE])
        top = math.log(fam.MAX_RATE)
        assert np.all(np.isfinite(fam.prob_leq([top - 1e-9], ds)))
        with pytest.raises(NumericalError):
            fam.prob_leq([top + 1e-9], ds)

    def test_thresholds_beyond_int64_keep_their_count(self):
        # floor(1e19) as an int64 wrapped to -2^63, which read P(X <= tau) = 0
        fam = models.PoissonModel([1.0, 1.0, 1.0])
        ds = fam.design_set([1.0, 3.0, 1e19])
        assert fam.prob_leq([0.5], ds)[2] == 1.0
        # a -1 bit there has probability 0: no longer dropped in silence
        with pytest.raises(bitglm.DegenerateLikelihood) as err:
            log_likelihood(fam, [0.5], CensoredDataset([1, -1, -1], ds))
        assert err.value.index == 2 and "observation 2" in str(err.value)
        # a +1 bit there has probability 1, so the fit is that of the other
        # two rows, from another start (the mean threshold)
        got = fit(fam, CensoredDataset([1, -1, 1], ds))
        two = models.PoissonModel([1.0, 1.0])
        want = fit(two, CensoredDataset([1, -1], two.design_set([1.0, 3.0])))
        assert got.converged and got.theta_hat[0] == pytest.approx(want.theta_hat[0], rel=1e-10)
        assert want.theta_hat[0] == pytest.approx(1.01998, abs=1e-5)


class TestPoissonConditionalMean:
    def test_only_zero_survives(self):
        assert poisson_conditional_mean(1.0, 0.0, 1) == 0.0

    def test_total_expectation(self):
        lam, tau = 2.0, 3.0
        f = sum(math.exp(-lam) * lam**x / math.factorial(x) for x in range(4))
        em = poisson_conditional_mean(lam, tau, 1)
        ep = poisson_conditional_mean(lam, tau, -1)
        assert_allclose(em * f + ep * (1 - f), lam, rtol=1e-13)

    def test_upper_tail_against_summation(self):
        got = poisson_conditional_mean(2.0, 3.0, -1)
        want = poisson_conditional_moment_sum(2.0, 3.0, -1, 1)
        assert_allclose(got, want, rtol=1e-12)

    def test_vectorized(self):
        got = poisson_conditional_mean([1.0, 2.0], [0.0, 3.0], [1, -1])
        assert got.shape == (2,)
        assert got[0] == 0.0


class TestLawOfTotalCovariance:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_mixture_recovers_unconditional(self, name, rng):
        for _ in range(25):
            fam, theta, ds = random_instance(name, rng)
            p = fam.prob_leq(theta, ds)
            plus = np.ones(ds.n, dtype=np.int8)
            mean = mean_statistic(fam, ds.natural_params(theta))
            m_p = mean + fam.cond_mean_dev_T(theta, ds, plus)
            m_m = mean + fam.cond_mean_dev_T(theta, ds, -plus)
            mixed = m_p * p[:, None] + m_m * (1 - p)[:, None]
            assert_allclose(mixed, mean, rtol=0, atol=1e-12 * (1 + np.abs(mean).max()))

            cov = cov_statistic(fam, ds.natural_params(theta))
            c_p = cov + fam.cond_devs_T(theta, ds, plus)[1]
            c_m = cov + fam.cond_devs_T(theta, ds, -plus)[1]
            within = c_p * p[:, None, None] + c_m * (1 - p)[:, None, None]
            dev_p = (m_p - mean)[:, :, None] * (m_p - mean)[:, None, :]
            dev_m = (m_m - mean)[:, :, None] * (m_m - mean)[:, None, :]
            between = dev_p * p[:, None, None] + dev_m * (1 - p)[:, None, None]
            assert_allclose(
                within + between, cov, rtol=0, atol=1e-10 * (1 + np.abs(cov).max())
            )
            # sandwiched by V, the between term is the index weight's rank-one
            # term w g g^T, for the row g = x J^-1 of the regressors in theta
            beta = fam.index_from_theta(theta)
            X, offset = fam.index_regressors(ds)
            w = fam.index_weight(offset + X @ beta, ds)
            assert w.shape == (ds.n,) and np.all(w >= 0)
            inverse = likelihood._inverse_jacobian(fam, beta)
            g = X if inverse is None else X @ inverse
            rank_one = w[:, None, None] * g[:, :, None] * g[:, None, :]
            want = np.einsum("idk,ide,iel->ikl", ds.V, between, ds.V)
            assert_allclose(rank_one, want, rtol=0, atol=1e-10 * (1 + np.abs(want).max()))


class TestThirdMoment:
    """Clause (1) of the consistency conditions reads one maximum per family."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_maximum_matches_the_per_row_oracle(self, name, rng):
        for _ in range(20):
            fam, theta, ds = random_instance(name, rng, n=50)
            got = fam.max_third_abs_moment_T(theta, ds)
            assert isinstance(got, float)
            assert_allclose(got, np.max(third_abs_moments(fam, theta, ds)), rtol=1e-10)

    def test_case3_brackets_the_euclidean_moment(self, rng):
        # |t_1|^3 + |t_2|^3 <= ||t||^3 <= sqrt(2) (|t_1|^3 + |t_2|^3) on R^2,
        # so clause (1) is bounded exactly where E||T||^3 is
        for _ in range(20):
            fam, theta, ds = random_instance("gaussian-case3", rng)
            alpha, sigma2 = models.GaussianCase3.alpha_sigma2_from_natural(theta)
            mu = fam.weights * alpha
            euclid = t3_quad(mu[np.argmax(np.abs(mu))], math.sqrt(sigma2))
            got = fam.max_third_abs_moment_T(theta, ds)
            assert got <= euclid * (1.0 + 1e-10)
            assert euclid <= math.sqrt(2.0) * got * (1.0 + 1e-10)

    @pytest.mark.parametrize(
        "mu, sigma",
        [(1.0, 1.0), (-3.5, 1.0), (1e8, 1.0), (1e16, 1.0), (2e16, 1.0), (-5e16, 1.0),
         (1e20, 1.0), (1e40, 1.0), (1.0, 1e-53), (1.0, 1e-60), (-1.0, 1e-110), (1e-30, 1e-60)],
    )
    def test_case3_at_extreme_scales(self, mu, sigma):
        # a quadrature read this moment over mu^6 as 1.014 at mu = 1e16, 1.60
        # at 2e16 and -0.798 from 1e20 on, and warned; sigma^6 (or sigma^3)
        # times a polynomial in mu / sigma read inf or nan from sigma = 1e-53
        # (1e-103) on at mu = 1, where sigma^6 (sigma^3) leaves the normal range
        fam = models.GaussianCase3([1.0])
        theta = models.GaussianCase3.natural_from_alpha_sigma2(mu, sigma * sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fam.max_third_abs_moment_T(theta, fam.design_set([0.0]))
        with mpmath.workdps(60):
            s, m = mpmath.mpf(sigma), mpmath.mpf(mu) / mpmath.mpf(sigma)
            m2 = m * m
            abs3 = mpmath.sqrt(2 / mpmath.pi) * (m2 + 2) * mpmath.exp(-m2 / 2) + abs(m) * (
                m2 + 3
            ) * mpmath.erf(abs(m) / mpmath.sqrt(2))
            want = s**3 * abs3 + s**6 * (m2**3 + 15 * m2**2 + 45 * m2 + 15)
        assert got > 0.0
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("mu, sigma", [(1e200, 1.0), (0.0, 1e150), (1e120, 1e60)])
    def test_case3_overflowing_moment_reads_inf(self, mu, sigma):
        # mu^2 or sigma^2 overflows, and some term with it: the moment does too
        fam = models.GaussianCase3([1.0])
        theta = models.GaussianCase3.natural_from_alpha_sigma2(mu, sigma * sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fam.max_third_abs_moment_T(theta, fam.design_set([0.0])) == math.inf


    @pytest.mark.parametrize("sigma", [1.0, 0.37, 1e-100, 1e100])
    def test_case1_inside_the_float_range_keeps_its_bytes(self, sigma, rng):
        # E|X|^3 now runs under np.errstate and reads a nan as inf; where the
        # moment is finite it is the closed form's plain evaluation, bit for bit
        def plain(mu, sigma):
            m, mu2, s2 = mu / sigma, mu * mu, sigma * sigma
            tail = math.sqrt(2.0 / math.pi) * sigma * (mu2 + 2.0 * s2) * np.exp(-0.5 * (m * m))
            return tail + mu * (mu2 + 3.0 * s2) * special.erf(m / math.sqrt(2.0))

        mu = sigma * rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-30.0, 30.0, 400)
        with np.errstate(over="ignore", invalid="ignore"):
            want = plain(mu, sigma)
        finite = np.isfinite(want)
        assert finite.sum() >= 100
        # the family reads the largest |mu| of its rows, here at alpha = sigma
        fam = models.GaussianCase1(rng.uniform(0.5, 2.0, 5), sigma=sigma)
        ds = fam.design_set(np.zeros(5))
        means = sigma**2 * ds.natural_params([sigma])[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _gauss.abs_third_moment(mu[finite], sigma)
            top = fam.max_third_abs_moment_T([sigma], ds)
        assert np.array_equal(got, want[finite])
        assert top == plain(means[np.argmax(np.abs(means))], sigma)

    @pytest.mark.parametrize("mu, sigma", [(1e200, 1.0), (1e155, 1.0), (0.0, 1e150), (1e120, 1e60)])
    def test_case1_overflowing_moment_reads_inf(self, mu, sigma):
        # mu^2 or sigma^2 overflows: the moment read nan (inf times 0) after
        # three RuntimeWarnings at mu = 1e200, where it is +inf
        fam = models.GaussianCase1([1.0], sigma=sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fam.max_third_abs_moment_T([mu], fam.design_set([0.0]))
        assert got == math.inf


class TestFixedDesignEntries:
    """Designs whose entries the family fixes differently raise DomainError
    wherever the family builds its index."""

    @staticmethod
    def malformed(name, entry, value, rng):
        fam, theta, ds = random_instance(name, rng, n=6)
        V = ds.V.copy()
        V[(3, *entry)] = value
        return fam, theta, type(ds)(V, ds.taus, ds.aux)

    @pytest.mark.parametrize(
        "name, entry, value",
        [
            ("gaussian-case3", (0, 1), 5.0),
            ("gaussian-case3", (1, 0), 0.1),
            ("gaussian-case3", (1, 1), -2.0),
            ("gaussian-case2", (0, 0), -2.0),
        ],
    )
    def test_every_route_raises(self, name, entry, value, rng):
        fam, theta, ds = self.malformed(name, entry, value, rng)
        data = CensoredDataset(np.tile([1, -1], 3), ds)
        calls = [
            lambda: fit(fam, data),
            lambda: fim_censored(fam, theta, ds),
            lambda: fim_uncensored(fam, theta, ds),
            lambda: dpi_check(fam, theta, ds),
            lambda: log_likelihood(fam, theta, data),
            lambda: likelihood.evaluate(fam, theta, data),
            lambda: fam.check_designs(ds),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="fixes V") as err:
                call()
            assert err.value.index == 3


    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 300),
        row=st.integers(0, 299),
        entry=st.sampled_from([(0, 1), (1, 0), (1, 1)]),
        value=st.floats(-1e300, 1e300),
    )
    @example(n=5, row=3, entry=(0, 1), value=-0.0)
    @example(n=5, row=3, entry=(1, 0), value=5e-324)
    @example(n=5, row=3, entry=(1, 1), value=-0.5)
    @example(n=5, row=4, entry=(1, 1), value=-0.5000000000000001)
    @example(n=300, row=299, entry=(1, 1), value=0.0)
    def test_case3_counted_check_names_the_masks_row(self, n, row, entry, value):
        # the check counts the fixed entries' non-zeros and builds the mask
        # only to name a row: the same error as the mask rule, at the same row
        row %= n
        fam = models.GaussianCase3(np.linspace(-1.0, 2.0, n))
        ds = fam.design_set(np.zeros(n))
        V = ds.V.copy()
        V[(row, *entry)] = value
        ds = types.DesignSet(V, ds.taus)
        bad = (V[:, 0, 1] != 0.0) | (V[:, 1, 0] != 0.0) | (V[:, 1, 1] != -0.5)
        if not bad.any():  # 0.0 or -0.0 off the diagonal, -0.5 on it
            fam.check_designs(ds)
            return
        i = int(np.argmax(bad))
        with pytest.raises(DomainError) as err:
            fam.check_designs(ds)
        assert err.value.index == i == row
        assert str(err.value) == f"gaussian-case3 fixes V = [[w, 0], [0, -1/2]], got {V[i].tolist()}"

    def test_case2_baseline_needs_the_known_means(self):
        # a typed error, not the TypeError of x - None
        with pytest.raises(DomainError, match="must carry the known means"):
            models.GaussianCase2([0.0, 1.0]).uncensored_mle(
                types.DesignSet(np.full((2, 1, 1), -0.5), [0.0, 1.0]), np.array([0.5, 1.5])
            )


class TestRowStandardization:
    """A Gaussian row's mean and sd read only the entry its family leaves free,
    and the mean has the bytes of the natural-parameter product."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        zero_w=st.sampled_from([None, 0.0, -0.0]),
        zero_alpha=st.sampled_from([None, 0.0, -0.0]),
    )
    def test_mean_is_the_natural_parameter_product(self, seed, zero_w, zero_alpha):
        rng = np.random.default_rng(seed)
        for name in ("gaussian-case1", "gaussian-case3"):
            fam, theta, ds = random_instance(name, rng)
            V = ds.V.copy()
            if zero_w is not None:
                V[0, 0, 0] = zero_w
            if zero_alpha is not None:
                theta[0] = zero_alpha
            ds = types.DesignSet(V, ds.taus)
            mean, sd = fam._mean_sd(theta, ds)
            if name == "gaussian-case1":
                want = fam.sigma**2 * ds.natural_params(theta)[:, 0], fam.sigma
            else:
                want = (1.0 / theta[1]) * ds.natural_params(theta)[:, 0], math.sqrt(1.0 / theta[1])
                # the fixed entries are never read
                V[:, 0, 1], V[:, 1, 0], V[:, 1, 1] = rng.normal(size=(3, ds.n))
                got = fam._mean_sd(theta, types.DesignSet(V, ds.taus))
                assert np.array_equal(got[0], mean) and got[1] == sd
            # array_equal: a zero mean may differ in its sign only
            assert np.array_equal(mean, want[0]) and sd == want[1]
            assert np.array_equal(fam._standardized(theta, ds)[2], (ds.taus - mean) / sd)


def _bad_thetas(fam, theta):
    """Thetas of the wrong shape, with a coordinate that is not finite, or
    with a positive coordinate at or below 0."""
    bad = [theta[:-1], np.append(theta, 1.0), theta[None, :]]
    for j, kind in enumerate(fam.domain):
        for value in (np.nan, np.inf, -np.inf, *((0.0, -1.0) if kind == "positive" else ())):
            bad.append(theta.copy())
            bad[-1][j] = value
    return bad


class TestOneDesignType:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_per_row_designs_raise(self, name, rng):
        """Per-row designs raise TypeError, and a theta outside the family's
        shape or domain raises DomainError, in every method that takes them."""
        fam, theta, ds = random_instance(name, rng, n=3)
        rows = [ds.subset(slice(i, i + 1)) for i in range(ds.n)]
        bits = np.ones(ds.n, dtype=np.int8)
        calls = [
            lambda t, d: fam.prob_leq(t, d),
            lambda t, d: fam.uncensored_information(t, d),
            lambda t, d: fam.cond_devs_T(t, d, bits),
            lambda t, d: fam.cond_mean_dev_T(t, d, bits),
            lambda t, d: fam.max_third_abs_moment_T(t, d),
            lambda t, d: fam.sample(t, d, np.random.default_rng(0)),
            lambda t, d: fim_censored(fam, t, d),
            lambda t, d: fim_uncensored(fam, t, d),
        ]
        for call in calls:
            for bad in _bad_thetas(fam, theta):
                with pytest.raises(DomainError):
                    call(bad, ds)
        calls.append(lambda t, d: fam.uncensored_mle(d, np.ones(ds.n)))
        if type(fam).check_designs is not ModelFamily.check_designs:
            calls.append(lambda t, d: fam.check_designs(d))
        for call in calls:
            with pytest.raises(TypeError, match="DesignSet"):
                call(theta, rows)
            call(theta, ds)


def _case2_without_means():
    models.GaussianCase2([0.0]).check_designs(types.DesignSet(np.full((1, 1, 1), -0.5), [1.0]))


def _poisson_root_beyond_float_rates():
    # the root of 2 exp(2 theta) + exp(theta) = 2e300 is near 345, but the
    # doubled bracket's next end, 512, takes exp(1024) first
    fam = models.PoissonModel([1.0, 2.0])
    fam.uncensored_mle(fam.design_set([0.0, 0.0]), np.array([0.0, 1e300]))


#: (call, error type, message) of input errors that the other tests never raise
RARE_FAMILY_ERRORS = [
    *(
        pytest.param(
            lambda sigma=sigma: models.GaussianCase1([1.0], sigma=sigma),
            DomainError, "sigma must be strictly positive", id=f"case1-sigma-{sigma}",
        )
        for sigma in (0.0, -1.0)
    ),
    pytest.param(
        lambda: models.GaussianCase1([1.0, math.nan], sigma=1.0), DomainError,
        "weights must be finite", id="case1-weights",
    ),
    pytest.param(
        lambda: models.GaussianCase2([math.inf]), DomainError, "means must be finite",
        id="case2-means",
    ),
    pytest.param(
        lambda: models.GaussianCase3([-math.inf]), DomainError, "weights must be finite",
        id="case3-weights",
    ),
    pytest.param(
        lambda: models.PoissonModel([math.nan]), DomainError, "covariates must be finite",
        id="poisson-covariates",
    ),
    pytest.param(
        lambda: models.GaussianCase1([1.0, 2.0], sigma=1.0).design_set([0.0]), ValueError,
        "need one threshold per weight", id="case1-threshold-count",
    ),
    pytest.param(
        lambda: models.GaussianCase2([1.0]).design_set([0.0, 1.0]), ValueError,
        "need one threshold per mean", id="case2-threshold-count",
    ),
    pytest.param(
        lambda: models.GaussianCase3([1.0, 2.0]).design_set([0.0, 1.0, 2.0]), ValueError,
        "need one threshold per weight", id="case3-threshold-count",
    ),
    pytest.param(
        lambda: models.PoissonModel([1.0]).design_set([]), ValueError,
        "need one threshold per covariate", id="poisson-threshold-count",
    ),
    pytest.param(
        _case2_without_means, DomainError,
        "gaussian-case2 designs must carry the known means as aux", id="case2-no-aux",
    ),
    *(
        pytest.param(
            lambda fam=fam: fam.uncensored_mle(fam.design_set([0.0, 1.0]), np.array([0.5, 2.0])),
            bitglm.NonIdentifiable, "all weights are zero", id=f"{fam.name}-zero-weights",
        )
        for fam in (models.GaussianCase1([0.0, 0.0], sigma=1.0), models.GaussianCase3([0.0, 0.0]))
    ),
    pytest.param(
        lambda fam=models.GaussianCase2([0.0, 1.0]): fam.uncensored_mle(
            fam.design_set([0.0, 0.0]), np.array([0.0, 1.0])
        ),
        bitglm.NonIdentifiable, "zero empirical variance", id="case2-zero-variance",
    ),
    pytest.param(
        _poisson_root_beyond_float_rates, NumericalError,
        "poisson rates overflow before the root is bracketed", id="poisson-rate-overflow",
    ),
]


@pytest.mark.parametrize("call, error, message", RARE_FAMILY_ERRORS)
def test_rare_family_errors(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


class TestRegistry:
    def test_stable_names(self):
        assert set(models.REGISTRY) == {
            "gaussian-case1",
            "gaussian-case2",
            "gaussian-case3",
            "poisson",
        }

    def test_moment_labels_are_the_parameters_a_fit_estimates(self, rng):
        labels = {name: random_instance(name, rng)[0].moment_labels() for name in MODEL_NAMES}
        assert labels == {
            "gaussian-case1": ("alpha",),
            "gaussian-case2": ("sigma",),
            "gaussian-case3": ("alpha", "sigma"),
            "poisson": ("theta",),
        }


class TestPublicSurface:
    MOVED = (
        "case1_fim",
        "case1_uncensored_fim",
        "case2_fim",
        "case2_uncensored_fim",
        "case3_fim",
        "case3_uncensored_fim",
        "poisson_fim",
        "poisson_uncensored_fim",
        "poisson_conditional_mean",
        "gaussian_conditional_moments",
        "information_positivity_check",
        "InformationPositivityReport",
        "fim_numeric_oracle",
        "negative_expected_hessian",
        "_sandwich",
    )

    def test_every_export_resolves(self):
        for name in bitglm.__all__:
            getattr(bitglm, name)

    def test_the_contract_is_the_index_route(self):
        assert ModelFamily.__abstractmethods__ == {
            "index_regressors",
            "index_link",
            "index_weight",
            "uncensored_information",
            "max_third_abs_moment_T",
            "sample",
            "uncensored_mle",
            "initial_point",
        }
        # the domain is a class attribute, set where it is not unbounded
        owners = [cls.name for cls in models.REGISTRY.values() if "domain" in vars(cls)]
        assert owners == ["gaussian-case2", "gaussian-case3"]
        assert ModelFamily.domain == ("unbounded",)

    def test_the_domain_has_one_carrier(self):
        # an estimate is a plain array and check_theta the one domain check
        for owner, names in (
            (bitglm, ("ParameterVector", "check_domain", "DOMAIN_KINDS")),
            (types, ("ParameterVector", "check_domain", "DOMAIN_KINDS")),
            (ModelFamily, ("parameter_vector",)),
        ):
            stale = [name for name in names if hasattr(owner, name)]
            assert not stale, f"{owner.__name__} still has {stale}"
        assert "ParameterVector" not in bitglm.__all__

    def test_test_oracles_are_not_exported(self):
        for owner in (bitglm, models, fisher):
            stale = [name for name in self.MOVED if hasattr(owner, name)]
            assert not stale, f"{owner.__name__} still has {stale}"
        for cls in (ModelFamily, *models.REGISTRY.values()):
            for name in ("log_partition", "conditional_mean_T", "conditional_cov_T", "cov_T"):
                assert not hasattr(cls, name), f"{cls.__name__}.{name}"


class TestLogPartition:
    """E[T_i] and Cov(T_i) are the gradient and Hessian of phi in eta_i."""

    @staticmethod
    def _close(got, want, label):
        # rtol 1e-6, and the same relative to the row's largest entry for
        # entries that vanish with the mean
        assert_allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(want).max(), err_msg=label)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_derivatives_are_the_moments(self, name, rng):
        for _ in range(10):
            fam, theta, ds = random_instance(name, rng)
            eta = ds.natural_params(theta)
            mean, cov = mean_statistic(fam, eta), cov_statistic(fam, eta)
            for i in range(ds.n):

                def phi(e):
                    return log_partition(fam, e[None, :])[0]

                self._close(fd_gradient(phi, eta[i]), mean[i], f"{name} mean, row {i}")
                # nested differences: steps of 3e-5 balance the truncation
                # error against the rounding that the outer step amplifies
                hess = fd_jacobian(lambda e: fd_gradient(phi, e, step=3e-5), eta[i], step=3e-5)
                self._close(hess, cov[i], f"{name} covariance, row {i}")
