"""Agreement of the independent information routes, PSD structure, and the
censoring information inequality."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bitglm import DegenerateThreshold, dpi_check, fim_censored, fim_uncensored, models
from conftest import MODEL_NAMES, random_instance
from _oracles import (
    case1_fim,
    case1_uncensored_fim,
    case2_fim,
    case2_uncensored_fim,
    case3_fim,
    case3_uncensored_fim,
    deviation_fim,
    fim_numeric_oracle,
    negative_expected_hessian,
    poisson_fim,
    poisson_uncensored_fim,
)


def closed_form(family, theta, designs):
    if isinstance(family, models.GaussianCase1):
        return np.array([[case1_fim(family, theta[0], designs.taus)]])
    if isinstance(family, models.GaussianCase2):
        return np.array(
            [[case2_fim(family, 1.0 / math.sqrt(theta[0]), designs.taus)]]
        )
    if isinstance(family, models.GaussianCase3):
        alpha, sigma2 = models.GaussianCase3.alpha_sigma2_from_natural(theta)
        return case3_fim(family, alpha, math.sqrt(sigma2), designs.taus)
    return np.array([[poisson_fim(family, theta[0], designs.taus)]])


def closed_form_uncensored(family, theta):
    if isinstance(family, models.GaussianCase1):
        return np.array([[case1_uncensored_fim(family)]])
    if isinstance(family, models.GaussianCase2):
        return np.array([[case2_uncensored_fim(family, 1.0 / math.sqrt(theta[0]))]])
    if isinstance(family, models.GaussianCase3):
        alpha, sigma2 = models.GaussianCase3.alpha_sigma2_from_natural(theta)
        return case3_uncensored_fim(family, alpha, math.sqrt(sigma2))
    return np.array([[poisson_uncensored_fim(family, theta[0])]])


def rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return np.abs(a - b).max() / scale


class TestRouteAgreement:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_four_routes_agree(self, name, rng):
        for _ in range(50):
            fam, theta, ds = random_instance(name, rng)
            j = fim_censored(fam, theta, ds).matrix
            routes = {
                "closed": closed_form(fam, theta, ds),
                "score-enumeration": fim_numeric_oracle(fam, theta, ds).matrix,
                "curvature": negative_expected_hessian(fam, theta, ds).matrix,
            }
            for label, m in routes.items():
                assert rel_err(j, m) <= 1e-10, f"{label} route disagrees for {name}"

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_index_weight_matches_the_deviation_route(self, name, rng):
        # X^T diag(w) X taken to theta against the rank-one covariance of
        # E[T | B] from the mean deviations at both bits
        for _ in range(100):
            fam, theta, ds = random_instance(name, rng)
            j = fim_censored(fam, theta, ds).matrix
            assert rel_err(j, deviation_fim(fam, theta, ds).matrix) <= 1e-13

    def test_two_point_determinant(self):
        fam = models.GaussianCase3([1.0, 1.0])
        theta = models.GaussianCase3.natural_from_alpha_sigma2(1.0, 1.0)
        ds = fam.design_set([-1.0, 2.0])
        assert fim_censored(fam, theta, ds).determinant == pytest.approx(0.1294, abs=5e-4)
        assert fim_numeric_oracle(fam, theta, ds).determinant == pytest.approx(
            0.1294, abs=5e-4
        )

    def test_zero_design_gives_zero_matrix(self):
        fam = models.GaussianCase1([0.0, 0.0], sigma=1.0)
        ds = fam.design_set([0.2, -0.4])
        assert np.all(fim_numeric_oracle(fam, [0.5], ds).matrix == 0.0)

    def test_single_two_parameter_observation_is_rank_one(self):
        fam = models.GaussianCase3([1.2])
        theta = models.GaussianCase3.natural_from_alpha_sigma2(0.5, 0.8)
        r = fim_censored(fam, theta, fam.design_set([0.9]))
        eigs = np.linalg.eigvalsh(r.matrix)
        assert abs(r.determinant) < 1e-14
        assert eigs[0] == pytest.approx(0.0, abs=1e-14)


class TestPsdAndStructure:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_min_eigenvalues(self, name, rng):
        for _ in range(25):
            fam, theta, ds = random_instance(name, rng)
            assert fim_censored(fam, theta, ds).min_eigenvalue >= -1e-10
            assert fim_uncensored(fam, theta, ds).min_eigenvalue >= -1e-10

    def test_per_observation_terms(self, rng):
        # every BLAS-assembled total against the summed per-row sandwich
        # V_i^T inner_i V_i
        for name in MODEL_NAMES:
            fam, theta, ds = random_instance(name, rng, n=1000)
            f = fam.prob_leq(theta, ds)
            plus = np.ones(ds.n, dtype=np.int8)
            m_p = fam.cond_mean_dev_T(theta, ds, plus)
            m_m = fam.cond_mean_dev_T(theta, ds, -plus)
            c_p = fam.cond_devs_T(theta, ds, plus)[1]
            c_m = fam.cond_devs_T(theta, ds, -plus)[1]
            fw = f[:, None, None]
            inners = {
                fim_censored: (
                    np.einsum("nd,ne->nde", m_p, m_p) * fw
                    + np.einsum("nd,ne->nde", m_m, m_m) * (1.0 - fw)
                ),
                fim_uncensored: fam.cov_T(theta, ds),
                negative_expected_hessian: -(c_p * fw + c_m * (1.0 - fw)),
            }
            for route, inner in inners.items():
                label = f"{route.__name__} for {name}"
                sandwich = np.einsum("ndk,nde,nel->nkl", ds.V, inner, ds.V)
                r = route(fam, theta, ds)
                assert_allclose(r.matrix, sandwich.sum(axis=0), rtol=1e-12, err_msg=label)

    def test_additivity_over_concatenation(self, rng):
        fam_a, theta, ds_a = random_instance("gaussian-case1", rng, n_max=4)
        w_b = rng.uniform(0.5, 1.5, 3)
        fam_b = models.GaussianCase1(w_b, sigma=fam_a.sigma)
        ds_b = fam_b.design_set(rng.uniform(-1, 1, 3))
        both = models.GaussianCase1(
            np.concatenate([fam_a.weights, w_b]), sigma=fam_a.sigma
        )
        ds = both.design_set(np.concatenate([ds_a.taus, ds_b.taus]))
        total = fim_censored(both, theta, ds).matrix
        parts = fim_censored(fam_a, theta, ds_a).matrix + fim_censored(fam_b, theta, ds_b).matrix
        assert_allclose(total, parts, rtol=1e-13)

    def test_degenerate_threshold_names_the_design(self):
        fam = models.PoissonModel([1.0, 1.0])
        ds = fam.design_set([1.0, 500.0])
        with pytest.raises(DegenerateThreshold) as err:
            fim_censored(fam, [0.0], ds)
        assert err.value.index == 1

    def test_poisson_far_tail_keeps_its_information(self):
        # a bit of probability ~1e-20 still carries finite information
        fam = models.PoissonModel([1.0])
        got = fim_censored(fam, [0.0], fam.design_set([20.0])).matrix[0, 0]
        assert_allclose(got, poisson_fim(fam, 0.0, [20.0]), rtol=1e-12)
        assert_allclose(got, 3.0313723275105805e-18, rtol=1e-12)

    def test_gaussian_far_tail_keeps_its_information(self):
        # 1 - F(9) rounds away in F, yet the information is finite
        fam = models.GaussianCase1([1.0], sigma=1.0)
        for tau, size in ((9.0, 9.36e-18), (20.0, 1.1e-86)):
            got = fim_censored(fam, [0.0], fam.design_set([tau])).matrix[0, 0]
            assert_allclose(got, case1_fim(fam, 0.0, [tau]), rtol=1e-12)
            assert_allclose(got, size, rtol=1e-2)


class TestUncensoredSpots:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_closed_forms_match_the_sandwich(self, name, rng):
        for _ in range(25):
            fam, theta, ds = random_instance(name, rng)
            assert_allclose(
                closed_form_uncensored(fam, theta),
                fim_uncensored(fam, theta, ds).matrix,
                rtol=1e-12,
            )

    def test_gaussian_known_variance(self):
        fam = models.GaussianCase1([1.0, 1.0, 1.0], sigma=1.0)
        r = fim_uncensored(fam, [0.4], fam.design_set([0.0, 0.0, 0.0]))
        assert_allclose(r.matrix[0, 0], 3.0, rtol=1e-14)

    def test_poisson_unit_rate(self):
        fam = models.PoissonModel(np.ones(7))
        r = fim_uncensored(fam, [0.0], fam.design_set(np.zeros(7)))
        # per observation the statistic's variance is the rate itself; with
        # unit covariates the total is n. cross-checked by pmf summation
        lam = 1.0
        pmf = [math.exp(-lam) * lam**x / math.factorial(x) for x in range(60)]
        var = sum(x * x * p for x, p in enumerate(pmf)) - sum(
            x * p for x, p in enumerate(pmf)
        ) ** 2
        assert_allclose(r.matrix[0, 0], 7 * var, rtol=1e-12)
        assert_allclose(r.matrix[0, 0], 7.0, rtol=1e-12)

    def test_two_parameter_gaussian_single_observation(self):
        # Cov(T) for T=(x, x^2) at mu=2, sigma=1 is [[1, 4], [4, 18]]
        fam = models.GaussianCase3([1.0])
        theta = models.GaussianCase3.natural_from_alpha_sigma2(2.0, 1.0)
        r = fim_uncensored(fam, theta, fam.design_set([0.0]))
        cov = np.array([[1.0, 4.0], [4.0, 18.0]])
        v = np.array([[1.0, 0.0], [0.0, -0.5]])
        assert_allclose(r.matrix, v.T @ cov @ v, rtol=1e-13)


class TestDataProcessingInequality:
    def test_optimal_threshold_gap_closed_form(self):
        fam = models.GaussianCase1([1.0, 2.0], sigma=1.5)
        alpha = 0.7
        taus = models.case1_optimal_thresholds(fam, alpha)
        report = dpi_check(fam, [alpha], fam.design_set(taus))
        want_gap = (1 - 2 / math.pi) / fam.sigma**2 * float(np.sum(fam.weights**2))
        got_gap = report.uncensored.matrix[0, 0] - report.censored.matrix[0, 0]
        assert_allclose(got_gap, want_gap, rtol=1e-12)
        assert report.passed
        assert report.min_eigenvalue_gap > 0

    def test_zero_designs_trivially_pass(self):
        fam = models.GaussianCase1([0.0], sigma=1.0)
        report = dpi_check(fam, [0.3], fam.design_set([0.1]))
        assert report.passed
        assert report.min_eigenvalue_gap == 0.0

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_randomized(self, name, rng):
        for _ in range(40):
            fam, theta, ds = random_instance(name, rng)
            assert dpi_check(fam, theta, ds).passed
