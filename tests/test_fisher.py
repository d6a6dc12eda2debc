"""Agreement of the independent information routes, PSD structure, and the
censoring information inequality."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bitglm import (
    DegenerateThreshold,
    DesignSet,
    DomainError,
    DpiReport,
    FimResult,
    NumericalError,
    _gauss,
    dpi_check,
    fim_censored,
    fim_sweep,
    fim_uncensored,
    models,
)
from conftest import MODEL_NAMES, random_instance
from _oracles import (
    case1_fim,
    case1_uncensored_fim,
    case2_fim,
    case2_uncensored_fim,
    case3_fim,
    case3_uncensored_fim,
    cov_statistic,
    deviation_fim,
    fim_numeric_oracle,
    negative_expected_hessian,
    poisson_fim,
    poisson_uncensored_fim,
    uncensored_sandwich,
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
                fim_uncensored: cov_statistic(fam, ds.natural_params(theta)),
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
    def test_family_closed_form_matches_the_sandwich_oracle(self, name, rng):
        # sum_i V_i^T Cov(T_i) V_i from the per-row covariance stack
        for _ in range(50):
            fam, theta, ds = random_instance(name, rng)
            want = uncensored_sandwich(fam, theta, ds).matrix
            assert_allclose(fim_uncensored(fam, theta, ds).matrix, want, rtol=1e-13)

    @pytest.mark.parametrize(
        "family", [models.GaussianCase1([1.0], sigma=1.7), models.PoissonModel([1.0])]
    )
    def test_varied_designs_match_the_sandwich_oracle(self, family, rng):
        # free designs of either sign and a wide spread of magnitudes
        for n in (1, 7, 1000):
            V = rng.normal(size=(n, 1, 1)) * np.exp(rng.uniform(-3.0, 1.5, (n, 1, 1)))
            ds = DesignSet(V, rng.uniform(0.0, 5.0, n))
            theta = np.array([rng.uniform(-1.0, 1.0)])
            want = uncensored_sandwich(family, theta, ds).matrix
            assert_allclose(fim_uncensored(family, theta, ds).matrix, want, rtol=1e-13)

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

    @pytest.mark.parametrize("sigma", [1e-150, 1e150])
    def test_gaussian_known_variance_at_extreme_sigma(self, sigma):
        # sigma^2 sum V_i^2, with V = w / sigma^2, read inf at sigma = 1e-150
        # and 0 at 1e150, with a RuntimeWarning, where the information
        # sum (sigma V_i)^2 = 2 / sigma^2 is 2e300 and 2e-300
        fam = models.GaussianCase1([1.0, 1.0], sigma=sigma)
        ds = fam.design_set([-sigma, sigma])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = dpi_check(fam, [0.0], ds)
        assert_allclose(report.uncensored.matrix[0, 0], case1_uncensored_fim(fam), rtol=1e-15)
        assert_allclose(report.censored.matrix[0, 0], case1_fim(fam, 0.0, ds.taus), rtol=1e-14)
        ratio = report.censored.matrix[0, 0] / report.uncensored.matrix[0, 0]
        assert_allclose(ratio, float(_gauss.fim_weight(1.0)), rtol=1e-14)
        assert report.passed and report.min_eigenvalue_gap > 0.0

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


def sweep_by_points(fam, theta, ds, index, grid):
    """``fim_censored`` at each grid point in turn, skipping a point that
    raises DegenerateThreshold or NumericalError."""
    rows = []
    for tau in grid:
        taus = ds.taus.copy()
        taus[index] = tau
        try:
            rows.append((float(tau), fim_censored(fam, theta, DesignSet(ds.V, taus, ds.aux))))
        except (DegenerateThreshold, NumericalError):
            continue
    return rows


class TestSweep:
    @staticmethod
    def check(fam, theta, ds, index, grid):
        got = fim_sweep(fam, theta, ds, index, grid)
        want = sweep_by_points(fam, theta, ds, index, grid)
        assert [tau for tau, _ in got] == [tau for tau, _ in want]
        for (tau, a), (_, b) in zip(got, want):
            assert rel_err(a.matrix, b.matrix) <= 1e-12, f"tau = {tau}"
        return got

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_the_per_point_loop(self, name, rng):
        for n in (1, 2, 6, 200):  # n = 1: no other rows, the base is 0
            fam, theta, ds = random_instance(name, rng, n=n)
            index = int(rng.integers(n))
            if name == "poisson":
                grid = np.arange(0.0, 12.0, 0.5)
            else:
                grid = ds.taus[index] + np.linspace(-3.0, 3.0, 25)
            assert len(self.check(fam, theta, ds, index, grid)) == len(grid)

    def test_degenerate_point_is_skipped(self):
        # P(X > 500) is 0 at rate 1: that point's bit is deterministic
        fam = models.PoissonModel([1.0, 0.5, 1.0])
        ds = fam.design_set([1.0, 2.0, 0.0])
        got = self.check(fam, [0.0], ds, 1, [0.0, 500.0, 3.0])
        assert [tau for tau, _ in got] == [0.0, 3.0]

    def test_degenerate_other_row_empties_the_sweep(self):
        fam = models.PoissonModel([1.0, 1.0])
        ds = fam.design_set([500.0, 2.0])
        assert self.check(fam, [0.0], ds, 1, [0.0, 1.0, 2.0]) == []

    def test_rate_beyond_the_supported_range_empties_the_sweep(self):
        fam = models.PoissonModel([1.0])
        theta = [math.log(2.0 * models.PoissonModel.MAX_RATE)]
        assert self.check(fam, theta, fam.design_set([1.0]), 0, [0.0, 1.0]) == []

    def test_information_overflowing_in_theta_empties_the_sweep(self):
        # finite in the index parameter 1/sigma, about sigma^4 in theta
        fam = models.GaussianCase2(means=[0.0, 0.0])
        ds = fam.design_set([-1e150, 1e150])
        with pytest.raises(NumericalError, match="information in theta overflows"):
            fim_censored(fam, [1e-300], ds)
        assert self.check(fam, [1e-300], ds, 1, [1e150, 2e150]) == []

    def test_domain_error_propagates(self):
        fam = models.PoissonModel([1.0, 1.0])
        with pytest.raises(DomainError):
            fim_sweep(fam, [0.0], fam.design_set([1.0, 2.0]), 0, [1.0, -1.0])


class TestFig1Design:
    def test_the_first_threshold_is_d_optimal(self):
        # fig1's two-point mixture puts half the thresholds at the mean 2.0
        # and half at 0.42: the first threshold that maximizes det of the
        # censored information at (alpha, sigma) = (2, 1), to two decimals.
        # D-optimality does not depend on the parameterization
        from scipy.optimize import minimize_scalar

        fam = models.GaussianCase3(np.ones(2))
        theta0 = models.GaussianCase3.natural_from_alpha_sigma2(2.0, 1.0)
        best = minimize_scalar(
            lambda a: -fim_censored(fam, theta0, fam.design_set([a, 2.0])).determinant,
            bounds=(-2.0, 2.0), method="bounded", options={"xatol": 1e-8},
        )
        assert best.x == pytest.approx(0.42496, abs=1e-5)
        assert round(best.x, 2) == 0.42


class TestFimResult:
    def test_holds_its_matrix_alone_read_only(self):
        fam = models.GaussianCase3([1.0, 1.0])
        theta = models.GaussianCase3.natural_from_alpha_sigma2(1.0, 1.0)
        report = dpi_check(fam, theta, fam.design_set([-1.0, 2.0]))
        assert [f.name for f in dataclasses.fields(FimResult)] == ["matrix"]
        assert [f.name for f in dataclasses.fields(DpiReport)] == ["censored", "uncensored"]
        for info in (report.censored, report.uncensored):
            assert not info.matrix.flags.writeable
            assert info.min_eigenvalue == np.linalg.eigvalsh(info.matrix)[0]
        gap = np.linalg.eigvalsh(report.uncensored.matrix - report.censored.matrix)[0]
        assert report.min_eigenvalue_gap == gap

    def test_one_by_one_reads_its_entry_as_eigvalsh_does(self, rng):
        # k = 1 reads the entry, without eigvalsh; both agree on every value
        values = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-300.0, 300.0, 20_000)
        values[:7] = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
        others = rng.permutation(values)
        for a, b in zip(values, others):
            info = FimResult(np.array([[a]]))
            want = np.linalg.eigvalsh(np.array([[a]]))[0]
            assert np.array_equal(info.min_eigenvalue, want, equal_nan=True)
            with np.errstate(invalid="ignore"):
                gap = DpiReport(FimResult(np.array([[b]])), info).min_eigenvalue_gap
                want = np.linalg.eigvalsh(np.array([[a - b]]))[0]
            assert np.array_equal(gap, want, equal_nan=True)
            assert np.signbit(gap) == np.signbit(want)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_determinant(self, k):
        # exact arithmetic for k <= 2, numpy's LU beyond
        m = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])[:k, :k]
        want = {1: 4.0, 2: 11.0, 3: np.linalg.det(m)}[k]
        assert FimResult(m.copy()).determinant == want
        assert FimResult(m.copy()).k == k


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
