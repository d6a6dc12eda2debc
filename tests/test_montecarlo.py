"""Data generation statistics, experiment reproducibility, and the
condition checker."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from bitglm import (
    ExperimentFailure,
    FitConfig,
    models,
    montecarlo,
)
from bitglm.montecarlo import (
    ExperimentConfig,
    ThresholdRule,
    WeightsRule,
    check_asymptotic_normality,
    check_consistency_conditions,
    generate_and_censor,
    run_mse_experiment,
)
from conftest import random_instance


def case1_config(**overrides):
    base = dict(
        model="gaussian-case1",
        true_params={"alpha": 0.5, "sigma": 1.0},
        weights=WeightsRule(kind="constant", value=1.0),
        thresholds=ThresholdRule(kind="fixed", value=0.5),
        sample_sizes=(250, 500),
        trials=40,
        seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGenerateAndCensor:
    def test_median_threshold_fraction(self):
        n = 100_000
        fam = models.GaussianCase1(np.ones(n), sigma=1.0)
        data = generate_and_censor(fam, [2.0], fam.design_set(np.full(n, 2.0)), 7)
        assert np.mean(data.bits > 0) == pytest.approx(0.5, abs=0.005)

    def test_poisson_zero_threshold_fraction(self):
        n = 100_000
        fam = models.PoissonModel(np.ones(n))
        data = generate_and_censor(fam, [0.0], fam.design_set(np.zeros(n)), 7)
        assert np.mean(data.bits > 0) == pytest.approx(math.exp(-1), abs=0.005)

    def test_deterministic_under_seed(self):
        fam = models.GaussianCase1(np.ones(64), sigma=1.0)
        ds = fam.design_set(np.linspace(-1, 1, 64))
        a = generate_and_censor(fam, [0.2], ds, 11)
        b = generate_and_censor(fam, [0.2], ds, 11)
        assert np.array_equal(a.bits, b.bits)

    @pytest.mark.parametrize("name", ["gaussian-case2", "gaussian-case3", "poisson"])
    def test_fraction_within_three_binomial_errors(self, name, rng):
        for _ in range(8):
            fam, theta, ds_small = random_instance(name, rng, n_max=3)
            reps = 4000
            if name == "gaussian-case2":
                fam = models.GaussianCase2(np.tile(fam.means, reps))
            elif name == "gaussian-case3":
                fam = models.GaussianCase3(np.tile(fam.weights, reps))
            else:
                fam = models.PoissonModel(np.tile(fam.covariates, reps))
            ds = fam.design_set(np.tile(ds_small.taus, reps))
            data = generate_and_censor(fam, theta, ds, int(rng.integers(1 << 31)))
            p = fam.prob_leq(theta, ds)
            want = float(np.mean(p))
            got = float(np.mean(data.bits > 0))
            stderr = math.sqrt(max(np.mean(p * (1 - p)), 1e-12) / ds.n)
            assert abs(got - want) <= 3.5 * stderr + 1e-9


class TestUncensoredMle:
    def test_known_variance_mean(self):
        fam = models.GaussianCase1([1.0, 2.0], sigma=1.0)
        ds = fam.design_set([0.0, 0.0])
        got = fam.uncensored_mle(ds, np.array([1.0, 4.0]))
        assert_allclose(got, [(1.0 + 8.0) / 5.0])

    def test_known_mean_precision(self):
        fam = models.GaussianCase2(means=[1.0, 1.0, 1.0])
        ds = fam.design_set([0.0, 0.0, 0.0])
        x = np.array([0.0, 1.0, 3.0])
        got = fam.uncensored_mle(ds, x)
        assert_allclose(got, [3.0 / 5.0])

    def test_two_parameter_gaussian(self):
        fam = models.GaussianCase3(np.ones(4))
        ds = fam.design_set(np.zeros(4))
        x = np.array([1.0, 2.0, 3.0, 6.0])
        alpha = x.mean()
        sigma2 = np.mean((x - alpha) ** 2)  # biased, MLE convention
        got = fam.uncensored_mle(ds, x)
        assert_allclose(got, models.GaussianCase3.natural_from_alpha_sigma2(alpha, sigma2))

    def test_poisson_constant_covariates(self):
        fam = models.PoissonModel([2.0, 2.0])
        ds = fam.design_set([1.0, 1.0])
        got = fam.uncensored_mle(ds, np.array([3.0, 5.0]))
        assert_allclose(got, [math.log(4.0) / 2.0])

    def test_poisson_general_covariates(self):
        fam = models.PoissonModel([1.0, 2.0, 0.5])
        ds = fam.design_set([1.0, 1.0, 1.0])
        x = np.array([2.0, 7.0, 1.0])
        theta = fam.uncensored_mle(ds, x)[0]
        v = np.array([1.0, 2.0, 0.5])
        assert_allclose(float(v @ x), float(v @ np.exp(v * theta)), rtol=1e-10)


class TestMseExperiment:
    def test_reproducible_tables(self):
        cfg = case1_config()
        a = run_mse_experiment(cfg)
        b = run_mse_experiment(cfg)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_error_decreases_with_n(self):
        cfg = case1_config(sample_sizes=(100, 1600), trials=120)
        table = run_mse_experiment(cfg)
        assert table.rows[0].mse > table.rows[1].mse
        assert all(r.failures == 0 for r in table.rows)
        slope = table.loglog_slope()
        assert slope == pytest.approx(-1.0, abs=0.5)

    def test_csv_shape(self):
        table = run_mse_experiment(case1_config(trials=3))
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,mse,mc_stderr,failures"
        assert len(lines) == 3

    def test_natural_vs_moment_metric_differ_for_two_parameters(self):
        shared = dict(
            model="gaussian-case3",
            true_params={"alpha": 2.0, "sigma": 1.0},
            weights=WeightsRule(kind="constant", value=1.0),
            thresholds=ThresholdRule(
                kind="two-point", values=(0.42, 2.0), probabilities=(0.5, 0.5)
            ),
            sample_sizes=(400,),
            trials=25,
            seed=5,
            fit=FitConfig(),
        )
        nat = run_mse_experiment(ExperimentConfig(error_metric="natural-coordinates", **shared))
        mom = run_mse_experiment(ExperimentConfig(error_metric="moment-coordinates", **shared))
        assert nat.rows[0].mse != mom.rows[0].mse

    def test_failure_budget_enforced(self):
        # uncensored poisson with rate so small every draw is zero
        cfg = ExperimentConfig(
            model="poisson",
            true_params={"theta": -8.0},
            weights=WeightsRule(kind="constant", value=1.0),
            thresholds=ThresholdRule(kind="fixed", value=1.0),
            sample_sizes=(20,),
            trials=10,
            seed=1,
            estimator="uncensored",
        )
        with pytest.raises(ExperimentFailure):
            run_mse_experiment(cfg)

    def test_config_validation(self):
        from bitglm import ConfigError

        with pytest.raises(ConfigError):
            case1_config(sample_sizes=(500, 250))
        with pytest.raises(ConfigError):
            case1_config(trials=0)
        with pytest.raises(ConfigError):
            case1_config(model="gaussian-case9")
        with pytest.raises(ConfigError):
            case1_config(error_metric="other")

    @pytest.mark.parametrize("budget", [-0.1, 1.0, 1.5, math.nan])
    def test_failure_budget_must_be_a_fraction_below_one(self, budget):
        from bitglm import ConfigError

        with pytest.raises(ConfigError, match="max_failure_fraction"):
            case1_config(max_failure_fraction=budget)

    def test_no_converged_trial_raises_at_the_largest_budget(self):
        # every trial of a two-row case-1 dataset at seed 0 is separated:
        # no mean may be formed, whatever the budget
        cfg = case1_config(sample_sizes=(2,), trials=1, seed=0, max_failure_fraction=0.99)
        with pytest.raises(ExperimentFailure, match="1/1 trials failed at n=2"):
            run_mse_experiment(cfg)

    def test_precision_model_error_shrinks_like_one_over_n(self):
        cfg = ExperimentConfig(
            model="gaussian-case2",
            true_params={"sigma": 1.0},
            weights=WeightsRule(kind="constant", value=0.0),  # known means
            thresholds=ThresholdRule(kind="iid-uniform", low=-2.0, high=2.0),
            sample_sizes=(400, 1600, 6400),
            trials=150,
            seed=31,
            error_metric="natural-coordinates",
            fit=FitConfig(),
        )
        table = run_mse_experiment(cfg)
        assert table.loglog_slope() == pytest.approx(-1.0, abs=0.3)

    def test_uncensored_baseline_hits_information_bound(self):
        cfg = case1_config(
            estimator="uncensored", sample_sizes=(2000,), trials=300, seed=9
        )
        table = run_mse_experiment(cfg)
        # variance of the weighted-mean estimator is sigma^2/n here
        assert table.rows[0].mse == pytest.approx(1.0 / 2000, rel=0.25)


class TestAsymptoticNormality:
    def test_single_trial_rejected(self):
        with pytest.raises(ValueError):
            check_asymptotic_normality(case1_config(), 100, 1)

    def test_one_converged_estimate_raises(self):
        # of two two-row trials at seed 0, trial 0 is separated and trial 1
        # converges: within a 50 % budget, but one estimate has no covariance
        cfg = case1_config(seed=0, max_failure_fraction=0.5)
        with pytest.raises(ExperimentFailure, match="1/2 trials converged"):
            check_asymptotic_normality(cfg, 2, 2)

    def test_scalar_family_matches_information(self):
        cfg = case1_config(
            thresholds=ThresholdRule(kind="fixed", value=0.5),
            fit=FitConfig(),
        )
        report = check_asymptotic_normality(cfg, 4000, 220)
        # optimal threshold: per-observation information 2/pi
        assert report.reference_cov[0, 0] == pytest.approx(math.pi / 2, rel=1e-6)
        assert report.rel_frobenius < 0.35
        assert report.failures == 0
        # |z|^3 absolute moment of a standard normal is ~1.5958
        assert abs(report.abs_third_moment[0] - 1.5958) < 1.0
        assert abs(report.skewness[0]) < 0.6
        assert abs(report.excess_kurtosis[0]) < 1.2

    def test_empirical_cov_is_that_of_the_run_trial_estimates(self):
        cfg = ExperimentConfig(
            model="gaussian-case3",
            true_params={"alpha": 2.0, "sigma": 1.0},
            weights=WeightsRule(kind="iid-uniform", low=0.5, high=1.5),
            thresholds=ThresholdRule(kind="iid-uniform", low=0.0, high=4.0),
            sample_sizes=(300,),
            trials=30,
            seed=8,
        )
        report = check_asymptotic_normality(cfg, 300, 30)
        outcomes = [montecarlo.run_trial(cfg, 300, trial) for trial in range(30)]
        estimates = [o.theta_hat for o in outcomes if o.status == "converged"]
        theta0 = models.GaussianCase3.natural_from_alpha_sigma2(2.0, 1.0)
        scaled = math.sqrt(300) * (np.array(estimates) - theta0)
        assert np.array_equal(report.empirical_cov, np.cov(scaled.T, ddof=1))
        assert report.failures == 30 - len(estimates)

    def test_uncensored_estimator_gets_the_uncensored_reference(self):
        # weights 1 and sigma 1: each raw observation carries information 1,
        # where its bit at the optimal threshold carries 2/pi
        cfg = case1_config(estimator="uncensored", sample_sizes=(500,), trials=20)
        report = check_asymptotic_normality(cfg, 500, 20)
        assert np.array_equal(report.reference_cov, [[1.0]])


class TestConditionChecker:
    def test_gaussian_mean_known_variance_witnesses(self):
        fam = models.GaussianCase1(np.ones(50), sigma=1.0)
        report = check_consistency_conditions(fam, [0.0], fam.design_set(np.zeros(50)))
        # E|X|^3 for a standard normal, by quadrature
        want, _ = quad(
            lambda x: abs(x) ** 3 * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            -np.inf,
            np.inf,
        )
        assert_allclose(report.max_third_abs_moment, want, rtol=1e-10)
        assert report.max_third_abs_moment == pytest.approx(2 * math.sqrt(2 / math.pi), rel=1e-12)
        assert report.max_design_norm == 1.0
        assert report.passed

    def test_zero_designs_fail_information_clause(self):
        fam = models.GaussianCase1(np.zeros(10), sigma=1.0)
        report = check_consistency_conditions(fam, [0.3], fam.design_set(np.zeros(10)))
        assert report.moments_bounded and report.designs_bounded
        assert not report.information_positive
        assert not report.passed

    def test_two_parameter_gaussian_with_continuous_thresholds(self):
        rng = np.random.default_rng(2)
        n = 600
        fam = models.GaussianCase3(np.ones(n))
        taus = rng.uniform(0.0, 3.0, n)
        theta = models.GaussianCase3.natural_from_alpha_sigma2(1.0, 1.0)
        report = check_consistency_conditions(fam, theta, fam.design_set(taus))
        assert report.information_positive
        assert report.passed
        assert report.prefix_drift < 0.5

    def test_poisson_moment_witness(self):
        fam = models.PoissonModel(np.ones(5))
        report = check_consistency_conditions(fam, [0.0], fam.design_set(np.ones(5)))
        assert report.max_third_abs_moment == pytest.approx(5.0, rel=1e-12)  # 1+3+1


class TestRules:
    def test_two_point_probabilities_validated(self):
        from bitglm import ConfigError

        with pytest.raises(ConfigError):
            ThresholdRule(kind="two-point", values=(1.0, 2.0), probabilities=(0.6, 0.6))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: WeightsRule(kind="list", values=()),
            lambda: WeightsRule(kind="constant"),
            lambda: WeightsRule(kind="constant", value=1.0, high=2.0),
            lambda: WeightsRule(kind="zigzag", value=1.0),
            lambda: ThresholdRule(kind="fixed"),
            lambda: ThresholdRule(kind="iid-normal", mu=0.0),
            lambda: ThresholdRule(kind="iid-uniform", low=0.0, high=1.0, sd=1.0),
            lambda: ThresholdRule(kind="two-point", values=(1.0, 2.0), probabilities=(1.0,)),
            lambda: ThresholdRule(kind="two-point", values=(), probabilities=()),
            lambda: ThresholdRule(kind="iid-gamma", mu=1.0, sd=1.0),
        ],
    )
    def test_invalid_rules_rejected_at_construction(self, make):
        from bitglm import ConfigError

        with pytest.raises(ConfigError):
            make()

    def test_weights_list_cycles(self):
        rule = WeightsRule(kind="list", values=(1.0, 2.0, 3.0))
        got = rule.draw(5, np.random.default_rng(0))
        assert_allclose(got, [1.0, 2.0, 3.0, 1.0, 2.0])

    def test_iid_rules_draw_within_range(self):
        rng = np.random.default_rng(0)
        taus = ThresholdRule(kind="iid-uniform", low=1.0, high=2.0).draw(100, rng)
        assert np.all((taus >= 1.0) & (taus <= 2.0))
        w = WeightsRule(kind="iid-uniform", low=-1.0, high=1.0).draw(100, rng)
        assert np.all(np.abs(w) <= 1.0)
