"""Data generation statistics, experiment reproducibility, and the
condition checker."""

import dataclasses
import math
import pickle
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from bitglm import (
    CensoredDataset,
    ExperimentFailure,
    ModelFamily,
    NonIdentifiable,
    cli,
    fisher,
    models,
    montecarlo,
    types,
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

    @pytest.mark.parametrize(
        "name", ["gaussian-case1", "gaussian-case2", "gaussian-case3", "poisson"]
    )
    def test_dataset_is_the_public_constructors(self, name, rng):
        # the same draws through CensoredDataset's validation passes
        fam, theta, ds = random_instance(name, rng, n=50)
        got = generate_and_censor(fam, theta, ds, 5)
        x = fam.sample(theta, ds, np.random.default_rng(5))
        want = CensoredDataset(np.where(x <= ds.taus, 1, -1), ds)
        assert got.designs is ds
        for a, b in ((got.bits, want.bits), (got.counts, want.counts)):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            flags = ("writeable", "c_contiguous", "f_contiguous", "owndata", "aligned")
            assert [getattr(a.flags, f) for f in flags] == [getattr(b.flags, f) for f in flags]

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

    @staticmethod
    def _mpmath_root(v, x):
        """The root of sum v (x - exp(v theta)) at 40 digits: 60 bisections of
        a bracket found by doubling, then Newton steps."""
        with mpmath.workdps(40):
            v, x = [mpmath.mpf(a) for a in v], [mpmath.mpf(a) for a in x]

            def g(t):
                return sum(a * (b - mpmath.exp(a * t)) for a, b in zip(v, x))

            lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
            while g(lo) < 0:
                lo *= 2
            while g(hi) > 0:
                hi *= 2
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
            t = (lo + hi) / 2
            for _ in range(4):
                t += g(t) / sum(a * a * mpmath.exp(a * t) for a in v)
            return float(t)

    def test_poisson_newton_overshoot_example(self):
        # Newton from 0 overshoots this root, at rates 149.3 and 0.29
        fam = models.PoissonModel([2.0, -0.5])
        theta = fam.uncensored_mle(fam.design_set([0.0, 0.0]), np.array([150.0, 3.0]))[0]
        assert theta == pytest.approx(self._mpmath_root([2.0, -0.5], [150.0, 3.0]), rel=1e-13)
        assert theta == pytest.approx(2.503051, abs=1e-6)

    def test_poisson_root_exactly_where_the_sign_test_finds_one(self):
        """sum v (x - exp(v theta)) falls strictly, so a root exists iff its
        limits have opposite signs: (some v > 0 or sum v x < 0) and (some
        v < 0 or sum v x > 0)."""
        rng = np.random.default_rng(20)
        found = absent = 0
        for draw in range(120):
            n = int(rng.integers(2, 30))
            v = rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.uniform(-1.0, 1.0, n)
            if draw % 3 == 0:
                v = np.abs(v) * rng.choice([-1.0, 1.0])  # one-signed covariates
            lam = np.exp(v * rng.uniform(-2.0, 2.0))
            x = rng.poisson(np.minimum(lam, 1e6)).astype(float)
            if draw % 4 == 0:
                x[:] = 0.0  # no root iff the covariates are one-signed
            fam = models.PoissonModel(v)
            designs = fam.design_set(np.zeros(n))
            s = float(v @ x)
            if (np.any(v > 0) or s < 0) and (np.any(v < 0) or s > 0):
                theta = fam.uncensored_mle(designs, x)[0]
                assert theta == pytest.approx(self._mpmath_root(v, x), rel=1e-12, abs=1e-15)
                found += 1
            else:
                with pytest.raises(NonIdentifiable):
                    fam.uncensored_mle(designs, x)
                absent += 1
        assert found > 80 and absent >= 10


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_sizes", (50.7,)),
            ("sample_sizes", (True, 5)),
            ("sample_sizes", 50),
            ("trials", 2.5),
            ("trials", True),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
            ("max_failure_fraction", "0.1"),
            ("true_params", {"alpha": math.nan, "sigma": 1.0}),
            ("true_params", {"alpha": int("9" * 400), "sigma": 1.0}),
            ("true_params", [("alpha", 0.5), ("sigma", 1.0)]),
        ],
    )
    def test_each_field_is_checked_on_construction(self, field, value):
        # whoever builds the experiment: n = 50.7 or seed 1.5 never runs as 50 or 1
        from bitglm import ConfigError

        with pytest.raises(ConfigError, match=field):
            case1_config(**{field: value})

    def test_fields_are_normalized(self):
        cfg = case1_config(sample_sizes=[250, 500], true_params={"alpha": 1, "sigma": 2})
        assert cfg.sample_sizes == (250, 500)
        assert cfg.true_params == {"alpha": 1.0, "sigma": 2.0}
        assert all(type(v) is float for v in cfg.true_params.values())

    def test_no_converged_trial_raises_at_the_largest_budget(self):
        # every trial of a two-row case-1 dataset at seed 0 is separated:
        # no mean may be formed, whatever the budget
        cfg = case1_config(sample_sizes=(2,), trials=1, seed=0, max_failure_fraction=0.99)
        with pytest.raises(ExperimentFailure, match="1/1 trials failed at n=2"):
            run_mse_experiment(cfg)

    def test_trials_that_end_on_the_wall_are_failures(self):
        # thresholds one unit above each known mean: where at most half the
        # 8 bits are +1, the supremum lies at sigma -> infinity
        cfg = ExperimentConfig(
            model="gaussian-case2",
            true_params={"sigma": 2.0},
            weights=WeightsRule(kind="constant", value=0.0),
            thresholds=ThresholdRule(kind="fixed", value=1.0),
            sample_sizes=(8,),
            trials=20,
            seed=1,
            max_failure_fraction=0.5,
        )
        outcomes = [montecarlo.run_trial(cfg, 8, trial) for trial in range(20)]
        walls = [o for o in outcomes if o.status == "boundary-divergence"]
        assert walls  # 5 of the 20 at this seed
        for o in walls:
            assert math.isnan(o.squared_error) and not o.theta_hat.flags.writeable
            assert 0.0 < o.theta_hat[0] < 1e-20  # 1/sigma^2, just inside the wall
        failures = sum(o.status != "converged" for o in outcomes)
        assert run_mse_experiment(cfg).rows[0].failures == failures

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
        cfg = case1_config(thresholds=ThresholdRule(kind="fixed", value=0.5))
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

    def test_each_trial_draws_its_designs_once(self, monkeypatch):
        # the report equals, bit for bit, the one computed from trials run
        # through run_trial and designs drawn again from each trial's substream
        cfg = case1_config(
            weights=WeightsRule(kind="iid-uniform", low=0.5, high=1.5),
            thresholds=ThresholdRule(kind="iid-uniform", low=0.0, high=1.0),
        )
        n, trials = 200, 20
        converged = [o for o in (montecarlo.run_trial(cfg, n, t) for t in range(trials))
                     if o.status == "converged"]
        info_sum = 0.0
        for trial in range(trials):
            rng = montecarlo._substream(cfg.seed, n, trial)
            family, designs, theta0 = montecarlo.family_and_theta(cfg, n, rng)
            info_sum = info_sum + fisher.fim_censored(family, theta0, designs).matrix / n
        scaled = math.sqrt(n) * (np.array([o.theta_hat for o in converged]) - theta0)
        emp = np.atleast_2d(np.cov(scaled.T, ddof=1))
        ref = np.linalg.inv(info_sum / trials)
        u = (scaled - scaled.mean(axis=0)) / scaled.std(axis=0, ddof=0)
        want = montecarlo.NormalityReport(
            n=n,
            trials=trials,
            failures=trials - len(converged),
            empirical_cov=emp,
            reference_cov=ref,
            rel_frobenius=float(np.linalg.norm(emp - ref) / np.linalg.norm(ref)),
            skewness=np.mean(u**3, axis=0),
            excess_kurtosis=np.mean(u**4, axis=0) - 3.0,
            abs_third_moment=np.mean(np.abs(u) ** 3, axis=0),
        )
        draws = Counter()
        draw = montecarlo.family_and_theta

        def counted(*args):
            draws["designs"] += 1
            return draw(*args)

        monkeypatch.setattr(montecarlo, "family_and_theta", counted)
        got = check_asymptotic_normality(cfg, n, trials)
        assert draws["designs"] == trials
        for field in dataclasses.fields(want):
            a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(want, field.name))
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field

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


class TestTrialSetup:
    """A censored trial pays each piece of its fit's set-up once."""

    @pytest.mark.parametrize("curve", ["mixture-0.42-2.0", "mixture-1.2-1.9"])
    @pytest.mark.parametrize("n", [1000, 10000])
    def test_a_fig1_trial_groups_builds_and_checks_once(self, monkeypatch, curve, n):
        # one design-code pass (grouping gives the rows and the design tally
        # at once), one regressor build, and one theta check inside fit: the
        # estimate's, as the start is a beta
        doc = cli.load_json_config(Path(cli.__file__).parent / "configs" / "fig1.cfg")
        config = dict(cli.load_experiments(doc))[curve]
        calls = Counter()

        def counted(name, fn):
            def counting(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counting

        cls = models.GaussianCase3
        monkeypatch.setattr(types, "_design_code", counted("codes", types._design_code))
        monkeypatch.setattr(cls, "index_regressors", counted("index", cls.index_regressors))
        monkeypatch.setattr(ModelFamily, "check_theta", counted("theta", ModelFamily.check_theta))
        fit = montecarlo.fit

        def fit_counting_theta_checks(*args):
            before = calls["theta"]
            result = fit(*args)
            calls["theta in fit"] = calls["theta"] - before
            return result

        monkeypatch.setattr(montecarlo, "fit", fit_counting_theta_checks)
        for trial in range(3):
            calls.clear()
            assert montecarlo.run_trial(config, n, trial).status == "converged"
            assert (calls["codes"], calls["index"]) == (1, 1)
            assert calls["theta in fit"] == 1


def _two_point_reference(values, probabilities, rng, n):
    cdf = np.cumsum(np.asarray(probabilities, dtype=float))
    u = rng.random(n)
    idx = sum((u >= c for c in cdf[:-1] / cdf[-1]), np.zeros(n, np.intp))
    return np.asarray(values, dtype=float)[idx]


class TestRules:
    @pytest.mark.parametrize(
        "values, probabilities",
        [
            ((0.42, 2.0), (0.5, 0.5)),
            ((1.0, 2.0, 3.0), (0.2, 0.3, 0.5)),
            ((1.0, 2.0, 3.0), (0.6, 0.0, 0.4)),
            ((1.0, 2.0, 3.0), (0.6, 0.4, 0.0)),
        ],
    )
    def test_two_point_draw_is_rng_choice(self, values, probabilities):
        # the same thresholds as Generator.choice, element for element, and
        # the same generator state after the draw
        rule = ThresholdRule(kind="two-point", values=values, probabilities=probabilities)
        for seed in range(200):
            for n in (1, 1000, 10007):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                want = theirs.choice(np.asarray(values, dtype=float), size=n, p=probabilities)
                assert np.array_equal(rule.draw(n, ours), want)
                assert ours.random() == theirs.random()

    @pytest.mark.parametrize(
        "values, probabilities", [((0.42, 2.0), (0.5, 0.5)), ((1.0, 2.0, 3.0), (0.2, 0.3, 0.5))]
    )
    def test_two_point_draw_is_the_per_draw_formula(self, values, probabilities):
        # the cuts and the values array, as each draw computed them before
        rule = ThresholdRule(kind="two-point", values=values, probabilities=probabilities)
        for seed in range(50):
            want = _two_point_reference(values, probabilities, np.random.default_rng(seed), 1001)
            assert rule.draw(1001, np.random.default_rng(seed)).tobytes() == want.tobytes()

    def test_two_point_rule_is_still_a_frozen_dataclass(self):
        rule = ThresholdRule(kind="two-point", values=(0.42, 2.0), probabilities=(0.5, 0.5))
        other = dataclasses.replace(rule, probabilities=(0.25, 0.75))
        copy = pickle.loads(pickle.dumps(rule))
        assert copy == rule and hash(copy) == hash(rule) and other != rule

        def draw(r):
            return r.draw(1000, np.random.default_rng(3))

        assert np.array_equal(draw(copy), draw(rule))
        want = _two_point_reference((0.42, 2.0), (0.25, 0.75), np.random.default_rng(3), 1000)
        assert np.array_equal(draw(other), want)

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
            # an unhashable kind is unknown, not a TypeError
            lambda: WeightsRule(kind={}, value=1.0),
            lambda: ThresholdRule(kind=["fixed"], value=1.0),
        ],
    )
    def test_invalid_rules_rejected_at_construction(self, make):
        from bitglm import ConfigError

        with pytest.raises(ConfigError):
            make()

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "constant", "value": int("9" * 400)},
            {"kind": "list", "values": (1.0, int("9" * 400))},
        ],
    )
    def test_huge_integer_fields_rejected(self, fields):
        # a float cannot hold a 400-digit integer: a ConfigError, not an OverflowError
        from bitglm import ConfigError

        with pytest.raises(ConfigError, match="finite number"):
            WeightsRule(**fields)

    def test_weights_list_cycles(self):
        rule = WeightsRule(kind="list", values=(1.0, 2.0, 3.0))
        got = rule.draw(5, np.random.default_rng(0))
        assert_allclose(got, [1.0, 2.0, 3.0, 1.0, 2.0])

    def test_iid_normal_thresholds_are_the_generators_normals(self):
        cfg = case1_config(thresholds=ThresholdRule(kind="iid-normal", mu=0.5, sd=2.0))
        _, designs, _ = montecarlo.family_and_theta(cfg, 1000, np.random.default_rng(4))
        # the constant weights draw nothing, so the thresholds come first
        assert np.array_equal(designs.taus, np.random.default_rng(4).normal(0.5, 2.0, 1000))
        assert montecarlo.run_trial(cfg, 1000, 0).status == "converged"

    def test_iid_rules_draw_within_range(self):
        rng = np.random.default_rng(0)
        taus = ThresholdRule(kind="iid-uniform", low=1.0, high=2.0).draw(100, rng)
        assert np.all((taus >= 1.0) & (taus <= 2.0))
        w = WeightsRule(kind="iid-uniform", low=-1.0, high=1.0).draw(100, rng)
        assert np.all(np.abs(w) <= 1.0)
