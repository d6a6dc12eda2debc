"""Solver behavior: oracle agreement, determinism, identifiability."""

import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bitglm import (
    BitGlmError,
    CensoredDataset,
    DegenerateLikelihood,
    FitConfig,
    NonIdentifiable,
    NumericalError,
    cli,
    estimator,
    fit,
    likelihood,
    models,
    montecarlo,
)
from bitglm._gauss import norm_ppf
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
        assert res.theta_hat.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_three_quarters_inversion(self):
        # closed form: alpha_hat = tau - sigma * quantile(3/4)
        fam, data = iid_case1([1, 1, 1, -1])
        res = fit(fam, data)
        want = -float(norm_ppf(0.75))
        assert res.converged
        assert_allclose(res.theta_hat.values[0], want, rtol=1e-8)
        assert res.theta_hat.values[0] == pytest.approx(-0.6744897501960817, abs=1e-7)

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

    def test_degenerate_error_names_the_callers_observation(self):
        # only observation 1 is impossible at the start, where P(X > 300)
        # at rate 1 is exactly 0 (the retreat's anchor is that start), and
        # the grouped data store it as row 2
        fam = models.PoissonModel([1.0] * 4)
        data = CensoredDataset([-1, -1, 1, -1], fam.design_set([2.0, 300.0, 2.0, 1.0]))
        with pytest.raises(DegenerateLikelihood) as err:
            fit(fam, data, FitConfig(start=[0.0]))
        assert err.value.index == 1
        assert str(err.value).startswith("observation 1 ")

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
        # eigenvalue of the observed information at ~1e-16 of its trace
        fam, _, data = repeated_rows("gaussian-case3", np.random.default_rng(seed), max_reps=30)
        assert len(np.unique(data.designs.taus)) == 1
        with pytest.raises(NonIdentifiable, match="singular .* flat along the direction"):
            fit(fam, data)

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
        alpha, sigma2 = models.GaussianCase3.alpha_sigma2_from_natural(res.theta_hat.values)
        assert alpha == pytest.approx(2.0, abs=0.15)
        assert sigma2 == pytest.approx(1.0, abs=0.2)
        assert res.final_score_norm <= 1e-9
        assert np.linalg.eigvalsh(res.observed_information)[0] >= -1e-8

    def test_boundary_divergence_status(self):
        # mixed bits that reward an ever-smaller precision: the supremum
        # lies on the wall sigma -> infinity, reported just inside
        fam = models.GaussianCase2(means=[0.0, 0.0])
        data = CensoredDataset([1, -1], fam.design_set([-1.0, 2.0]))
        res = fit(fam, data, FitConfig(max_iterations=300))
        assert not res.converged
        assert res.status == "boundary-divergence"
        assert res.theta_hat.values[0] > 0  # never left the domain

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
        assert res.status == "boundary-divergence" and 0.0 < res.theta_hat.values[0] < 1e-20

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
        top = res.theta_hat.values[0]
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
            top = res.theta_hat.values[0]
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
                probe = res.theta_hat.values + 1e-4 * rng.standard_normal(2)
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
    top = res.theta_hat.values[0]
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
    assert res.theta_hat.values[0] == pytest.approx(-1.975720862747147, rel=1e-12)


class TestDeterminism:
    def test_bit_identical_rerun(self, rng):
        fam, theta, ds = random_instance("gaussian-case3", rng, n_max=5)
        reps = 10
        fam = models.GaussianCase3(np.tile(fam.weights, reps))
        ds = fam.design_set(np.tile(ds.taus, reps))
        data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
        cfg = FitConfig()
        try:
            a = fit(fam, data, cfg)
            b = fit(fam, data, cfg)
        except NonIdentifiable:
            pytest.skip("instance not identifiable")
        assert np.array_equal(a.theta_hat.values, b.theta_hat.values)
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
                    (res.theta_hat.values.tobytes(), res.log_likelihood, res.status, res.iterations)
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
        start = fam.initial_point(data.grouped())
        assert res.log_likelihood >= likelihood.log_likelihood(fam, start, data) - 1e-12


class TestInitialPoint:
    def test_balanced_fraction_starts_at_zero(self):
        fam, data = iid_case1([1, -1, 1, -1])
        assert fam.initial_point(data)[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_parameter_base_has_unit_precision(self):
        fam = models.GaussianCase3(np.ones(4))
        data = CensoredDataset([1, -1, 1, -1], fam.design_set(np.zeros(4)))
        assert fam.initial_point(data)[1] == 1.0


class TestFitConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(gradient_tolerance=0.0)

    def test_explicit_start(self):
        fam, data = iid_case1([1, 1, -1, -1])
        res = fit(fam, data, FitConfig(start=np.array([2.0])))
        assert res.converged
        assert res.theta_hat.values[0] == pytest.approx(0.0, abs=1e-9)


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
        res = fit(fam, data, config.fit)
        assert res.converged and res.status == "converged"
        assert res.final_score_norm <= 1e-9
        alpha_sigma = fam.to_moment(res.theta_hat.values)
        assert_allclose(alpha_sigma, _closed_form_two_threshold(data), rtol=1e-8)


def _pooled_start(model, data):
    """The Gaussian families' start from the pooled bit fraction and mean
    threshold, the only start before the per-design probit inversion."""
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
        start = fam.initial_point(data.grouped())
        assert_allclose(fam.to_moment(start), want, rtol=1e-10)
        # the raw rows tally to the same designs
        assert_allclose(fam.to_moment(fam.initial_point(data)), want, rtol=1e-10)
        res = fit(fam, data, config.fit)
        assert res.converged and res.iterations == 1
        assert_allclose(fam.to_moment(res.theta_hat.values), want, rtol=1e-10)

    @pytest.mark.parametrize("name", GAUSSIANS)
    def test_one_design_per_family_parameter_is_inverted_exactly(self, name):
        # k = 1: a single design seen with both bits; 3 of 4 bits are +1
        taus = [0.9] * 4
        fam, data = _gaussian(name, taus, [1, 1, -1, 1])
        q = float(norm_ppf(0.75))
        if name == "gaussian-case3":
            # k = 2: a second design, 9 of 10 bits +1
            fam, data = _gaussian(name, taus + [2.5] * 10, [1, 1, -1, 1] + [1] * 9 + [-1])
            sigma = (2.5 - 0.9) / (float(norm_ppf(0.9)) - q)
            want = fam.from_moment([0.9 - sigma * q, sigma])
        elif name == "gaussian-case1":
            want = [0.9 - 1.3 * q]  # tau - sigma q over a unit weight
        else:
            want = [(q / (0.9 - 0.2)) ** 2]  # 1/sigma^2 with q = (tau - mean)/sigma
        assert_allclose(fam.initial_point(data.grouped()), want, rtol=1e-12)

    @pytest.mark.parametrize("name", GAUSSIANS)
    def test_a_one_sided_design_moves_the_mle_off_the_start(self, name):
        # k designs seen with both bits, plus one whose 5 bits are all +1: it
        # adds nothing to the regression but still pulls on the likelihood
        taus, bits = [0.9] * 4, [1, 1, -1, 1]
        if name == "gaussian-case3":
            taus, bits = taus + [2.5] * 10, bits + [1] * 9 + [-1]
        fam_usable, usable = _gaussian(name, taus, bits)
        fam, data = _gaussian(name, taus + [4.0] * 5, bits + [1] * 5)
        start = fam.initial_point(data.grouped())
        assert_allclose(start, fam_usable.initial_point(usable.grouped()), rtol=1e-12)
        res = fit(fam, data)
        assert res.converged and res.iterations > 1
        assert not np.allclose(res.theta_hat.values, start, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("name", GAUSSIANS)
    def test_iid_designs_fall_back_to_the_pooled_start(self, name, rng):
        fam, _, designs = random_instance(name, rng, n=60)
        data = CensoredDataset(rng.choice([-1, 1], designs.n), designs)
        assert np.array_equal(fam.initial_point(data), _pooled_start(fam, data))
        assert np.array_equal(fam.initial_point(data.grouped()), _pooled_start(fam, data.grouped()))

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
    def test_fallback_is_the_pooled_start(self, name, taus, bits, weights):
        fam, data = _gaussian(name, taus, bits, weights)
        assert np.array_equal(fam.initial_point(data.grouped()), _pooled_start(fam, data.grouped()))

    @pytest.mark.parametrize("name", GAUSSIANS)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fit_agrees_with_the_pooled_start_fit(self, name, seed):
        fam, _, data = repeated_rows(name, np.random.default_rng(seed), max_reps=30)
        grouped = data.grouped()
        try:
            old = fit(fam, data, FitConfig(start=_pooled_start(fam, grouped)))
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
        got, want = new.theta_hat.values, old.theta_hat.values
        assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want) + slack)
