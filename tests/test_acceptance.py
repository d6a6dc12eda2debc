"""Acceptance criteria, one test (or tightly related group) per criterion.

Each criterion prints a single "[criterion N] PASS/FAIL" line; tolerances
are pinned here, not calibrated elsewhere.  The heavy repeated-trial
experiments are shared through module-scoped fixtures.

Note on criterion 6: the third (dotted) reference value is asserted
exactly as specified.  Both the information-matrix prediction and
independent simulation put the achievable MSE for that threshold mixture
near 1.8e-3, not 9.8e-4, so that one assertion documents a reference-data
inconsistency rather than a code defect; the other curves and the
ordering check pass.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from bitglm import (
    CensoredDataset,
    NonIdentifiable,
    cli,
    fim_censored,
    fim_uncensored,
    fit,
    likelihood,
    models,
    montecarlo,
)
from conftest import MODEL_NAMES, random_instance
from test_fisher import closed_form, rel_err
from _oracles import (
    case1_fim,
    case1_uncensored_fim,
    case3_fim,
    fd_gradient,
    fd_jacobian,
    fim_numeric_oracle,
    grid_search_maximizer,
    negative_expected_hessian,
    poisson_conditional_moment_sum,
    poisson_fim,
    poisson_pmf_exact,
)

CONFIG_DIR = Path(cli.__file__).parent / "configs"


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _run_cli_inprocess(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def randomized_configs():
    """1000 randomized (family, theta, designs) across all four models."""
    rng = np.random.default_rng(20250809)
    out = []
    for name in MODEL_NAMES:
        for _ in range(250):
            out.append((name, *random_instance(name, rng)))
    return out


@pytest.fixture(scope="module")
def fig1_results():
    """The bundled three-curve reproduction config, run in full."""
    doc = cli.load_json_config(CONFIG_DIR / "fig1.cfg")
    experiments = cli.load_experiments(doc)
    tables = {}
    t0 = time.perf_counter()
    for name, config in experiments:
        tables[name] = montecarlo.run_mse_experiment(config)
    tables["elapsed"] = time.perf_counter() - t0
    return tables


@pytest.fixture(scope="module")
def poisson_curve():
    config = montecarlo.ExperimentConfig(
        model="poisson",
        true_params={"theta": math.log(2.0)},
        weights=montecarlo.Rule(kind="constant", value=1.0),
        thresholds=montecarlo.Rule(
            kind="two-point", values=(1.0, 3.0), probabilities=(0.5, 0.5)
        ),
        sample_sizes=(1000, 1778, 3162, 5623, 10000),
        trials=1000,
        seed=77,
    )
    return montecarlo.run_mse_experiment(config)


# ---------------------------------------------------------------------------
# criterion 1: two-observation determinant through the CLI
# ---------------------------------------------------------------------------

def test_criterion_1_two_point_determinant():
    t0 = time.perf_counter()
    code, out = _run_cli_inprocess(
        ["fim", "--config", str(CONFIG_DIR / "two-point.cfg"), "--json"]
    )
    elapsed = time.perf_counter() - t0
    doc = json.loads(out)
    det = doc["det_censored"]
    ok = code == 0 and abs(det - 0.1294) <= 5e-4 and elapsed < 1.0
    assert _report(1, ok, f"det={det:.6f} (target 0.1294 +- 5e-4), {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: censoring penalty and threshold optimality
# ---------------------------------------------------------------------------

def test_criterion_2_censoring_penalty():
    t0 = time.perf_counter()
    fam = models.GaussianCase1([0.7, 1.0, 1.4], sigma=1.2)
    alpha = 0.9
    taus = models.case1_optimal_thresholds(fam, alpha)
    ratio = case1_fim(fam, alpha, taus) / case1_uncensored_fim(fam)
    ratio_ok = abs(ratio - 2 / math.pi) <= 1e-12

    # scan each observation's threshold on a 1e-3 grid around the optimum
    argmax_ok = True
    for w, opt in zip(fam.weights, taus):
        single = models.GaussianCase1([w], sigma=fam.sigma)
        grid = np.arange(opt - 1.0, opt + 1.0 + 1e-3, 1e-3)
        vals = np.array([case1_fim(single, alpha, [t]) for t in grid])
        argmax_ok &= abs(grid[int(np.argmax(vals))] - opt) <= 1e-3
    elapsed = time.perf_counter() - t0
    ok = ratio_ok and argmax_ok and elapsed < 1.0
    assert _report(
        2,
        ok,
        f"ratio-2/pi={ratio - 2 / math.pi:.2e}, argmax on 1e-3 grid at w*alpha, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criteria 3 and 4: route agreement and the information inequality
# ---------------------------------------------------------------------------

def test_criterion_3_four_route_agreement(randomized_configs):
    t0 = time.perf_counter()
    worst = 0.0
    for name, fam, theta, ds in randomized_configs:
        j = fim_censored(fam, theta, ds).matrix
        for route in (
            closed_form(fam, theta, ds),
            fim_numeric_oracle(fam, theta, ds).matrix,
            negative_expected_hessian(fam, theta, ds).matrix,
        ):
            worst = max(worst, rel_err(j, route))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    assert _report(
        3, ok, f"worst relative disagreement {worst:.2e} over 1000 configs, {elapsed:.1f}s"
    )


def test_criterion_4_data_processing_inequality(randomized_configs):
    worst = np.inf
    for name, fam, theta, ds in randomized_configs:
        gap = fim_uncensored(fam, theta, ds).matrix - fim_censored(fam, theta, ds).matrix
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (gap + gap.T))[0]))
    ok = worst >= -1e-10
    assert _report(4, ok, f"min eigenvalue of information gap {worst:.2e} over 1000 configs")


# ---------------------------------------------------------------------------
# criterion 5: score calculus
# ---------------------------------------------------------------------------

def test_criterion_5_score_calculus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_mean = 0.0
    worst_grad = 0.0
    worst_hess = 0.0
    for i in range(200):
        name = MODEL_NAMES[i % 4]
        fam, theta, ds = random_instance(name, rng)
        probs = fam.prob_leq(theta, ds)
        total = np.zeros(fam.k)
        for j in range(ds.n):
            for b, pb in ((1, probs[j]), (-1, 1 - probs[j])):
                one = CensoredDataset([b], ds.subset(slice(j, j + 1)))
                total += likelihood.score(fam, theta, one) * pb
        worst_mean = max(worst_mean, float(np.max(np.abs(total))))

        data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
        got = likelihood.score(fam, theta, data)
        fd = fd_gradient(lambda t: likelihood.log_likelihood(fam, t, data), theta, 1e-6)
        scale = max(1.0, float(np.max(np.abs(got))))
        worst_grad = max(worst_grad, float(np.max(np.abs(got - fd))) / scale)

        h = likelihood.hessian(fam, theta, data)
        fdh = fd_jacobian(lambda t: likelihood.score(fam, t, data), theta, 1e-4)
        fdh = 0.5 * (fdh + fdh.T)
        scale = max(1.0, float(np.max(np.abs(h))))
        worst_hess = max(worst_hess, float(np.max(np.abs(h - fdh))) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_mean <= 1e-12 and worst_grad <= 1e-5 and worst_hess <= 1e-4 and elapsed < 30
    assert _report(
        5,
        ok,
        f"zero-mean {worst_mean:.1e}, grad-vs-fd {worst_grad:.1e}, "
        f"hess-vs-fd {worst_hess:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: the three-curve MSE reproduction
# ---------------------------------------------------------------------------

def _at(table, n):
    return next(r for r in table.rows if r.n == n)


def test_criterion_6_uncensored_and_mixture_values(fig1_results):
    unc = _at(fig1_results["uncensored"], 10000)
    dash = _at(fig1_results["mixture-0.42-2.0"], 10000)
    elapsed = fig1_results["elapsed"]
    ok_unc = abs(unc.mse - 1.54313e-4) <= 0.10 * 1.54313e-4
    ok_dash = abs(dash.mse - 7.56697e-4) <= 0.15 * 7.56697e-4
    ok = ok_unc and ok_dash and elapsed < 600.0
    assert _report(
        "6a",
        ok,
        f"uncensored@1e4 {unc.mse:.3e} (target 1.543e-4 +-10%), "
        f"mixture(0.42,2)@1e4 {dash.mse:.3e} (target 7.567e-4 +-15%), {elapsed:.0f}s",
    )


def test_criterion_6_dotted_mixture_value(fig1_results):
    """Reference point for the (1.2, 1.9) mixture.

    Both the inverse-information prediction (1.88e-3 at n=1e4) and this
    simulation disagree with the quoted 9.8e-4 by a factor of ~1.9 while
    the sibling curves match their quoted values, so this assertion is
    expected to fail; see the repository notes for the analysis.
    """
    dot = _at(fig1_results["mixture-1.2-1.9"], 10000)
    ok = abs(dot.mse - 9.79592e-4) <= 0.15 * 9.79592e-4
    assert _report(
        "6b", ok, f"mixture(1.2,1.9)@1e4 {dot.mse:.3e} vs quoted 9.796e-4 +-15%"
    )


def test_criterion_6_ordering(fig1_results):
    ok = True
    detail = []
    for n in (1000, 1778, 3162, 5623, 10000):
        unc = _at(fig1_results["uncensored"], n)
        dash = _at(fig1_results["mixture-0.42-2.0"], n)
        dot = _at(fig1_results["mixture-1.2-1.9"], n)
        sep1 = dash.mse - unc.mse - 3 * math.hypot(dash.mc_stderr, unc.mc_stderr)
        sep2 = dot.mse - dash.mse - 3 * math.hypot(dot.mc_stderr, dash.mc_stderr)
        ok &= sep1 > 0 and sep2 > 0
        detail.append(f"n={n}: {unc.mse:.2e} < {dash.mse:.2e} < {dot.mse:.2e}")
    assert _report("6c", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# criterion 7: asymptotic normality and consistency slopes
# ---------------------------------------------------------------------------

def test_criterion_7_asymptotic_normality():
    config = montecarlo.ExperimentConfig(
        model="gaussian-case3",
        true_params={"alpha": 1.0, "sigma": 1.0},
        weights=montecarlo.Rule(kind="constant", value=1.0),
        thresholds=montecarlo.Rule(
            kind="two-point", values=(-1.0, 2.0), probabilities=(0.5, 0.5)
        ),
        sample_sizes=(10000,),
        trials=500,
        seed=424242,
    )
    report = montecarlo.check_asymptotic_normality(config, 10000, 500)
    # the reference must agree with the closed-form information
    fam = models.GaussianCase3(np.ones(2))
    j1 = case3_fim(fam, 1.0, 1.0, np.array([-1.0, 2.0])) / 2.0
    ref_gap = rel_err(report.reference_cov, np.linalg.inv(j1))
    ok = (
        report.rel_frobenius <= 0.15
        and ref_gap < 0.02
        and report.failures <= 0.05 * report.trials
    )
    assert _report(
        7,
        ok,
        f"normality rel-Frobenius {report.rel_frobenius:.3f} (<=0.15), "
        f"{report.failures} non-converged trials, "
        f"reference consistent with closed form to {ref_gap:.1e}",
    )


def test_criterion_7_consistency_slopes(fig1_results, poisson_curve):
    slope_gauss = fig1_results["mixture-0.42-2.0"].loglog_slope()
    slope_poisson = poisson_curve.loglog_slope()
    ok = abs(slope_gauss + 1.0) <= 0.15 and abs(slope_poisson + 1.0) <= 0.15
    assert _report(
        "7b",
        ok,
        f"log-log MSE slopes: two-parameter gaussian {slope_gauss:.3f}, "
        f"poisson {slope_poisson:.3f} (target -1 +- 0.15)",
    )


# ---------------------------------------------------------------------------
# criterion 8: Poisson closed form
# ---------------------------------------------------------------------------

def test_criterion_8_poisson_closed_form():
    spot = poisson_fim(models.PoissonModel([1.0]), 0.0, [0.0])
    spot_ok = abs(spot - 1.0 / (math.e - 1.0)) <= 1e-12

    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(200):
        v = float(rng.uniform(0.2, 1.2) * rng.choice([-1.0, 1.0]))
        theta = float(rng.uniform(-0.5, 1.0))
        lam = math.exp(v * theta)
        hi = int(lam + 3.0 * math.sqrt(lam) + 2.0)
        tau = float(rng.integers(0, hi + 1))
        fam = models.PoissonModel([v])
        got = poisson_fim(fam, theta, [tau])
        # enumeration oracle: two-point variance of the conditional mean
        t = math.floor(tau)
        f = sum(poisson_pmf_exact(x, lam) for x in range(t + 1))
        e_p = poisson_conditional_moment_sum(lam, tau, 1, 1)
        e_m = poisson_conditional_moment_sum(lam, tau, -1, 1)
        want = v * v * ((e_p - lam) ** 2 * f + (e_m - lam) ** 2 * (1 - f))
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    ok = spot_ok and worst <= 1e-10
    assert _report(
        8,
        ok,
        f"spot |J - 1/(e-1)| ok={spot_ok}, worst enumeration disagreement {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 9: solver versus dense grid search
# ---------------------------------------------------------------------------

def test_criterion_9_grid_oracle_and_determinism():
    rng = np.random.default_rng(99)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        name = ("gaussian-case1", "poisson", "gaussian-case2")[attempts % 3]
        fam, theta, ds = random_instance(name, rng, n_max=5)
        reps = int(rng.integers(2, 11))  # n <= 50
        if name == "gaussian-case1":
            fam = models.GaussianCase1(np.tile(fam.weights, reps), sigma=fam.sigma)
        elif name == "poisson":
            fam = models.PoissonModel(np.tile(fam.covariates, reps))
        else:
            fam = models.GaussianCase2(np.tile(fam.means, reps))
        ds = fam.design_set(np.tile(ds.taus, reps))
        data = CensoredDataset(rng.choice([-1, 1], ds.n), ds)
        try:
            res = fit(fam, data)
        except Exception:
            continue
        if not res.converged:
            continue
        rerun = fit(fam, data)
        assert np.array_equal(res.theta_hat, rerun.theta_hat)
        assert res.log_likelihood == rerun.log_likelihood

        top = float(res.theta_hat[0])
        lo, hi = (1e-3, top + 3.0) if name == "gaussian-case2" else (top - 3.0, top + 3.0)
        star = grid_search_maximizer(fam, data, lo, hi)
        worst = max(worst, abs(top - star))
        checked += 1

    fam = models.GaussianCase1(np.ones(6), sigma=1.0)
    data = CensoredDataset(np.ones(6, dtype=int), fam.design_set(np.zeros(6)))
    with pytest.raises(NonIdentifiable):
        fit(fam, data)

    ok = checked >= 100 and worst <= 1e-6
    assert _report(
        9,
        ok,
        f"{checked} instances, worst |newton - grid| = {worst:.2e} (<=1e-6); "
        "bit-identical reruns; one-sided data raises",
    )
