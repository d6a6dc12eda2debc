"""The benchmark workloads.

Each workload builds its inputs from the benchmark seed only, and runs its
ops in *rounds* of 0.1-0.2 s.  ``cycle`` consecutive rounds visit every
cell of the workload (curve x n, or family x grid point) once, so every
whole cycle has the same mix of op costs whatever the seed.

An op returns an ``Outcome``; ``reference_ops`` is a fixed batch, independent
of the benchmark seed, whose outcomes were recorded when the benchmark was
added and are compared on every run (see ``run.py --record-reference``).
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bitglm
from bitglm import cli, fisher, models, montecarlo
from bitglm.exceptions import BitGlmError

CONFIG_DIR = Path(bitglm.__file__).parent / "configs"

#: Seed of every reference batch; the benchmark seed never reaches it.
REFERENCE_SEED = 20250809

#: Sample sizes of fig1.cfg.
CURVE_SIZES = (1000, 1778, 3162, 5623, 10000)


@dataclass
class Outcome:
    """What one op produced, reduced to what the correctness check needs."""

    status: str        # "converged", a solver status, an error name, or "passed"
    ok: bool           # the op ended with a usable result
    values: list       # estimates or flattened matrices, [] when none
    detail: dict       # per-workload extras used by the plausibility check


def _mix(seed, salt):
    """Independent integer seeds per purpose, all derived from one seed."""
    return int(np.random.SeedSequence([int(seed), salt]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# fig1-mixtures: op = one montecarlo.run_trial
# ---------------------------------------------------------------------------

class Fig1Mixtures:
    """The three curves of fig1.cfg; round r runs trial r of every (curve, n)
    cell, with the curves' seed replaced by one drawn from the benchmark seed."""

    name = "fig1-mixtures"
    cycle = 1
    why = (
        "The paper's headline fig1 experiment: Gaussian case-3 trials with "
        "4 distinct (tau, bit) groups per dataset; bypasses _poisson and fisher."
    )

    def __init__(self, seed):
        self.configs = _fig1_configs(_mix(seed, 1))

    def round(self, r):
        return _trial_ops(self.configs, r)

    @staticmethod
    def reference_ops(rounds=8):
        configs = _fig1_configs(REFERENCE_SEED)
        return [op for r in range(rounds) for op in _trial_ops(configs, r)]

    @staticmethod
    def plausible(key, outcome, reference):
        """A converged estimate whose n * squared error is far beyond the
        spread the reference batch showed for its curve is wrong."""
        if not outcome.ok:
            return None
        curve = key.split("/")[0]
        scale = reference["nse_scale"][curve]
        nse = outcome.detail["n"] * outcome.detail["squared_error"]
        if not math.isfinite(nse) or nse > 40.0 * scale:
            return f"n*squared_error {nse:.4g} exceeds 40x the reference mean {scale:.4g}"
        return None


def _fig1_configs(seed):
    doc = cli.load_json_config(CONFIG_DIR / "fig1.cfg")
    return cli.load_experiments(doc, seed_override=seed)


def _trial_ops(configs, trial):
    return [
        (f"{name}/n={n}/trial={trial}", _trial_op(config, n, trial))
        for n in CURVE_SIZES
        for name, config in configs
    ]


def _trial_op(config, n, trial):
    def op():
        out = montecarlo.run_trial(config, n, trial)
        values = [] if out.theta_hat is None else [float(v) for v in out.theta_hat]
        ok = out.status == "converged"
        return Outcome(out.status, ok, values, {"n": n, "squared_error": out.squared_error})

    return op


# ---------------------------------------------------------------------------
# info-sweep: op = one fisher.dpi_check on a one-threshold grid point
# ---------------------------------------------------------------------------

FAMILIES = ("gaussian-case1", "gaussian-case2", "gaussian-case3", "poisson")


def iid_instance(name, n, rng):
    """(family, designs, theta0) with continuous i.i.d. weights and
    thresholds, so no two rows share a design."""
    u = rng.uniform(0.5, 1.5, n)
    if name == "gaussian-case1":
        family = models.GaussianCase1(u, sigma=1.0)
        theta0 = np.array([1.0])
        taus = u * 1.0 + rng.uniform(-1.5, 1.5, n)
    elif name == "gaussian-case2":
        means = rng.uniform(-1.0, 1.0, n)
        family = models.GaussianCase2(means)
        theta0 = np.array([1.0 / 1.5**2])
        taus = means + 1.5 * rng.uniform(-2.0, 2.0, n)
    elif name == "gaussian-case3":
        family = models.GaussianCase3(u)
        theta0 = models.GaussianCase3.natural_from_alpha_sigma2(2.0, 1.0)
        taus = u * 2.0 + rng.uniform(-2.0, 2.0, n)
    else:
        family = models.PoissonModel(u)
        theta0 = np.array([math.log(3.0)])
        taus = rng.uniform(0.0, 2.0, n) * np.exp(u * theta0[0])
    return family, family.design_set(taus), theta0


SWEEP_N = 10_000
#: Grid points per family and round.  The known-variance mean model has a
#: closed-form optimal threshold, so it is swept least; the two-parameter
#: and Poisson families, which have none, most.  This also keeps the median
#: op inside one cost cluster instead of between the cheap and dear ones.
SWEEP_POINTS = {"gaussian-case1": 4, "gaussian-case2": 12, "gaussian-case3": 24, "poisson": 24}


class InfoSweep:
    name = "info-sweep"
    cycle = 8
    why = (
        "fim --sweep style one-threshold grids with dpi_check at n = 1e4 for "
        "each family: the only workload using fisher and cond_mean_dev_T on both bits."
    )

    def __init__(self, seed):
        rng = np.random.default_rng(_mix(seed, 3))
        self.ops = _sweep_ops(rng, SWEEP_POINTS)

    def round(self, r):
        """Eight consecutive grid points; eight rounds cover every grid."""
        start = 8 * r % len(self.ops)
        return self.ops[start:start + 8]

    @staticmethod
    def reference_ops():
        return _sweep_ops(np.random.default_rng(REFERENCE_SEED), dict.fromkeys(FAMILIES, 4))

    @staticmethod
    def plausible(key, outcome, reference):
        if not outcome.ok:
            return None
        if not all(math.isfinite(v) for v in outcome.values):
            return "non-finite information matrix"
        if outcome.detail["min_eig_censored"] < -1e-10 * outcome.detail["scale"]:
            return "censored information is not positive semidefinite"
        return None


def _sweep_ops(rng, points):
    """Per family, a grid of ``points[family]`` thresholds for the first
    design, as ``fim --sweep 0:LO:HI:STEP`` makes it; families interleaved."""
    per_family = []
    for name in FAMILIES:
        family, designs, theta0 = iid_instance(name, SWEEP_N, rng)
        tau0 = float(designs.taus[0])
        if name == "poisson":
            grid = np.linspace(0.0, 2.0 * max(tau0, 1.0), points[name])
        else:
            grid = tau0 + np.linspace(-1.5, 1.5, points[name])
        cells = []
        for j, tau in enumerate(grid):
            taus = designs.taus.copy()
            taus[0] = tau
            swept = type(designs)(designs.V, taus, designs.aux)
            cells.append((f"{name}/point={j}", _dpi_op(family, theta0, swept)))
        per_family.append(cells)
    longest = max(len(cells) for cells in per_family)
    return [cells[j] for j in range(longest) for cells in per_family if j < len(cells)]


def _dpi_op(family, theta0, designs):
    def op():
        try:
            report = fisher.dpi_check(family, theta0, designs)
        except BitGlmError as err:
            return Outcome(type(err).__name__, False, [], {})
        j, i = report.censored.matrix, report.uncensored.matrix
        values = [float(v) for v in j.ravel()] + [float(v) for v in i.ravel()]
        detail = {
            "min_eig_censored": report.censored.min_eigenvalue,
            "scale": float(np.max(np.abs(i))),
        }
        return Outcome("passed" if report.passed else "dpi-violation", report.passed, values, detail)

    return op


WORKLOADS = {w.name: w for w in (Fig1Mixtures, InfoSweep)}
