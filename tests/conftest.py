"""Shared randomized-instance generators.

Instances keep standardized thresholds within a few units, so closed-form
and assembled information routes can be compared at 1e-10 relative error
without running into genuine double-precision limits.
"""

import numpy as np
import pytest

from bitglm import CensoredDataset, models

MODEL_NAMES = ("gaussian-case1", "gaussian-case2", "gaussian-case3", "poisson")


def random_instance(name, rng, n_max=6, n=None):
    """(family, theta, designs) with informative, non-degenerate designs:
    ``n`` of them, or a random count up to ``n_max``."""
    if n is None:
        n = int(rng.integers(1, n_max + 1))
    if name == "gaussian-case1":
        sigma = float(rng.uniform(0.5, 2.0))
        w = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
        alpha = float(rng.uniform(-1.5, 1.5))
        family = models.GaussianCase1(w, sigma=sigma)
        mu = w * alpha
        taus = mu + sigma * rng.uniform(-2.5, 2.5, n)
        return family, np.array([alpha]), family.design_set(taus)
    if name == "gaussian-case2":
        sigma = float(rng.uniform(0.6, 1.8))
        means = rng.uniform(-2.0, 2.0, n)
        family = models.GaussianCase2(means=means)
        # keep |z| away from 0 so the information does not vanish
        z = rng.uniform(0.15, 2.5, n) * rng.choice([-1.0, 1.0], n)
        taus = means + sigma * z
        return family, np.array([1.0 / sigma**2]), family.design_set(taus)
    if name == "gaussian-case3":
        sigma = float(rng.uniform(0.6, 1.8))
        alpha = float(rng.uniform(-1.5, 1.5))
        w = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
        family = models.GaussianCase3(w)
        mu = w * alpha
        taus = mu + sigma * rng.uniform(-2.5, 2.5, n)
        theta = models.GaussianCase3.natural_from_alpha_sigma2(alpha, sigma**2)
        return family, theta, family.design_set(taus)
    if name == "poisson":
        v = rng.uniform(0.2, 1.2, n) * rng.choice([-1.0, 1.0], n)
        theta = float(rng.uniform(-0.5, 1.0))
        lam = np.exp(v * theta)
        family = models.PoissonModel(covariates=v)
        # thresholds within ~3 standard deviations keep both bit
        # probabilities and the pmf at the threshold well away from zero
        hi = np.floor(lam + 3.0 * np.sqrt(lam) + 2.0).astype(int)
        taus = np.array([rng.integers(0, h + 1) for h in hi], dtype=float)
        return family, np.array([theta]), family.design_set(taus)
    raise ValueError(name)


def repeated_rows(name, rng, n_max=5, max_reps=8):
    """(family, theta, data): a random_instance whose designs each appear
    3..max_reps times in shuffled order, with random bits, so that every
    design repeats with an equal bit and most also with the opposite one."""
    family, theta, designs = random_instance(name, rng, n_max=n_max)
    idx = np.repeat(np.arange(designs.n), rng.integers(3, max_reps + 1, designs.n))
    rng.shuffle(idx)
    rows = designs.subset(idx)
    return family, theta, CensoredDataset(rng.choice([-1, 1], rows.n), rows)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
