"""Oracles for the low-level normal and Poisson building blocks."""

import math
import types

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from bitglm import _gauss, _poisson, models
from _oracles import poisson_cdf_sum, poisson_sf_sum, truncated_normal_moment


def mp_norm_cdf(z):
    return float(mpmath.ncdf(z))


class TestNormalPieces:
    def test_cdf_against_high_precision(self):
        for z in (-8.0, -3.0, -1.0, -0.1, 0.0, 0.7, 2.5, 6.0):
            assert_allclose(_gauss.norm_cdf(z), mp_norm_cdf(z), rtol=1e-14)

    def test_hazard_against_high_precision(self):
        # pdf/tail evaluated in 50-digit arithmetic; the naive float route
        # loses digits past |z| ~ 4 and dies past ~38, this must not
        # rtol covers the exp(z^2/2) conditioning floor of ~|z^2|*eps/2
        for z in (-30.0, -8.0, -2.0, 0.0, 1.5, 4.0, 8.0, 20.0, 37.0):
            with mpmath.workdps(50):
                want = float(mpmath.npdf(z) / mpmath.ncdf(-z))
            assert_allclose(float(_gauss.hazard(z)), want, rtol=5e-13)

    def test_hazard_far_tail_stays_finite_and_accurate(self):
        # against the asymptotic series z + 1/z - 2/z^3 + 10/z^5
        for z in (40.0, 100.0, 1e4):
            h = float(_gauss.hazard(z))
            series = z + 1 / z - 2 / z**3 + 10 / z**5
            assert math.isfinite(h)
            assert_allclose(h, series, rtol=1e-10)
        # deep opposite tail: hazard -> 0 like pdf
        assert float(_gauss.hazard(-40.0)) == pytest.approx(0.0, abs=1e-300)

    def test_fim_weight_identity(self):
        for z in (-8.0, -3.2, -0.7, 0.0, 1.1, 2.5, 5.0, 8.0):
            with mpmath.workdps(50):
                f = mpmath.ncdf(z)
                want = float(mpmath.npdf(z) ** 2 / (f * (1 - f)))
            assert_allclose(float(_gauss.fim_weight(z)), want, rtol=1e-13)
        # from the far left tail, where pdf nears the underflow floor, to
        # z = 8.2, past which 1 - CDF(z) rounds to 0 in CDF(z)
        rng = np.random.default_rng(7)
        zs = np.concatenate([np.linspace(-37.5, 8.2, 200), rng.uniform(-5.0, 5.0, 100)])
        got = _gauss.fim_weight(zs)
        want = np.empty_like(zs)
        with mpmath.workdps(50):
            for i, z in enumerate(zs):
                f = mpmath.ncdf(z)
                want[i] = float(mpmath.npdf(z) ** 2 / (f * (1 - f)))
        assert_allclose(got, want, rtol=1e-13)
        assert np.array_equal(_gauss.fim_weight(-zs), got)

    @pytest.mark.parametrize("z", [-2.3, -0.4, 0.0, 1.1, 2.8])
    @pytest.mark.parametrize("b", [1, -1])
    def test_truncated_moments_match_quadrature(self, z, b):
        # every raw moment of N(0, 1) on one side of z follows from the
        # signed hazard c alone: M_0 = 1, M_1 = -c and
        # M_k = (k - 1) M_{k-2} - z^{k-1} c; the Gaussian families read M_1, M_2
        c = _gauss.signed_hazard(np.array([z]), np.array([b]))[0]
        m_prev2, m_prev1 = 1.0, -c
        for power in range(1, 7):
            if power > 1:
                m_prev2, m_prev1 = m_prev1, (power - 1) * m_prev2 - z ** (power - 1) * c
            want = truncated_normal_moment(0.0, 1.0, z, b, power)
            assert_allclose(m_prev1, want, rtol=1e-8, atol=1e-10)

    def test_abs_third_moment(self):
        # standard case has the closed value 2*sqrt(2/pi)
        assert_allclose(
            _gauss.abs_third_moment(np.array([0.0]), 1.0)[0],
            2.0 * math.sqrt(2.0 / math.pi),
            rtol=1e-13,
        )
        # nonzero mean against quadrature
        from scipy.integrate import quad

        for mu, sigma in ((1.3, 0.7), (-2.0, 1.5)):
            want, _ = quad(
                lambda x: abs(x) ** 3
                * math.exp(-0.5 * ((x - mu) / sigma) ** 2)
                / (sigma * math.sqrt(2 * math.pi)),
                -np.inf,
                np.inf,
                limit=200,
            )
            got = _gauss.abs_third_moment(np.array([mu]), np.array([sigma]))[0]
            assert_allclose(got, want, rtol=1e-9)
        # the closed form evaluated in 60-digit arithmetic, over means far
        # out on both sides of zero and small to moderate spreads
        rng = np.random.default_rng(3)
        mus = np.concatenate([rng.uniform(-50.0, 1e3, 200), rng.uniform(-5.0, 5.0, 200)])
        sigmas = rng.uniform(0.01, 3.0, 400)
        want = np.empty_like(mus)
        with mpmath.workdps(60):
            for i, (mu, sigma) in enumerate(zip(mus, sigmas)):
                mu, sigma = mpmath.mpf(float(mu)), mpmath.mpf(float(sigma))
                m = mu / sigma
                want[i] = float(
                    sigma**3
                    * (
                        mpmath.sqrt(2 / mpmath.pi) * (m**2 + 2) * mpmath.exp(-(m**2) / 2)
                        + m * (m**2 + 3) * mpmath.erf(m / mpmath.sqrt(2))
                    )
                )
        assert_allclose(_gauss.abs_third_moment(mus, sigmas), want, rtol=2e-15)


def mp_poisson_tails(t, lam):
    """(P(X <= t), P(X > t)) in 340-digit arithmetic through the upper
    incomplete gamma function, so the complement keeps every tail above
    the double-precision underflow threshold."""
    with mpmath.workdps(340):
        cdf = mpmath.gammainc(int(t) + 1, mpmath.mpf(float(lam)), mpmath.inf, regularized=True)
        return float(cdf), float(1 - cdf)


class TestPoissonPieces:
    def test_tails_match_pmf_summation(self):
        rng = np.random.default_rng(0)
        lam = rng.uniform(0.05, 50.0, 300)
        t = rng.integers(0, 201, 300)
        for name, fn, oracle in (
            ("cdf", _poisson.poisson_cdf, poisson_cdf_sum),
            ("sf", _poisson.poisson_sf, poisson_sf_sum),
        ):
            want = [oracle(int(ti), float(li)) for ti, li in zip(t, lam)]
            assert np.max(np.abs(fn(t, lam) - want)) < 1e-12, name

    def test_cdf_large_rates_against_mpmath(self):
        for lam in (750.0, 2000.0, 9000.0):
            for t in (int(lam) - 50, int(lam), int(lam) + 120):
                got = float(_poisson.poisson_cdf(np.array([t]), np.array([lam]))[0])
                want, _ = mp_poisson_tails(t, lam)
                assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_negative_threshold(self):
        assert float(_poisson.poisson_cdf(np.array([-1]), np.array([2.0]))[0]) == 0.0
        assert float(_poisson.poisson_sf(np.array([-1]), np.array([2.0]))[0]) == 1.0

    def test_sf_is_direct_not_complement(self):
        # survival values far below the cancellation floor of 1 - cdf
        got = float(_poisson.poisson_sf(np.array([40]), np.array([1.0]))[0])
        _, want = mp_poisson_tails(40, 1.0)
        assert want < 1e-40  # 1 - cdf would be exactly 0 here
        assert_allclose(got, want, rtol=1e-10)

    def test_far_left_tail_at_a_large_rate(self):
        # the rate-seeded pmf summation lost every left tail below ~1e-22
        # once the rate passed 700 and returned 0 here
        got = float(_poisson.poisson_cdf(550, 1086.07)[0])
        want, _ = mp_poisson_tails(550, 1086.07)
        assert_allclose(want, 1.7642e-72, rtol=1e-4)
        assert_allclose(got, want, rtol=1e-10)

    def test_survival_near_one_far_below_the_rate(self):
        # summing upward from a pmf seed that underflows returned 0 here
        _, want = mp_poisson_tails(215, 1975.6)
        assert want == 1.0
        assert float(_poisson.poisson_sf(215, 1975.6)[0]) == 1.0

    def test_tails_across_the_supported_rate_range(self):
        # rates log-uniform up to the model's limit, thresholds up to 38
        # standard deviations to either side of the rate; plus the limit
        # itself 4.5-8 deviations above the rate, where scipy's lower-gamma
        # series runs longest
        rng = np.random.default_rng(5)
        top = models.PoissonModel.MAX_RATE
        lam = np.exp(rng.uniform(math.log(1e-2), math.log(top), 300))
        z = rng.uniform(-38.0, 38.0, 300)
        lam = np.concatenate([lam, np.full(8, top)])
        z = np.concatenate([z, np.linspace(4.5, 8.0, 8)])
        t = np.maximum(np.floor(lam + z * np.sqrt(lam)), 0).astype(np.int64)
        want = np.array([mp_poisson_tails(ti, li) for ti, li in zip(t, lam)])
        assert_allclose(_poisson.poisson_cdf(t, lam), want[:, 0], rtol=1e-10, atol=1e-300)
        assert_allclose(_poisson.poisson_sf(t, lam), want[:, 1], rtol=1e-10, atol=1e-300)

    def test_one_evaluation_matches_scipys_two_calls(self):
        # rates log-uniform from below 1e-6 up to the model's limit,
        # thresholds up to 40 standard deviations to either side
        rng = np.random.default_rng(8)
        lam = np.exp(rng.uniform(math.log(1e-8), math.log(models.PoissonModel.MAX_RATE), 20000))
        z = rng.uniform(-40.0, 40.0, lam.size)
        t = np.maximum(np.floor(lam + z * np.maximum(np.sqrt(lam), 1.0)), 0).astype(np.int64)
        cdf, sf = _poisson.poisson_tails(t, lam)
        want_cdf, want_sf = special.pdtr(t, lam), special.pdtrc(t, lam)
        # scipy evaluates the two ratios separately in its asymptotic bands
        # (Temme's expansion, in a = t + 1) and, at a = 1, in its power
        # series band 1/1.1 <= lam <= 1.1; everywhere else one of its two
        # calls is 1 minus the other's ratio
        a = t + 1.0
        near = np.abs(lam - a) / a
        asymptotic = ((a > 20) & (a < 200) & (near < 0.3)) | ((a > 200) & (near < 4.5 / np.sqrt(a)))
        series = (a == 1) & (lam >= 1 / 1.1) & (lam <= 1.1)
        assert np.count_nonzero(asymptotic) > 100 and np.count_nonzero(series) > 10
        exact = ~(asymptotic | series)
        assert np.array_equal(cdf[exact], want_cdf[exact])
        assert np.array_equal(sf[exact], want_sf[exact])
        eps = np.finfo(float).eps
        for got, want in ((cdf, want_cdf), (sf, want_sf)):
            assert_allclose(got[asymptotic], want[asymptotic], rtol=4 * eps, atol=0)
            # there F = exp(-lam) is 1 - S, and the complement scales the
            # ~4 eps of scipy's S by up to S/F < e - 1
            assert_allclose(got[series], want[series], rtol=8 * eps, atol=0)

    def test_negative_thresholds_give_zero_and_one(self):
        cdf, sf = _poisson.poisson_tails([[-1], [-7]], [1e-9, 2.0, 1e5])
        assert np.array_equal(cdf, np.zeros((2, 3))) and np.array_equal(sf, np.ones((2, 3)))

    def test_index_weight_evaluates_one_tail_per_row(self, monkeypatch):
        evaluated = {"pdtr": 0, "pdtrc": 0}

        def counting(name):
            def ufunc(*args, where=True, **kwargs):
                evaluated[name] += np.count_nonzero(
                    np.broadcast_to(where, np.broadcast_shapes(*(np.shape(x) for x in args)))
                )
                return getattr(special, name)(*args, where=where, **kwargs)

            return ufunc

        monkeypatch.setattr(
            _poisson,
            "special",
            types.SimpleNamespace(
                pdtr=counting("pdtr"), pdtrc=counting("pdtrc"), gammaln=special.gammaln
            ),
        )
        rng = np.random.default_rng(2)
        n = 500
        family = models.PoissonModel(rng.uniform(0.5, 2.0, n))
        designs = family.design_set(rng.integers(0, 40, n).astype(float))
        X, offset = family.index_regressors(designs)
        family.index_weight(offset + X @ np.array([1.5]), designs)
        assert evaluated["pdtr"] > 0 and evaluated["pdtrc"] > 0
        assert evaluated["pdtr"] + evaluated["pdtrc"] == n

    def test_bit_prob_takes_the_bit_side(self):
        t = np.array([0, 3, 3, 12])
        lam = np.array([0.5, 2.0, 2.0, 9.0])
        bits = np.array([1, 1, -1, -1])
        want = np.where(
            bits > 0, _poisson.poisson_cdf(t, lam), _poisson.poisson_sf(t, lam)
        )
        assert np.array_equal(_poisson.bit_prob(t, lam, bits), want)

    def test_cdf_plus_sf(self):
        rng = np.random.default_rng(1)
        lam = rng.uniform(0.1, 30.0, 100)
        t = rng.integers(0, 60, 100)
        total = _poisson.poisson_cdf(t, lam) + _poisson.poisson_sf(t, lam)
        assert_allclose(total, 1.0, rtol=0, atol=1e-14)

