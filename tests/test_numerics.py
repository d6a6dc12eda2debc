"""Oracles for the low-level normal and Poisson building blocks."""

import math
import types
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special

from bitglm import _gauss, _order, _poisson, models
from conftest import MODEL_NAMES, random_instance
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


def mp_poisson_tails(t, lam, dps=340):
    """(P(X <= t), P(X > t)) in ``dps``-digit arithmetic through the upper
    incomplete gamma function; at the default 340 digits the complement
    keeps every tail above the double-precision underflow threshold."""
    with mpmath.workdps(dps):
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
        # left tails below the summing bound are the finite sum, not scipy
        summed = (t + 1 <= lam) & (lam < _poisson.SUM_BELOW_RATE)
        # scipy evaluates the two ratios separately in its asymptotic bands
        # (Temme's expansion, in a = t + 1) and, at a = 1, in its power
        # series band 1/1.1 <= lam <= 1.1; everywhere else one of its two
        # calls is 1 minus the other's ratio
        a = t + 1.0
        near = np.abs(lam - a) / a
        asymptotic = ((a > 20) & (a < 200) & (near < 0.3)) | ((a > 200) & (near < 4.5 / np.sqrt(a)))
        series = (a == 1) & (lam >= 1 / 1.1) & (lam <= 1.1) & ~summed
        assert np.count_nonzero(asymptotic) > 100 and np.count_nonzero(series) > 10
        assert not np.any(asymptotic & summed) and np.count_nonzero(summed) > 500
        exact = ~(asymptotic | series | summed)
        assert np.array_equal(cdf[exact], want_cdf[exact])
        assert np.array_equal(sf[exact], want_sf[exact])
        eps = np.finfo(float).eps
        for got, want in ((cdf, want_cdf), (sf, want_sf)):
            assert_allclose(got[asymptotic], want[asymptotic], rtol=4 * eps, atol=0)
            # there F = exp(-lam) is 1 - S, and the complement scales the
            # ~4 eps of scipy's S by up to S/F < e - 1
            assert_allclose(got[series], want[series], rtol=8 * eps, atol=0)
        # the summed left tails hold 4 eps of 50-digit mpmath, where scipy's
        # pdtr is off by up to 17 eps on such rows; their complement, as
        # above, scales that by up to F/S < e - 1
        want = np.array([mp_poisson_tails(ti, li, dps=50) for ti, li in zip(t[summed], lam[summed])])
        assert_allclose(cdf[summed], want[:, 0], rtol=4 * eps, atol=0)
        assert_allclose(sf[summed], want[:, 1], rtol=8 * eps, atol=0)

    def test_summed_left_tails_against_mpmath(self):
        # every threshold the sum takes, at rates across [t + 1, 16)
        rng = np.random.default_rng(13)
        t = rng.integers(0, 15, 3000)
        lam = rng.uniform(t + 1.0, _poisson.SUM_BELOW_RATE)
        lam[:15] = np.arange(1.0, 16.0)  # lam = t + 1 exactly
        t[:15] = np.arange(15)
        cdf, _ = _poisson.poisson_tails(t, lam)
        want = np.array([mp_poisson_tails(ti, li, dps=50)[0] for ti, li in zip(t, lam)])
        assert_allclose(cdf, want, rtol=4 * np.finfo(float).eps, atol=0)

    def test_a_summed_row_does_not_depend_on_its_batch(self):
        t = np.array([2.0, 14.0, 0.0, 9.0, 40.0])
        lam = np.array([3.7, 15.5, 1.0, 12.25, 3.0])
        cdf, sf = _poisson.poisson_tails(t, lam)
        for i in range(t.size):
            alone = _poisson.poisson_tails(t[i:i + 1], lam[i:i + 1])
            assert alone[0][0] == cdf[i] and alone[1][0] == sf[i]

    def test_negative_thresholds_give_zero_and_one(self):
        cdf, sf = _poisson.poisson_tails([[-1], [-7]], [1e-9, 2.0, 1e5])
        assert np.array_equal(cdf, np.zeros((2, 3))) and np.array_equal(sf, np.ones((2, 3)))

    def test_index_weight_evaluates_one_tail_per_row(self, monkeypatch):
        evaluated = []

        def counting(name):
            def ufunc(t, lam):
                evaluated.extend(zip(t, lam))
                return getattr(special, name)(t, lam)

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
        z = offset + X @ np.array([1.5])
        family.index_weight(z, designs)
        t, lam = designs.taus, np.exp(-z)
        summed = (t + 1 <= lam) & (lam < _poisson.SUM_BELOW_RATE)
        assert 0 < np.count_nonzero(summed) < n - 100 and np.any(~summed & (t + 1 <= lam))
        # one incomplete gamma on each row that is not summed, none on a summed one
        assert sorted(evaluated) == sorted(zip(t[~summed], lam[~summed]))

    def test_pmf_reads_log_factorials_from_gammaln(self, monkeypatch):
        table = np.arange(_poisson.LOG_FACTORIAL_ROWS, dtype=float)
        assert np.array_equal(_poisson._LOG_FACTORIAL, special.gammaln(table + 1.0))
        x = np.concatenate([table, [1024.0, 5000.0, 2e5, 2.0**63, -1.0, -3.0]])
        lam = np.random.default_rng(4).uniform(0.5, 3e5, x.size)
        want = np.where(x < 0, 0.0, np.exp(x * np.log(lam) - lam - special.gammaln(x + 1.0)))
        called = []

        def gammaln(v):
            called.extend(v)
            return special.gammaln(v)

        monkeypatch.setattr(_poisson, "special", types.SimpleNamespace(gammaln=gammaln))
        assert np.array_equal(_poisson.poisson_pmf(x, lam), want)
        # gammaln itself only off the table
        assert called == [1025.0, 5001.0, 2e5 + 1.0, 2.0**63, 0.0, -2.0]
        assert _poisson.poisson_pmf(3.0, 2.0).shape == ()

    def test_cdf_plus_sf(self):
        rng = np.random.default_rng(1)
        lam = rng.uniform(0.1, 30.0, 100)
        t = rng.integers(0, 60, 100)
        total = _poisson.poisson_cdf(t, lam) + _poisson.poisson_sf(t, lam)
        assert_allclose(total, 1.0, rtol=0, atol=1e-14)


class TestPoissonKernels:
    """The family's weight and link read one far tail per row
    (``far_tail``); each is pinned, bit for bit, to its formula in the two
    tails of ``poisson_tails`` and ``poisson_pmf``."""

    @staticmethod
    def rows(rng):
        """(family, designs, z, lam, t): rows on all three routes, far right
        tails, thresholds past the log t! table and rates up to MAX_RATE."""
        top = math.log(models.PoissonModel.MAX_RATE)
        while np.exp(top) > models.PoissonModel.MAX_RATE:
            top = math.nextafter(top, 0.0)
        z = -rng.uniform(math.log(1e-3), top, 3000)
        z[:5] = -top  # the largest rate the family accepts
        lam = np.exp(-z)
        sd = np.sqrt(lam)
        t = np.floor(np.maximum(0.0, lam + sd * rng.uniform(-12.0, 40.0, lam.size)))
        t[-300:] = np.floor(lam[-300:] + 60.0 * sd[-300:] + 40.0)  # far: S underflows on some
        t[-600:-300] = rng.integers(1000, 1100, 300)
        z[-600:-300] = -np.log(t[-600:-300] + rng.uniform(-40.0, 40.0, 300))
        lam = np.exp(-z)
        fam = models.PoissonModel(np.ones(lam.size))
        return fam, fam.design_set(t + 0.5), z, lam, t

    def test_rows_cover_every_route(self, rng):
        _, _, _, lam, t = self.rows(rng)
        right = t + 1 > lam
        assert right.sum() > 500 and (~right & (lam >= 16.0)).sum() > 300
        assert (~right & (lam < 16.0)).sum() > 50
        assert (t >= 1024).sum() > 300 and lam.max() > (1.0 - 1e-12) * models.PoissonModel.MAX_RATE
        assert (_poisson.poisson_sf(t, lam) == 0.0).sum() > 10

    def test_far_tail_places_both_tails(self, rng):
        _, _, _, lam, t = self.rows(rng)
        t[:20] = -1.0  # below the support
        far, right = _poisson.far_tail(t, lam)
        cdf, sf = _poisson.poisson_tails(t, lam)
        assert np.array_equal(right, t + 1 > lam)
        assert np.array_equal(np.where(right, sf, cdf), far)
        assert np.array_equal(np.where(right, cdf, sf), 1.0 - far)

    def test_index_weight_is_the_tails_formula(self, rng):
        fam, ds, z, lam, t = self.rows(rng)
        cdf, sf = _poisson.poisson_tails(t, lam)
        lam_pmf = lam * _poisson.poisson_pmf(t, lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = (lam_pmf / cdf) * (lam_pmf / sf)
        assert not np.isfinite(want).all()
        assert np.array_equal(fam.index_weight(z, ds), want, equal_nan=True)

    def test_index_link_takes_the_bit_side(self, rng):
        fam, ds, z, lam, t = self.rows(rng)
        bits = rng.choice(np.array([-1, 1], dtype=np.int8), lam.size)
        cdf, sf = _poisson.poisson_tails(t, lam)
        own = np.where(bits > 0, cdf, sf)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_h = lam * (bits.astype(float) * _poisson.poisson_pmf(t, lam) / own)
            want = (np.log(own), lam_h, lam_h * (lam - t - 1.0 - lam_h))
        got = fam.index_link(z, ds, bits)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)

    def test_rates_are_the_natural_parameters_gemv(self, rng):
        # exp(v theta): one product a row, the bytes of the k = 1 GEMV
        v = rng.standard_normal(5000) * 10.0 ** rng.uniform(-3.0, 1.0, 5000)
        v[:3] = [0.0, -0.0, 1e-300]
        fam = models.PoissonModel(v)
        ds = fam.design_set(np.zeros(v.size))
        for theta in (0.7, -1.3, 1e-5, -0.0):
            want = np.exp(ds.natural_params([theta])[:, 0])
            keep = want <= fam.MAX_RATE
            ds_kept = ds.subset(np.flatnonzero(keep))
            assert np.array_equal(fam.uncensored_information([theta], ds_kept)[0, 0],
                                  np.add.reduce(v[keep] * (want[keep] * v[keep])))
            assert np.array_equal(fam.sample([theta], ds_kept, np.random.default_rng(3)),
                                  np.random.default_rng(3).poisson(want[keep]).astype(float))


#: Row counts on either side of the ordering threshold and across block edges.
SIZES = [
    _order.ORDERED_ROWS - 1, _order.ORDERED_ROWS, _order.ORDER_BLOCK + 1, 3 * _order.ORDER_BLOCK - 5,
]
#: erfcx's edges: signed zeros, subnormals, Faddeeva's |x| >= 50 branch, its
#: x < 0 routes (an exp alone below -6.1, overflow below -26.7) and non-finite rows.
ERFCX_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 49.99999999, 50.0, -50.0, 5e7, 1e300,
    -6.1, -6.2, -26.7, -26.8, np.inf, -np.inf, np.nan,
]


def _with_edges(rng, x, edges):
    """``x`` with ``edges`` written at random distinct rows."""
    x[rng.choice(x.size, len(edges), replace=False)] = edges
    return x


def _gamma_rows(rng, n):
    """(t, lam): n rows on all three far-tail routes, with thresholds past the
    key's clip at 511, rates past its clip at 15.75, and t = -1 and t = 0."""
    lam = np.exp(rng.uniform(math.log(1e-3), math.log(models.PoissonModel.MAX_RATE), n))
    t = np.floor(np.maximum(-1.0, lam + np.sqrt(lam) * rng.uniform(-6.0, 6.0, n)))
    at = rng.choice(n, 8, replace=False)
    t[at], lam[at] = [-1.0, 0.0, 0.0, 511.0, 512.0, 1e4, 3.0, 14.0], [1.0, 1e-3, 15.75, 512.0, 400.0, 1e4, 15.75, 15.75]
    return t, lam


class TestKeyOrder:
    """From ``_order.ORDERED_ROWS`` rows on, the kernels evaluate erfcx,
    log_ndtr and the incomplete gamma in blocks sorted by a key of each row's
    branch.  A value depends on its own row alone, so every output equals the
    plain scipy call in row order, bit for bit."""

    @settings(max_examples=24, deadline=None)
    @given(n=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.5, 5.0, 60.0]))
    def test_erfcx_is_scipys(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        x = _with_edges(rng, scale * rng.standard_normal(n), ERFCX_EDGES)
        assert np.array_equal(_gauss.erfcx(x), special.erfcx(x), equal_nan=True)
        # ordered exactly from ORDERED_ROWS rows on
        key = mock.Mock(wraps=_gauss._erfcx_piece)
        _order.in_key_order(special.erfcx, key, x)
        assert key.called == (n >= _order.ORDERED_ROWS)

    @settings(max_examples=24, deadline=None)
    @given(n=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.5, 5.0, 60.0]))
    def test_log_cdf_and_signed_hazard_are_scipys(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        z = _with_edges(rng, scale * rng.standard_normal(n), ERFCX_EDGES)
        bits = rng.choice(np.array([-1, 1], dtype=np.int8), n)
        bz = bits * z
        with np.errstate(divide="ignore"):  # erfcx(inf) = 0
            log_p, c = _gauss.log_cdf_and_signed_hazard(z, bits)
            want = bits * (math.sqrt(2.0 / math.pi) / special.erfcx(-bz / math.sqrt(2.0)))
            assert np.array_equal(c, _gauss.signed_hazard(z, bits), equal_nan=True)
        assert np.array_equal(log_p, special.log_ndtr(bz), equal_nan=True)
        assert np.array_equal(c, want, equal_nan=True)

    @settings(max_examples=16, deadline=None)
    @given(n=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1))
    def test_far_tail_is_its_routes_scipy_calls(self, n, seed):
        rng = np.random.default_rng(seed)
        t, lam = _gamma_rows(rng, n)
        right = t + 1 > lam
        left = ~right & (t >= 0)
        summed = left & (lam < _poisson.SUM_BELOW_RATE)
        want = np.zeros(n)
        want[right] = special.pdtrc(t[right], lam[right])
        want[left & ~summed] = special.pdtr(t[left & ~summed], lam[left & ~summed])
        want[summed] = _poisson._left_tail_sum(t[summed], lam[summed])
        far, got_right = _poisson.far_tail(t, lam)
        assert np.array_equal(got_right, right) and np.array_equal(far, want)
        assert np.array_equal(_poisson.pdtrc(t[t >= 0], lam[t >= 0]), special.pdtrc(t[t >= 0], lam[t >= 0]))
        assert np.array_equal(_poisson.pdtr(t[t >= 0], lam[t >= 0]), special.pdtr(t[t >= 0], lam[t >= 0]))

    def test_the_largest_size_orders_both_gamma_routes(self):
        # the right tails across a block edge; the summed route, in row order
        t, lam = _gamma_rows(np.random.default_rng(0), SIZES[-1])
        right = t + 1 > lam
        assert right.sum() > _order.ORDER_BLOCK
        assert (~right & (lam >= _poisson.SUM_BELOW_RATE)).sum() > _order.ORDERED_ROWS
        assert (~right & (t >= 0) & (lam < _poisson.SUM_BELOW_RATE)).sum() > 500

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_the_families_equal_their_row_order_evaluation(self, name, rng):
        fam, theta, ds = random_instance(name, rng, n=_order.ORDER_BLOCK + 3)
        X, offset = fam.index_regressors(ds)
        z = offset + X.dot(fam.index_from_theta(theta))
        bits = rng.choice(np.array([-1, 1], dtype=np.int8), ds.n)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ordered = [*fam.index_link(z, ds, bits), fam.index_weight(z, ds), _gauss.fim_weight(z)]
            with mock.patch.object(_order, "ORDERED_ROWS", math.inf):
                plain = [*fam.index_link(z, ds, bits), fam.index_weight(z, ds), _gauss.fim_weight(z)]
        for a, b in zip(ordered, plain):
            assert np.array_equal(a, b, equal_nan=True)
