"""Single-block prior: Bayes factors, shrinkage, and the sigma^2 limit.

Oracles used here: mpmath closed forms, direct quadrature over g, a
conjugate-style numeric double integral, and plain Monte Carlo over the
prior (agreement within 3 standard errors).
"""

import math
import warnings

import mpmath
import numpy as np
import oracles
import pytest
from gquad import log_bf_hyper_g_gquad
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blockhyperg import hyperg
from blockhyperg.design import BlockPartition, CenteredDesign, fit_least_squares
from blockhyperg.errors import DomainError
from blockhyperg.hyperg import (FixedGPrior, HyperGPrior, InverseGammaParams,
                                bf_fixed_g, bf_hyper_g, bf_ratio_hyper_g,
                                hyper_g_scores, log_bf_fixed_g_stats,
                                log_bf_hyper_g_stats,
                                log_bf_ratio_hyper_g,
                                posterior_mean_hyper_g, shrinkage_hyper_g,
                                shrinkage_hyper_g_stats,
                                sigma2_limit_hyper_g)

mpmath.mp.dps = 40


def _fit(n=40, p=3, seed=0, beta_scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X -= X.mean(axis=0)
    y = X @ (beta_scale * rng.normal(size=p)) + rng.normal(size=n)
    y -= y.mean()
    d = CenteredDesign(y=y, X=X, partition=BlockPartition.single(p))
    return d, fit_least_squares(d)


def _mp_log_bf(a, n, p, r2):
    lead = mpmath.log(mpmath.mpf(a - 2) / (p + a - 2))
    return float(lead + mpmath.log(
        mpmath.hyp2f1(mpmath.mpf(n - 1) / 2, 1, mpmath.mpf(a + p) / 2, r2)))


class TestFixedG:
    def test_formula(self):
        g, n, p, r2 = 7.0, 30, 2, 0.4
        want = (1 + g) ** ((n - p - 1) / 2) / (1 + g * (1 - r2)) ** ((n - 1) / 2)
        assert math.exp(log_bf_fixed_g_stats(g, n, p, r2)) == pytest.approx(
            want, rel=1e-12)

    def test_g_zero_collapses(self):
        assert log_bf_fixed_g_stats(0.0, 30, 2, 0.5) == 0.0

    def test_lindley_paradox(self):
        # fixed data, R^2 < 1: the BF vanishes as g grows
        lb3 = log_bf_fixed_g_stats(1e3, 50, 3, 0.6)
        lb12 = log_bf_fixed_g_stats(1e12, 50, 3, 0.6)
        assert lb12 < lb3

    def test_information_paradox_value(self):
        # at R^2 = 1 the BF equals (1+g)^((n-p-1)/2) exactly: finite plateau
        g, n, p = 25.0, 20, 4
        assert log_bf_fixed_g_stats(g, n, p, 1.0, 0.0) == pytest.approx(
            0.5 * (n - p - 1) * math.log1p(g), rel=1e-14)

    def test_prior_object(self):
        d, fit = _fit()
        assert bf_fixed_g(FixedGPrior(4.0), fit) == pytest.approx(
            math.exp(log_bf_fixed_g_stats(4.0, fit.n, fit.p, fit.r2,
                                          fit.one_minus_r2)))
        with pytest.raises(DomainError):
            FixedGPrior(-1.0)


class TestHyperGBayesFactor:
    def test_matches_mpmath(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            a = rng.uniform(2.1, 4.0)
            p = int(rng.integers(1, 8))
            n = p + 2 + int(rng.integers(0, 60))
            r2 = rng.uniform(0.0, 0.99)
            got = log_bf_hyper_g_stats(a, n, p, r2)
            assert got == pytest.approx(_mp_log_bf(a, n, p, r2), rel=1e-9,
                                        abs=1e-10)

    def test_gquad_oracle(self):
        for a, n, p, r2 in [(3.0, 25, 2, 0.3), (2.5, 60, 5, 0.9),
                            (4.0, 15, 3, 0.05), (3.4, 200, 1, 0.97)]:
            direct = log_bf_hyper_g_stats(a, n, p, r2)
            quad = log_bf_hyper_g_gquad(a, n, p, r2)
            assert direct == pytest.approx(quad, abs=5e-10)

    def test_monte_carlo_oracle(self):
        # plain MC over the prior on g: agreement within 3 standard errors
        rng = np.random.default_rng(7)
        a, n, p, r2 = 3.0, 30, 2, 0.5
        u = rng.random(400_000)
        g = (1.0 - u) ** (-2.0 / (a - 2.0)) - 1.0  # inverse cdf of the prior
        vals = np.exp(0.5 * (n - p - 1) * np.log1p(g)
                      - 0.5 * (n - 1) * np.log1p(g * (1 - r2)))
        est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
        want = math.exp(log_bf_hyper_g_stats(a, n, p, r2))
        assert abs(est - want) < 3 * se

    def test_conjugate_double_integral_oracle(self):
        # marginal-likelihood ratio written as an integral over (g, sigma^2)
        # collapses to the same BF; checked by tight log-space quadrature
        from blockhyperg._quadlog import adaptive_log_integral
        a, n, p, r2 = 3.2, 18, 2, 0.62
        c1, c2 = 0.5 * (n - p - 1 - a), 0.5 * (n - 1)

        def logf(x):
            g = np.exp(x)
            return x + c1 * np.log1p(g) - c2 * np.log1p(g * (1 - r2))

        val, _ = adaptive_log_integral(logf, -50.0, 80.0, rtol=1e-12,
                                       seed_points=(0.0,))
        want = math.log(0.5 * (a - 2.0)) + val
        assert log_bf_hyper_g_stats(a, n, p, r2) == pytest.approx(
            want, abs=1e-10)

    def test_unit_r2_divergent_and_band_warning(self):
        assert log_bf_hyper_g_stats(3.0, 60, 3, 1.0, 0.0) == math.inf
        with pytest.warns(RuntimeWarning):
            log_bf_hyper_g_stats(3.0, 7, 3, 1.0, 0.0)  # n in [p+a-1, p+a+1]

    def test_unit_r2_finite_when_small_n(self):
        # n < a + p - 1: the Gauss value applies
        a, n, p = 4.0, 5, 3
        got = log_bf_hyper_g_stats(a, n, p, 1.0, 0.0)
        lead = math.log(a - 2.0) - math.log(p + a - 2.0)
        m, c = 0.5 * (n - 1), 0.5 * (a + p)
        gauss = (math.lgamma(c) + math.lgamma(c - m - 1.0)
                 - math.lgamma(c - m) - math.lgamma(c - 1.0))
        assert got == pytest.approx(lead + gauss, rel=1e-12)

    def test_near_unit_r2_diverges(self):
        # n > p + a + 1 and R^2 -> 1: log BF exceeds any bound
        assert log_bf_hyper_g_stats(3.0, 40, 3, 1.0 - 1e-8, 1e-8) > 20.0

    def test_prior_object_and_validation(self):
        d, fit = _fit()
        assert bf_hyper_g(HyperGPrior(3.0), fit) == pytest.approx(
            math.exp(log_bf_hyper_g_stats(3.0, fit.n, fit.p, fit.r2,
                                          fit.one_minus_r2)))
        with pytest.raises(DomainError):
            HyperGPrior(2.0)
        with pytest.raises(DomainError):
            HyperGPrior(4.5)
        with pytest.raises(DomainError):
            log_bf_hyper_g_stats(3.0, 4, 3, 0.5)


def _mp_hyper_g(a, n, p, omr2):
    """log BF and shrinkage E[g/(1+g)] as mpmath integrals over u = log g.

    1-R^2 enters only through 1 + g (1-R^2), so no digits are needed to
    carry it, and the oracle shares no step with either library route.
    Breakpoints sit around the peak, where omega g = t for g >> 1.
    """
    with mpmath.workdps(20):
        a_, om = mpmath.mpf(a), mpmath.mpf(omr2)
        c1, c2 = (n - p - 1 - a_) / 2, mpmath.mpf(n - 1) / 2
        t = (1 + c1) / (c2 - 1 - c1)
        u_pk = mpmath.log(t / om)
        width = (1 + t) / mpmath.sqrt(c2 * t)

        def logf(u):
            return (u + c1 * mpmath.log1p(mpmath.exp(u))
                    - c2 * mpmath.log1p(om * mpmath.exp(u)))

        pts = ([-mpmath.inf]
               + sorted({mpmath.mpf(0), u_pk - 8 * width, u_pk,
                         u_pk + 8 * width}) + [mpmath.inf])
        f_pk = logf(u_pk)
        i0 = mpmath.quad(lambda u: mpmath.exp(logf(u) - f_pk), pts)
        i1 = mpmath.quad(lambda u: mpmath.exp(logf(u) - f_pk)
                         / (1 + mpmath.exp(-u)), pts)
        return (float(mpmath.log((a_ - 2) / 2) + f_pk + mpmath.log(i0)),
                float(i1 / i0))


class TestAgainstMpmath:
    """The closed form (R^2 >= 1/2) and the series (R^2 < 1/2) at
    n > p+a+1, in the scalar functions and in `hyper_g_scores`, over
    1-R^2 down to 1e-300, a near 2 and a = 4, n up to 5000, p up to 25."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=st.one_of(st.floats(2.0 + 1e-6, 2.01), st.just(4.0),
                       st.floats(2.01, 4.0)),
           p=st.integers(1, 25), n=st.integers(5, 5000),
           log10_omr2=st.floats(-300.0, -1e-3))
    @example(a=2.0 + 1e-6, p=25, n=5000, log10_omr2=-300.0)
    @example(a=4.0, p=1, n=7, log10_omr2=-300.0)
    @example(a=3.0, p=20, n=5000, log10_omr2=math.log10(0.5))
    @example(a=3.0, p=20, n=5000, log10_omr2=math.log10(0.55))
    def test_log_bf_and_shrinkage(self, a, p, n, log10_omr2):
        assume(n > p + a + 1.0)
        omr2 = 10.0 ** log10_omr2
        want_bf, want_s = _mp_hyper_g(a, n, p, omr2)
        got_bf = log_bf_hyper_g_stats(a, n, p, 1.0 - omr2, omr2)
        got_s = shrinkage_hyper_g_stats(a, n, p, 1.0 - omr2, omr2)
        # plain floats: numpy scalars leak into the JSON reports otherwise
        assert type(got_bf) is float and type(got_s) is float
        many_bf, many_s = hyper_g_scores(a, [n], [p], [1.0 - omr2], [omr2])
        for bf, s in ((got_bf, got_s), (many_bf[0], many_s[0])):
            assert abs(bf - want_bf) <= 1e-12 * max(1.0, abs(want_bf))
            assert abs(s - want_s) <= 1e-12 * want_s

    def test_incomplete_beta_underflow_takes_the_series(self):
        # p = 3000, n = p+5, R^2 = 1/2: I_z(c-1, q) is below 1e-308, so
        # the closed form cannot carry it; at p = 1000 it still can
        for p in (3000, 1000):
            a, n, omr2 = 3.0, p + 5, 0.5
            m, c = mpmath.mpf(n - 1) / 2, mpmath.mpf(a + p) / 2
            f1 = mpmath.hyp2f1(m, 1, c, omr2)
            want_bf = float(mpmath.log((a - 2) / (p + a - 2) * f1))
            want_s = float(2 / (p + a) * mpmath.hyp2f1(m, 2, c + 1, omr2)
                           / f1)
            got = hyper_g_scores(a, n, [p], [1.0 - omr2], [omr2])
            for bf, s in ((log_bf_hyper_g_stats(a, n, p, 0.5, omr2),
                           shrinkage_hyper_g_stats(a, n, p, 0.5, omr2)),
                          (got[0][0], got[1][0])):
                assert bf == pytest.approx(want_bf, rel=1e-12)
                assert s == pytest.approx(want_s, rel=1e-12)


class TestOneRouteTable:
    """`log_bf_hyper_g_stats` and `shrinkage_hyper_g_stats` are one-model
    calls of the route table behind `hyper_g_scores`, so each gives exactly
    the value `hyper_g_scores` gives for that model, in every regime."""

    @staticmethod
    def _cases():
        # closed form (1-R^2 <= 1/2, n > p+a+1), series (1-R^2 > 1/2),
        # the band n <= p+a+1 near R^2 = 1, and exact unit R^2
        cases = [(a, n, p, omr2)
                 for a in (2.0 + 1e-6, 3.0, 4.0) for p in (1, 2, 5, 23)
                 for n in (p + 2, p + 5, 100, 5000)
                 for omr2 in (0.0, 1e-300, 1e-8, 0.3, 0.5, 0.55, 0.9, 1.0)]
        # closed-form underflow
        cases.append((3.0, 3005, 3000, 0.5))
        # both sides of n = a+p-1 = 25.11, inside the band n <= 27.11 and
        # above it, down to 1-R^2 = 1e-300 and at unit R^2
        cases += [(3.1147, n, 23, omr2) for n in (25, 26, 27, 28)
                  for omr2 in (0.0, 1e-300, 1e-34, 1e-8, 1e-3)]
        return cases

    def test_scalar_values_are_the_batched_values(self):
        assert np.isnan(hyperg._closed_form(3.0, 3005, 3000, 0.5)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for a, n, p, omr2 in self._cases():
                r2 = 1.0 - omr2
                bf, s = hyper_g_scores(a, [n], [p], [r2], [omr2])
                assert log_bf_hyper_g_stats(a, n, p, r2, omr2) == bf[0]
                assert shrinkage_hyper_g_stats(a, n, p, r2, omr2) == s[0]

    def test_shrinkage_below_p_plus_2(self):
        # hyper_g_scores refuses n <= p+1; the shrinkage still comes from
        # its table, with 2/(p+a) at n = 1
        for a, p in ((3.0, 5), (4.0, 1), (3.1147, 23)):
            for n in range(1, p + 2):
                for omr2 in (0.0, 1e-300, 1e-8, 0.3, 0.7, 1.0):
                    want = hyperg._route_table(
                        a, np.array([n]), np.array([p]),
                        np.array([1.0 - omr2]), np.array([omr2]))[1][0]
                    got = shrinkage_hyper_g_stats(a, n, p, 1.0 - omr2, omr2)
                    assert got == want
                    if n == 1:
                        assert got == 2.0 / (p + a)
                    with pytest.raises(DomainError):
                        hyper_g_scores(a, [n], [p], [1.0 - omr2], [omr2])

    def test_domain_checked_before_any_2f1(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("2F1 evaluated before the domain check")

        monkeypatch.setattr(hyperg, "block_integrals_gamma1d_batch", refuse)
        # a band entry, which needs a 2F1, next to one with n <= p+1
        with pytest.raises(DomainError):
            hyper_g_scores(3.1147, [26, 24], [23, 23], [1.0 - 1e-8, 0.5],
                           [1e-8, 0.5])
        with pytest.raises(DomainError):
            hyper_g_scores(3.0, [26], [23], [1.5], [0.0])
        with pytest.raises(DomainError):
            hyper_g_scores(3.0, [26], [23], [0.5], [math.nan])

    def test_band_warning_at_unit_r2(self):
        a, p = 3.1147, 23
        for n in (25, 26, 27, 28):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                bf, s = hyper_g_scores(a, [n], [p], [1.0], [0.0])
            assert [w.category for w in seen] == (
                [RuntimeWarning] if a + p - 1 <= n <= p + a + 1 else [])
            assert math.isinf(bf[0]) == (n >= a + p - 1)
            assert s[0] == (1.0 if n >= a + p - 1 else 2.0 / (p + a - n + 1))


class TestBoundedBand:
    """n < p+a-1, where the 2F1 is barely convergent at R^2 = 1."""

    A, N, P = 3.1147, 25, 23

    def test_continuous_at_unit_r2(self):
        # the value at 1-R^2 = 1e-300 agrees with the R^2 = 1 limit: the
        # gap is of order (1e-300)^(c-a-b) with c-a-b = 0.057
        a, n, p = self.A, self.N, self.P
        assert log_bf_hyper_g_stats(a, n, p, 1.0, 1e-300) == pytest.approx(
            log_bf_hyper_g_stats(a, n, p, 1.0, 0.0), rel=1e-10)
        limit = shrinkage_hyper_g_stats(a, n, p, 1.0, 0.0)
        assert limit == pytest.approx(2.0 / (p + a - n + 1.0), rel=1e-14)
        assert shrinkage_hyper_g_stats(a, n, p, 1.0, 1e-300) == \
            pytest.approx(limit, rel=1e-10)

    @pytest.mark.parametrize("omr2", [1e-8, 1e-34])
    def test_matches_mpmath(self, omr2):
        a, n, p = self.A, self.N, self.P
        with mpmath.workdps(80):
            m, c = mpmath.mpf(n - 1) / 2, mpmath.mpf(a + p) / 2
            z = 1 - mpmath.mpf(omr2)
            f1 = mpmath.hyp2f1(m, 1, c, z)
            want_bf = float(mpmath.log((a - 2) / (p + a - 2) * f1))
            want_s = float(2 / (p + a) * mpmath.hyp2f1(m, 2, c + 1, z) / f1)
        assert log_bf_hyper_g_stats(a, n, p, 1.0 - omr2, omr2) == \
            pytest.approx(want_bf, rel=1e-10)
        assert shrinkage_hyper_g_stats(a, n, p, 1.0 - omr2, omr2) == \
            pytest.approx(want_s, rel=1e-10)


class TestBandAgainstOracle:
    """What the closed form leaves near R^2 = 1, scored by the series or
    by the k = 1 block integral, against `oracles.hyper_g`: the band
    n <= p+a+1 over 1-R^2 from 1e-300 to 0.05, a near 2 and a = 4, p up
    to 1000, closed-form underflow at n > p+a+1, and the finite log BF at
    unit R^2."""

    @staticmethod
    def _check(a, n, p, omr2):
        want_bf, want_s = oracles.hyper_g(a, n, p, omr2)
        bf, s = hyper_g_scores(a, [n], [p], [1.0 - omr2], [omr2])
        assert abs(bf[0] - want_bf) <= 1e-12 * max(1.0, abs(want_bf))
        assert abs(s[0] - want_s) <= 1e-12 * want_s

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=st.one_of(st.floats(2.0 + 1e-6, 2.01), st.just(4.0),
                       st.floats(2.01, 4.0)),
           p=st.integers(1, 25), dn=st.integers(1, 4),
           log10_omr2=st.floats(-300.0, math.log10(0.05)))
    @example(a=2.5, p=1000, dn=2, log10_omr2=-300.0)
    @example(a=3.1147, p=1000, dn=1, log10_omr2=-2.0)
    @example(a=4.0, p=250, dn=4, log10_omr2=-8.0)
    @example(a=2.0 + 1e-6, p=50, dn=1, log10_omr2=-300.0)
    @example(a=4.0, p=3, dn=1, log10_omr2=-34.0)
    @example(a=3.1147, p=23, dn=1, log10_omr2=-300.0)
    def test_band(self, a, p, dn, log10_omr2):
        # n = p+1+dn runs from p+2 to p+a+1
        assume(dn <= a)
        n = p + 1 + dn
        self._check(a, n, p, 10.0 ** log10_omr2)
        if n < a + p - 1.0:
            # Gauss's summation at unit R^2
            want = float(mpmath.log(mpmath.mpf(a - 2.0) / (a + p - n - 1)))
            assert log_bf_hyper_g_stats(a, n, p, 1.0, 0.0) == pytest.approx(
                want, rel=1e-14)

    @pytest.mark.parametrize("a,n,p,omr2", [(3.0, 30010, 30000, 0.049),
                                            (4.0, 40050, 40000, 0.045)])
    def test_closed_form_underflow(self, a, n, p, omr2):
        # n > p+a+1, where an incomplete-beta factor of the closed form
        # is below the smallest normal double
        assert np.isnan(hyperg._closed_form(a, n, p, omr2)[0])
        self._check(a, n, p, omr2)


class TestShrinkage:
    def test_ratio_of_2f1(self):
        a, n, p, r2 = 3.0, 30, 4, 0.55
        m = 0.5 * (n - 1)
        want = float(2.0 / (p + a)
                     * mpmath.hyp2f1(m, 2, (p + a) / 2 + 1, r2)
                     / mpmath.hyp2f1(m, 1, (p + a) / 2, r2))
        assert shrinkage_hyper_g_stats(a, n, p, r2) == pytest.approx(
            want, rel=1e-10)

    def test_posterior_mean_shrinks_ls(self):
        d, fit = _fit(seed=3)
        prior = HyperGPrior(3.0)
        s = shrinkage_hyper_g(prior, fit)
        assert 0.0 < s < 1.0
        np.testing.assert_allclose(posterior_mean_hyper_g(prior, fit),
                                   s * fit.beta_hat_ls)

    def test_unit_r2_limits(self):
        # saturating branch
        assert shrinkage_hyper_g_stats(3.0, 30, 3, 1.0, 0.0) == 1.0
        # small-n branch: 2 / (p + a - n + 1)
        assert shrinkage_hyper_g_stats(4.0, 3, 4, 1.0, 0.0) == pytest.approx(
            2.0 / (4 + 4.0 - 3 + 1))
        # n = 1 gives the overall minimum 2 / (p + a)
        assert shrinkage_hyper_g_stats(3.0, 1, 2, 1.0, 0.0) == pytest.approx(
            2.0 / (2 + 3.0))
        assert shrinkage_hyper_g_stats(3.0, 1, 2, 0.7) == pytest.approx(
            2.0 / (2 + 3.0))

    def test_monotone_in_r2(self):
        vals = [shrinkage_hyper_g_stats(3.0, 40, 3, r2)
                for r2 in (0.0, 0.2, 0.5, 0.8, 0.95)]
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(2.0 / (3 + 3.0), rel=1e-12)


class TestModelRatios:
    def test_ratio_is_difference_of_logs(self):
        rng = np.random.default_rng(5)
        n, p1, p2 = 50, 2, 2
        X = rng.normal(size=(n, p1 + p2))
        X -= X.mean(axis=0)
        y = X[:, :p1] @ np.array([1.0, -0.5]) + rng.normal(size=n)
        y -= y.mean()
        d_big = CenteredDesign(y=y, X=X,
                               partition=BlockPartition.single(p1 + p2))
        d_small = CenteredDesign(y=y, X=X[:, :p1],
                                 partition=BlockPartition.single(p1))
        fb, fs = fit_least_squares(d_big), fit_least_squares(d_small)
        prior = HyperGPrior(3.0)
        got = log_bf_ratio_hyper_g(prior, fb, fs)
        want = (log_bf_hyper_g_stats(3.0, n, p1 + p2, fb.r2, fb.one_minus_r2)
                - log_bf_hyper_g_stats(3.0, n, p1, fs.r2, fs.one_minus_r2))
        assert got == pytest.approx(want, rel=1e-12)
        assert bf_ratio_hyper_g(prior, fb, fs) == pytest.approx(
            math.exp(got))

    def test_rejects_mismatched_data(self):
        d1, f1 = _fit(seed=1)
        d2, f2 = _fit(seed=2)
        with pytest.raises(DomainError):
            log_bf_ratio_hyper_g(HyperGPrior(3.0), f1, f2)


class TestSigma2Limit:
    def test_parameters_and_mean(self):
        a, n, p, s2 = 3.0, 60, 4, 1.7
        ig = sigma2_limit_hyper_g(HyperGPrior(a), n, p, s2)
        assert ig.shape == pytest.approx(0.5 * (n + 1 - a - p))
        assert ig.scale == pytest.approx(2.0 / ((n - p - 1) * s2))
        assert ig.mean == pytest.approx((n - p - 1) * s2 / (n - p - a - 1))

    def test_density_normalizes(self):
        from scipy.integrate import quad
        ig = InverseGammaParams(shape=5.0, scale=0.25)
        total, _ = quad(ig.pdf, 1e-6, 200.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-7)
        mean, _ = quad(lambda x: x * ig.pdf(x), 1e-6, 500.0, limit=300)
        assert mean == pytest.approx(ig.mean, rel=1e-6)

    def test_degenerate_and_domain(self):
        ig = sigma2_limit_hyper_g(HyperGPrior(3.0), 30, 2, 0.0)
        assert math.isinf(ig.scale) and ig.mean == 0.0
        with pytest.raises(DomainError):
            sigma2_limit_hyper_g(HyperGPrior(3.0), 5, 3, 1.0)
