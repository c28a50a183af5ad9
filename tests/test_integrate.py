"""Cross-checks between the three routes for the shrinkage integrals."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockhyperg import integrate, special
from blockhyperg._quadlog import (GAUSS_WEIGHTS, KRONROD_NODES,
                                  KRONROD_WEIGHTS, adaptive_log_integral,
                                  logsumexp, peak_bracket)
from blockhyperg.errors import DomainError, IntegralDiverges, NoConvergence
from blockhyperg.integrate import (block_integrals_gamma1d,
                                   block_integrals_gamma1d_batch,
                                   block_integrals_qmc,
                                   block_integrals_quadrature)

mpmath.mp.dps = 30


def _batch(cases, rtol):
    """block_integrals_gamma1d_batch over (bpow, rho, delta, m) cases, the
    shorter ones padded with bpow = rho = 0; one BlockIntegrals per case,
    its log_i_axis cut to the case's own axes."""
    width = max(len(c[0]) for c in cases)
    bpow, rho = np.zeros((len(cases), width)), np.zeros((len(cases), width))
    for j, (b, r, _, _) in enumerate(cases):
        bpow[j, :len(b)], rho[j, :len(r)] = b, r
    res = block_integrals_gamma1d_batch(
        bpow, rho, np.array([c[2] for c in cases], dtype=float),
        np.array([c[3] for c in cases], dtype=float), rtol=rtol)
    return [integrate.BlockIntegrals(
        float(res.log_i0[j]), res.log_i_axis[j, :len(c[0])],
        float(res.error[j]), int(res.n_evals[j]), res.method)
        for j, c in enumerate(cases)]


def _draw(rng, k, spread=1.0):
    bpow = rng.uniform(0.1, 2.5, size=k)
    raw = rng.dirichlet(np.ones(k + 1))
    rho = raw[:k] * spread
    delta = 1.0 - rho.sum()
    m = rng.uniform(5.0, 400.0)
    return bpow, rho, delta, m


class TestTensorVsGamma1d:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_instances(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(6):
            bpow, rho, delta, m = _draw(rng, k)
            quad = block_integrals_quadrature(bpow, rho, delta, m)
            oracle = block_integrals_gamma1d(bpow, rho, delta, m)
            assert quad.log_i0 == pytest.approx(oracle.log_i0, abs=2e-6)
            np.testing.assert_allclose(quad.t_mean, oracle.t_mean,
                                       atol=2e-6)

    def test_extreme_delta(self):
        # near-unit total R^2, carried exactly through delta
        bpow = np.array([0.75, 1.25])
        rho = np.array([0.9, 0.1 - 1e-17])
        delta = 1e-17
        m = 24.5  # small enough that the integral stays proper
        quad = block_integrals_quadrature(bpow, rho, delta, m)
        oracle = block_integrals_gamma1d(bpow, rho, delta, m)
        assert quad.log_i0 == pytest.approx(oracle.log_i0, abs=1e-6)

    def test_k1_closed_form(self):
        # J(0) = 2F1(m, 1; b+2; z) / (b+1) at z = rho/(delta+rho) scaled
        b, rho, m = 0.5, 0.85, 30.0
        delta = 1.0 - rho
        res = block_integrals_quadrature(np.array([b]), np.array([rho]),
                                         delta, m)
        want = float(mpmath.log(
            mpmath.hyp2f1(m, 1, b + 2, rho) / (b + 1)))
        assert res.log_i0 == pytest.approx(want, abs=1e-9)
        want_ax = float(mpmath.log(
            mpmath.hyp2f1(m, 1, b + 3, rho) / (b + 2)))
        assert res.log_i_axis[0] == pytest.approx(want_ax, abs=1e-9)


class TestProductionRoute:
    @pytest.mark.parametrize("rho", [1.0, 0.7])
    def test_unit_r2_proper_closed_form(self, rho):
        # delta = 0, k = 1: J(e) = rho^-m / (b + e + 1 - m) while m < b + 1.
        # The tail in log lam decays only at rate b + 1 - m = 0.4
        b, m = 0.9, 1.5
        res = block_integrals_gamma1d(np.array([b]), np.array([rho]), 0.0,
                                      m, rtol=1e-7)
        assert res.log_i0 == pytest.approx(
            -m * math.log(rho) - math.log(b + 1.0 - m), abs=1e-7)
        assert res.t_mean[0] == pytest.approx(
            1.0 - (b + 1.0 - m) / (b + 2.0 - m), abs=1e-7)

    def test_unit_r2_tail_past_overflow(self):
        # a = 3.1147, p = 1, n = 3: J(0) = 1/(b + 1 - m) with a tail of
        # rate b + 1 - m = 0.057 in log lam, which the bracket follows past
        # x = 709.8, where lam = e^x overflows
        a, p, n = 3.1147, 1, 3
        b, m = 0.5 * (a + p) - 2.0, 0.5 * (n - 1)
        res = block_integrals_gamma1d([b], [1.0], 0.0, m)
        assert math.log(0.5 * (a - 2.0)) + res.log_i0 == pytest.approx(
            math.log((a - 2.0) / (a + p - n - 1.0)), rel=1e-10)
        assert res.t_mean[0] == pytest.approx(1.0 / (b + 2.0 - m),
                                              rel=1e-10)
        # two blocks, rate k(a-2)/2 + p/2 - m = 0.05
        a, n, sizes, rho = 3.05, 5, (1, 1), (0.6, 0.4)
        want_bf, want_s = oracles.block_k2(a, n, sizes, rho, 0.0)
        res = block_integrals_gamma1d(
            0.5 * (a + np.array(sizes, dtype=float)) - 2.0, np.array(rho),
            0.0, 0.5 * (n - 1))
        assert 2.0 * math.log(0.5 * (a - 2.0)) + res.log_i0 == \
            pytest.approx(want_bf, rel=1e-10)
        np.testing.assert_allclose(res.s_mean, want_s, rtol=1e-10)
        # a tail of rate 0.03 needs 2000 units to fall by e^60, beyond the
        # end walk's 80 steps of 20
        with pytest.raises(NoConvergence):
            block_integrals_gamma1d([0.03], [1.0], 0.0, 1.0)

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats is most of the import time and only the QMC
        # reference uses it; scipy.linalg is used nowhere, since least
        # squares runs on numpy's QR
        code = ("import sys, blockhyperg; "
                "sys.exit('scipy.stats' in sys.modules "
                "or 'scipy.linalg' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0

    def test_logsumexp_matches_scipy(self):
        # the panel sums' own helper keeps scipy's values, and a row of
        # all -inf (a panel where the integrand underflows) gives -inf
        from scipy.special import logsumexp as scipy_logsumexp
        rows = np.array([[1.0, 2.0, 3.0], [-np.inf] * 3,
                         [np.inf, 1.0, 2.0], [-np.inf, 0.0, -np.inf],
                         [800.0, 800.0, -1.0], [-800.0, -801.0, -1e300]])
        got = logsumexp(rows, axis=1)
        np.testing.assert_allclose(got, scipy_logsumexp(rows, axis=1),
                                   rtol=1e-15)
        assert got[1] == -np.inf
        assert logsumexp(np.array([0.0, 0.0])) == pytest.approx(math.log(2))

    @pytest.mark.parametrize("rtol", [1e-7, 1e-4])
    def test_reports_measured_error_and_evaluations(self, rtol):
        rng = np.random.default_rng(21)
        bpow, rho, delta, m = _draw(rng, 4)
        res = block_integrals_gamma1d(bpow, rho, delta, m, rtol=rtol)
        oracle = block_integrals_gamma1d(bpow, rho, delta, m)
        assert res.method == "gamma1d"
        assert res.n_evals > 0
        assert 0.0 <= res.error <= 0.1 * rtol
        assert res.log_i0 == pytest.approx(oracle.log_i0, abs=rtol)
        np.testing.assert_allclose(res.t_mean, oracle.t_mean, atol=rtol)


class TestKronrodRule:
    def test_gauss_nodes_are_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(KRONROD_NODES[1::2], x, rtol=0.0,
                                   atol=1e-15)
        np.testing.assert_allclose(GAUSS_WEIGHTS, w, rtol=0.0, atol=1e-15)
        assert np.all(np.diff(KRONROD_NODES) > 0.0)

    def test_kronrod_degree(self):
        # 21 nodes, exact through degree 31; x^30 is the top even power
        for j in (0, 2, 10, 20, 30):
            assert KRONROD_WEIGHTS @ KRONROD_NODES ** j == pytest.approx(
                2.0 / (j + 1), rel=1e-14)
        assert KRONROD_WEIGHTS @ KRONROD_NODES ** 31 == pytest.approx(
            0.0, abs=1e-16)


class TestOnePass:
    """A block posterior at the rtol its callers use: the bracket scan and
    one pass of 8 Kronrod panels, 61 + 168 = 229 nodes per column."""

    @pytest.mark.parametrize("rtol", [1e-4, 1e-7])
    @pytest.mark.parametrize("k", [2, 3])
    def test_scan_and_one_pass(self, k, rtol, monkeypatch):
        # every call of the integrand evaluates the incomplete-gamma
        # ratios once, for all its nodes: k entries per node
        real, calls = integrate.log_inc_gamma_ratio_pair, []

        def counting(*args):
            calls.append(len(args[1]) // k)
            return real(*args)
        monkeypatch.setattr(integrate, "log_inc_gamma_ratio_pair", counting)
        bpow, rho, delta, m = _draw(np.random.default_rng(21), k)
        res = block_integrals_gamma1d(bpow, rho, delta, m, rtol=rtol)
        assert res.error <= 0.1 * rtol
        assert len(calls) == 2
        assert res.n_evals / (k + 1) == sum(calls) <= 250

    def test_one_incomplete_gamma_per_node_and_axis(self, monkeypatch):
        # a mixed batch: k = 1 to 3, so the shorter models have padded
        # axes; a block of 500, whose lower side goes straight to the
        # series; and a delta = 0 model whose tail runs past x = 709.8,
        # where lam overflows. Each active (node, axis) reaches gammaincc,
        # gammainc or the series once, for both of its shapes
        counts = {"gammainc": 0, "gammaincc": 0, "series": 0}
        tail = []
        for name in ("gammainc", "gammaincc"):
            real = getattr(special, name)

            def counting(b, y, _real=real, _name=name):
                counts[_name] += b.size
                if _name == "gammaincc":
                    tail.append(np.isinf(y).any())
                return _real(b, y)
            monkeypatch.setattr(special, name, counting)
        real_series = special._series_log_ratio

        def series(b, y):
            # shapes up to 30 came here from gammainc, and are counted there
            counts["series"] += int(np.sum(b > special._GAMMAINC_MAX_SHAPE))
            return real_series(b, y)
        monkeypatch.setattr(special, "_series_log_ratio", series)
        members = [(3.1147, (1,), 3, (1.0,), 0.0),
                   (3.0, (2, 1), 40, (0.5, 0.2), 0.3),
                   (3.0, (1, 1, 2), 40, (0.3, 0.1, 0.05), 0.55),
                   (4.0, (2, 500), 600, (0.3, 0.2), 0.5)]
        cases = [(0.5 * (a + np.array(sizes, dtype=float)) - 2.0,
                  np.array(rho), omr2, 0.5 * (n - 1))
                 for a, sizes, n, rho, omr2 in members]
        batch = _batch(cases, 1e-7)
        want = sum(len(r.log_i_axis) * r.n_evals // (len(r.log_i_axis) + 1)
                   for r in batch)
        assert any(tail)
        assert counts["series"] > 0
        assert sum(counts.values()) == want


class TestAgainstOracles:
    """gamma1d against tests/oracles.py, which shares no step with it."""

    @pytest.mark.parametrize("a,n", [(2.0 + 1e-6, 27), (2.5, 28),
                                     (3.1147, 28)])
    def test_hyper_g_band_at_tiny_delta(self, a, n):
        # k = 1 is the hyper-g posterior: p = 25 inside the band
        # n <= p+a+1, at 1-R^2 = 1e-300, where the inner rtol 1e-13 is
        # close to the rounding floor of the panels' error estimates
        p, omr2 = 25, 1e-300
        want_bf, want_t = oracles.hyper_g(a, n, p, omr2)
        res = block_integrals_gamma1d(np.array([0.5 * (a + p) - 2.0]),
                                      np.array([1.0 - omr2]), omr2,
                                      0.5 * (n - 1), rtol=1e-12)
        log_bf = math.log(0.5 * (a - 2.0)) + res.log_i0
        assert log_bf == pytest.approx(want_bf, rel=1e-12)
        assert res.t_mean[0] == pytest.approx(want_t, rel=0.0, abs=1e-12)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(a=st.floats(2.5, 4.0), p1=st.integers(1, 4),
           p2=st.one_of(st.integers(1, 4), st.integers(50, 500)),
           extra=st.integers(2, 1600), share=st.floats(0.05, 0.95),
           log10_omr2=st.floats(-12.0, math.log10(0.3)),
           rtol=st.sampled_from([1e-4, 1e-7]))
    @example(a=3.0, p1=2, p2=500, extra=2, share=0.5, log10_omr2=-12.0,
             rtol=1e-4)
    @example(a=4.0, p1=1, p2=60, extra=40, share=0.9, log10_omr2=-12.0,
             rtol=1e-7)
    def test_reported_error_bounds_the_actual_error(
            self, a, p1, p2, extra, share, log10_omr2, rtol):
        # two blocks, one of them possibly large (b_2 = (a+p_2)/2 - 2 up
        # to 250), and 1-R^2 down to 1e-12
        sizes, n = (p1, p2), p1 + p2 + extra
        omr2 = 10.0 ** log10_omr2
        rho = [share * (1.0 - omr2), (1.0 - share) * (1.0 - omr2)]
        want_bf, want_s = oracles.block_k2(a, n, sizes, rho, omr2)
        want = want_bf - 2.0 * math.log(0.5 * (a - 2.0))
        bpow = 0.5 * (a + np.array(sizes, dtype=float)) - 2.0
        res = block_integrals_gamma1d(bpow, np.array(rho), omr2,
                                      0.5 * (n - 1), rtol=rtol)
        # log J's error is J's relative error, the estimate's unit; the
        # floor is two ulp of log J, below which the oracle is not exact
        assert abs(res.log_i0 - want) <= max(
            res.error, 4e-16 * max(1.0, abs(want)))
        assert res.log_i0 == pytest.approx(want, rel=0.0, abs=rtol)
        np.testing.assert_allclose(res.s_mean, want_s, rtol=0.0, atol=rtol)


    def test_reported_error_bounds_the_actual_error_in_a_batch(self):
        # the draws of the test above, from the same ranges, scored
        # together: each batch mixes large and small blocks and 1-R^2
        # from 1e-12 to 0.3, and is held to the same bound
        rng = np.random.default_rng(11)
        draws = [(3.0, 2, 500, 2, 0.5, -12.0), (4.0, 1, 60, 40, 0.9, -12.0)]
        for _ in range(8):
            draws.append((rng.uniform(2.5, 4.0), int(rng.integers(1, 5)),
                          int(rng.choice([rng.integers(1, 5),
                                          rng.integers(50, 501)])),
                          int(rng.integers(2, 1601)), rng.uniform(0.05, 0.95),
                          rng.uniform(-12.0, math.log10(0.3))))
        cases, wants = [], []
        for a, p1, p2, extra, share, log10_omr2 in draws:
            sizes, n = (p1, p2), p1 + p2 + extra
            omr2 = 10.0 ** log10_omr2
            rho = [share * (1.0 - omr2), (1.0 - share) * (1.0 - omr2)]
            want_bf, want_s = oracles.block_k2(a, n, sizes, rho, omr2)
            wants.append((want_bf - 2.0 * math.log(0.5 * (a - 2.0)), want_s))
            cases.append((0.5 * (a + np.array(sizes, dtype=float)) - 2.0,
                          np.array(rho), omr2, 0.5 * (n - 1)))
        for rtol in (1e-4, 1e-7):
            results = _batch(cases, rtol)
            for res, (want, want_s) in zip(results, wants):
                assert abs(res.log_i0 - want) <= max(
                    res.error, 4e-16 * max(1.0, abs(want)))
                assert res.log_i0 == pytest.approx(want, rel=0.0, abs=rtol)
                np.testing.assert_allclose(res.s_mean, want_s, rtol=0.0,
                                           atol=rtol)


class TestMixedBatch:
    """One batch whose members between them meet every branch of the
    batched bracket and panel bookkeeping: each must get the values, error
    and node count it gets alone, bit for bit."""

    MEMBERS = [
        # (a, sizes, n, block R^2, 1-R^2)
        (3.0, (2, 1), 40, (0.5, 0.2), 0.3),
        (3.0, (1, 1), 12, (0.6, 0.4), 1e-300),  # refines three times
        (3.05, (1, 1), 5, (0.6, 0.4), 0.0),  # a tail of rate 0.05: walks
        # test_unit_r2_tail_past_overflow's k = 1 case: the window moves
        # and the tail is taken past x = 709.8
        (3.1147, (1,), 3, (1.0,), 0.0),
        (3.0, (1, 2), 40, (0.4, 0.0), 0.6),  # an inactive axis
        (4.0, (2, 500), 600, (0.3, 0.2), 0.5),  # a block of 500
    ]
    RTOL = 1e-12

    @staticmethod
    def _case(a, sizes, n, rho, omr2):
        return (0.5 * (a + np.array(sizes, dtype=float)) - 2.0,
                np.array(rho), omr2, 0.5 * (n - 1))

    def test_members_get_their_batch_of_one_values(self, monkeypatch):
        cases = [self._case(*mem) for mem in self.MEMBERS]
        batch = _batch(cases, self.RTOL)
        real, calls = integrate._radial_logf_columns, []

        def recording(*args):
            logf = real(*args)

            def counted(x, idx):
                calls[-1].append(len(x))
                return logf(x, idx)
            return counted
        monkeypatch.setattr(integrate, "_radial_logf_columns", recording)
        for case, got in zip(cases, batch):
            calls.append([])
            alone = block_integrals_gamma1d(*case, rtol=self.RTOL)
            assert got.log_i0 == alone.log_i0
            np.testing.assert_array_equal(got.log_i_axis, alone.log_i_axis)
            assert got.error == alone.error
            assert got.n_evals == alone.n_evals
        # alone, a member's calls are its scan windows (61 points each),
        # end-walk steps (2) and quadrature passes (21 per panel)
        scans = [c.count(61) for c in calls]
        walks = [c.count(2) for c in calls]
        passes = [sum(v % 21 == 0 for v in c) for c in calls]
        assert max(scans) >= 2 and max(walks) >= 1 and max(passes) >= 4

    def test_no_convergence_names_its_own_integral(self):
        # x^p on (0, 1] with p near -1: the panel at the singular end
        # converges too slowly for 60 passes, so the three singular
        # members all fail in the last pass, each with its own error; the
        # first one still open is the one named
        powers = np.array([0.0, -0.9, -0.8, -0.95])

        def logf(x, idx):
            p = powers[idx]
            return np.where(p == 0.0, -x, p * np.log(x))[:, None]

        def message(members):
            members = np.array(members)
            with pytest.raises(NoConvergence) as info:
                adaptive_log_integral(
                    lambda x, idx: logf(x, members[idx]),
                    np.zeros(len(members)), np.ones(len(members)),
                    rtol=1e-6)
            return str(info.value)
        alone = {j: message([j]) for j in (1, 2, 3)}
        assert len(set(alone.values())) == 3
        assert message([0, 1, 2]) == alone[1]
        assert message([0, 2, 1, 3]) == alone[2]
        assert message([3, 1]) == alone[3]


class TestVectorQuadrature:
    # exp(a x - b e^x) integrates to Gamma(a) / b^a over the real line
    COLS = [(2.0, 1.0), (3.5, 0.2), (0.7, 5.0)]

    @staticmethod
    def _logf(a, b):
        return lambda x: a * x - b * np.exp(x)

    def _many(self, x):
        return np.stack([self._logf(a, b)(x) for a, b in self.COLS], axis=1)

    @pytest.mark.parametrize("rtol", [1e-12, 1e-6])
    def test_columns_match_scalar_passes(self, rtol):
        lo, hi, x_pk = peak_bracket(self._many, 0.0)
        vals, errs = adaptive_log_integral(self._many, lo, hi, rtol=rtol,
                                           seed_points=(x_pk,))
        assert vals.shape == errs.shape == (len(self.COLS),)
        assert np.all(errs <= rtol)
        for j, (a, b) in enumerate(self.COLS):
            f = self._logf(a, b)
            lo1, hi1, pk1 = peak_bracket(f, 0.0)
            # the shared bracket covers each column's own
            assert lo <= lo1 and hi >= hi1
            val, err = adaptive_log_integral(f, lo1, hi1, rtol=rtol,
                                             seed_points=(pk1,))
            # a scalar integrand gets plain floats back
            assert all(type(v) is float for v in (lo1, hi1, pk1, val, err))
            assert vals[j] == pytest.approx(val, abs=rtol)
            exact = math.lgamma(a) - a * math.log(b)
            assert vals[j] == pytest.approx(exact, abs=rtol)
            assert val == pytest.approx(exact, abs=rtol)

    def test_bracket_waits_for_the_slowest_column(self):
        # the second column decays at rate 0.2 to the left: the shared
        # lower end must walk far past where the first column is negligible
        def two(x):
            return np.stack([2.0 * x - np.exp(x), 0.2 * x - np.exp(x)],
                            axis=1)
        lo, hi, x_pk = peak_bracket(two, 0.0)
        assert x_pk == pytest.approx(math.log(2.0), abs=0.5)
        # every column is 60 below its own peak at both ends
        peaks = np.array([2.0 * math.log(2.0) - 2.0,
                          0.2 * math.log(0.2) - 0.2])
        assert np.all(two(np.array([lo, hi])) < peaks - 60.0)
        assert lo < -250.0


    def test_window_follows_the_first_column(self):
        # the shape of J(0) and a J(e_i) at tiny delta: column 0 rises at
        # rate 1/2 up to its peak near x = 300, column 1 falls at rate 1/2
        # from its peak at x = 0. No scan window holds both peaks; the
        # window settles on column 0, and the end walk covers column 1
        def two(x):
            f0 = 0.5 * x - np.exp(x - 300.0)
            return np.stack([f0, f0 - np.logaddexp(0.0, x)], axis=1)
        lo, hi, x_pk = peak_bracket(two, 0.0)
        assert x_pk == pytest.approx(300.0 + math.log(0.5), abs=0.5)
        assert lo < -120.0
        vals, errs = adaptive_log_integral(two, lo, hi, rtol=1e-12,
                                           seed_points=(x_pk,))
        # e^150 Gamma(1/2), and B(1/2, 1/2) = pi up to a factor 1 - e^-150
        np.testing.assert_allclose(
            vals, [150.0 + 0.5 * math.log(math.pi), math.log(math.pi)],
            rtol=0.0, atol=1e-12)


class TestQmc:
    @pytest.mark.parametrize("k", [4, 5])
    def test_against_gamma1d(self, k):
        rng = np.random.default_rng(40 + k)
        bpow, rho, delta, m = _draw(rng, k)
        res = block_integrals_qmc(bpow, rho, delta, m, seed=1)
        oracle = block_integrals_gamma1d(bpow, rho, delta, m)
        tol = max(1e-5, 3 * res.error)
        assert abs(res.log_i0 - oracle.log_i0) < tol
        np.testing.assert_allclose(res.t_mean, oracle.t_mean, atol=1e-4)

    def test_agrees_with_quadrature_small_k(self):
        # module invariant: the two main routes agree on shared ground
        rng = np.random.default_rng(77)
        for _ in range(4):
            bpow, rho, delta, m = _draw(rng, 3)
            q = block_integrals_quadrature(bpow, rho, delta, m)
            s = block_integrals_qmc(bpow, rho, delta, m, seed=5)
            assert abs(q.log_i0 - s.log_i0) < max(1e-5, 3 * s.error)

    def test_deterministic_given_seed(self):
        bpow = np.array([0.5, 0.5, 1.0, 1.5])
        rho = np.array([0.2, 0.1, 0.3, 0.15])
        r1 = block_integrals_qmc(bpow, rho, 0.25, 80.0, seed=9)
        r2 = block_integrals_qmc(bpow, rho, 0.25, 80.0, seed=9)
        assert r1.log_i0 == r2.log_i0
        r3 = block_integrals_qmc(bpow, rho, 0.25, 80.0, seed=10)
        assert r1.log_i0 != r3.log_i0


class TestEdgeCases:
    def test_all_axes_inactive(self):
        bpow = np.array([0.5, 1.0])
        res = block_integrals_quadrature(bpow, np.zeros(2), 1.0, 20.0)
        want = -float(np.log(bpow + 1.0).sum())
        assert res.log_i0 == pytest.approx(want, rel=1e-12)
        # per-axis moment swaps one 1/(b+1) for 1/(b+2)
        np.testing.assert_allclose(
            np.exp(res.log_i_axis - res.log_i0),
            (bpow + 1.0) / (bpow + 2.0), rtol=1e-12)

    def test_some_axes_inactive(self):
        bpow = np.array([0.75, 1.5])
        rho = np.array([0.6, 0.0])
        quad = block_integrals_quadrature(bpow, rho, 0.4, 35.0)
        oracle = block_integrals_gamma1d(bpow, rho, 0.4, 35.0)
        assert quad.log_i0 == pytest.approx(oracle.log_i0, abs=1e-8)
        np.testing.assert_allclose(quad.t_mean, oracle.t_mean, atol=1e-8)

    def test_divergence_detected(self):
        # delta = 0 and m >= sum(b+1): improper
        bpow = np.array([0.5, 0.5])
        rho = np.array([0.7, 0.3])
        with pytest.raises(IntegralDiverges):
            block_integrals_quadrature(bpow, rho, 0.0, 10.0)
        with pytest.raises(IntegralDiverges):
            block_integrals_gamma1d(bpow, rho, 0.0, 10.0)

    def test_inactive_axis_does_not_count_toward_propriety(self):
        # at delta = 0 an axis with rho = 0 separates into 1/(b+1), so the
        # threshold is sum(b+1) over the active axes only: 1.5, not 3
        bpow, rho = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        for route in (block_integrals_gamma1d, block_integrals_quadrature):
            with pytest.raises(IntegralDiverges):
                route(bpow, rho, 0.0, 1.6)
        # int_0^1 s^(0.5 - 1.4) ds = 10, times 1/1.5 for the inactive axis
        res = block_integrals_gamma1d(bpow, rho, 0.0, 1.4)
        assert res.log_i0 == pytest.approx(math.log(10.0 / 1.5), rel=1e-10)

    def test_delta_zero_proper_case(self):
        # m below the propriety threshold: finite even at delta = 0. The
        # oracle is a direct 2-D mpmath quadrature of J(0); the tensor
        # reference refuses delta = 0, where its grids miss mass
        bpow = np.array([1.5, 2.0])
        rho = np.array([0.7, 0.3])
        m = 3.0  # sum(b+1) = 6.5 > m
        want = float(mpmath.log(mpmath.quad(
            lambda s1, s2: (s1 ** bpow[0] * s2 ** bpow[1]
                            * (rho[0] * s1 + rho[1] * s2) ** -m),
            [0, 1], [0, 1])))
        oracle = block_integrals_gamma1d(bpow, rho, 0.0, m)
        assert oracle.log_i0 == pytest.approx(want, abs=1e-10)
        with pytest.raises(DomainError):
            block_integrals_quadrature(bpow, rho, 0.0, m)

    def test_loose_rtol_stays_within_band(self):
        rng = np.random.default_rng(8)
        bpow, rho, delta, m = _draw(rng, 3)
        fast = block_integrals_quadrature(bpow, rho, delta, m, rtol=1e-4)
        tight = block_integrals_quadrature(bpow, rho, delta, m)
        assert fast.n_evals < tight.n_evals
        assert fast.log_i0 == pytest.approx(tight.log_i0, abs=1e-4)
