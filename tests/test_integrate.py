"""Cross-checks between the three routes for the shrinkage integrals."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from blockhyperg._quadlog import (adaptive_log_integral, logsumexp,
                                  peak_bracket)
from blockhyperg.errors import DomainError, IntegralDiverges, NoConvergence
from blockhyperg.integrate import (block_integrals_gamma1d,
                                   block_integrals_qmc,
                                   block_integrals_quadrature)

mpmath.mp.dps = 30


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

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats is most of the import time and only the QMC
        # reference uses it
        code = ("import sys, blockhyperg; "
                "sys.exit('scipy.stats' in sys.modules)")
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
