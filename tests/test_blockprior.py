"""Block prior: reductions to the single-block case, the Laplace
approximation, divergence sentinels, shrinkage ordering, and the sigma^2
posteriors."""

import dataclasses
import math

import numpy as np
import oracles
import pytest

from blockhyperg import integrate
from blockhyperg.blockprior import (BlockHyperGPrior, Sigma2Density,
                                    _laplace_log_integral, _posteriors,
                                    _sigma2_mean, _sigma2_pieces,
                                    bf_block_hyper_g,
                                    bf_laplace, clp_lower_bound,
                                    laplace_t_star, log_bf_laplace,
                                    scale_blocks,
                                    sigma2_density_exact_block,
                                    sigma2_density_limit_block)
from blockhyperg.design import (BlockPartition, CenteredDesign, FitSummary,
                                block_orthogonalize, center_design,
                                fit_least_squares)
from blockhyperg.errors import (DomainError, IntegralDiverges,
                                NotBlockOrthogonal, OutOfInterior)
from blockhyperg.hyperg import log_bf_hyper_g_stats, shrinkage_hyper_g_stats


def _ortho_fit(n, sizes, beta, seed=0, noise=1.0):
    rng = np.random.default_rng(seed)
    p = sum(sizes)
    X = rng.normal(size=(n, p))
    d = center_design(X, X @ np.asarray(beta, dtype=float)
                      + noise * rng.normal(size=n),
                      BlockPartition.contiguous(sizes))
    q, _ = block_orthogonalize(d)
    return q, fit_least_squares(q)


class TestSingleBlockReduction:
    def test_log_bf_matches_closed_form(self):
        for seed in range(5):
            d, fit = _ortho_fit(40, (3,), [0.7, -0.4, 0.2], seed=seed)
            prior = BlockHyperGPrior(3.0, d.partition)
            post = bf_block_hyper_g(prior, fit)
            want = log_bf_hyper_g_stats(3.0, fit.n, fit.p, fit.r2,
                                        fit.one_minus_r2)
            assert post.log_bf_null == pytest.approx(want, abs=1e-6)

    def test_shrinkage_matches_closed_form(self):
        d, fit = _ortho_fit(60, (4,), [0.5, 0.5, -0.5, 0.1], seed=3)
        prior = BlockHyperGPrior(3.4, d.partition)
        post = bf_block_hyper_g(prior, fit)
        want = shrinkage_hyper_g_stats(3.4, fit.n, fit.p, fit.r2,
                                       fit.one_minus_r2)
        assert post.t_mean[0] == pytest.approx(want, abs=1e-6)


class TestBlockPosterior:
    def test_posterior_mean_scales_each_block(self):
        d, fit = _ortho_fit(80, (2, 3), [1.0, -0.5, 0.3, 0.3, 0.0], seed=1)
        prior = BlockHyperGPrior(3.0, d.partition)
        post = bf_block_hyper_g(prior, fit)
        mean = scale_blocks(fit.beta_hat_ls, prior.partition, post.t_mean)
        np.testing.assert_allclose(mean[:2], post.t_mean[0]
                                   * fit.beta_hat_ls[:2])
        np.testing.assert_allclose(mean[2:], post.t_mean[1]
                                   * fit.beta_hat_ls[2:])
        assert np.all(post.t_mean > 0.0) and np.all(post.t_mean < 1.0)

    def test_floor_for_no_signal_block(self):
        # block 2 carries no signal: its shrinkage stays near the floor
        d, fit = _ortho_fit(400, (2, 2), [2.0, -2.0, 0.0, 0.0], seed=2)
        prior = BlockHyperGPrior(3.0, d.partition)
        post = bf_block_hyper_g(prior, fit)
        floor = 2.0 / (3.0 + 2.0)
        assert post.t_mean[1] >= floor - 1e-12
        assert post.t_mean[1] < 0.7
        assert post.t_mean[0] > 0.95

    def test_ordering_vs_single_block_collapse(self):
        # E[t_m] under the joint posterior exceeds the value from the
        # one-block density built with the same R_m^2 but delta = 1 - R_m^2
        rng = np.random.default_rng(6)
        wins = 0
        for trial in range(50):
            sizes = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            beta = rng.normal(scale=0.6, size=sum(sizes))
            d, fit = _ortho_fit(35, sizes, beta, seed=100 + trial)
            a = float(rng.uniform(2.2, 4.0))
            prior = BlockHyperGPrior(a, d.partition)
            post = bf_block_hyper_g(prior, fit)
            m = 0.5 * (fit.n - 1)
            for i in range(2):
                r_m = float(fit.r2_blocks[i])
                solo = integrate.block_integrals_quadrature(
                    np.array([0.5 * (a + sizes[i]) - 2.0]),
                    np.array([r_m]), 1.0 - r_m, m)
                assert post.t_mean[i] > float(solo.t_mean[0]) - 1e-9
            wins += 1
        assert wins == 50

    def test_large_block_exact_values(self):
        # a=3, p = (402, 2): b = (200.5, 0.5), m = 600. Exact values from
        # mpmath, with the inner integral as a closed-form 2F1 and the outer
        # one by quad; tensor quadrature misses log J(0) by 5e-3
        import dataclasses
        d, fit = _ortho_fit(1201, (402, 2), np.zeros(404), seed=3)
        fit = dataclasses.replace(fit, r2=0.7, one_minus_r2=0.3,
                                  r2_blocks=np.array([0.5, 0.2]))
        post = bf_block_hyper_g(BlockHyperGPrior(3.0, d.partition), fit)
        assert post.method == "gamma1d"
        assert post.log_bf_null == pytest.approx(
            2.0 * math.log(0.5) + 226.494230596882, abs=1e-10)
        np.testing.assert_allclose(post.t_mean,
                                   [0.694696969697, 0.994318181818],
                                   atol=1e-10)

    def test_dominant_block_beside_an_inactive_one(self):
        # k = 2, R_1^2 = 1 - 1e-8, R_2^2 = 0: block 2 separates into a
        # constant, so block 1 is the single-block hyper-g posterior, whose
        # closed forms share no step with the gamma mixture
        import dataclasses
        a, n, p1, p2, omr2 = 3.0, 60, 3, 2, 1e-8
        d, fit = _ortho_fit(n, (p1, p2), np.zeros(p1 + p2), seed=14)
        fit = dataclasses.replace(fit, r2=1.0 - omr2, one_minus_r2=omr2,
                                  r2_blocks=np.array([1.0 - omr2, 0.0]))
        post = bf_block_hyper_g(BlockHyperGPrior(a, d.partition), fit)
        assert post.method == "gamma1d"
        assert 1.0 - post.t_mean[0] < 1e-8
        assert post.t_mean[0] == pytest.approx(
            shrinkage_hyper_g_stats(a, n, p1, 1.0 - omr2, omr2), abs=1e-15)
        assert post.t_mean[1] == pytest.approx(2.0 / (a + p2), rel=1e-12)
        assert post.log_bf_null == pytest.approx(
            log_bf_hyper_g_stats(a, n, p1, 1.0 - omr2, omr2)
            + math.log((a - 2.0) / (a + p2 - 2.0)), abs=1e-7)

    def test_requires_block_orthogonal(self):
        rng = np.random.default_rng(4)
        d = center_design(rng.normal(size=(30, 4)), rng.normal(size=30),
                          BlockPartition.contiguous((2, 2)))
        fit = fit_least_squares(d)
        prior = BlockHyperGPrior(3.0, d.partition)
        with pytest.raises(NotBlockOrthogonal):
            bf_block_hyper_g(prior, fit)

    def test_partition_mismatch_and_bad_method(self):
        d, fit = _ortho_fit(30, (2, 2), [1, 0, 0, 0], seed=5)
        with pytest.raises(DomainError):
            bf_block_hyper_g(BlockHyperGPrior(
                3.0, BlockPartition.contiguous((1, 3))), fit)
        # one entry point: there is no route keyword to pass
        with pytest.raises(TypeError):
            bf_block_hyper_g(BlockHyperGPrior(3.0, d.partition),
                             fit, method="exact")

    def test_prior_validation(self):
        part = BlockPartition.contiguous((2,))
        with pytest.raises(DomainError):
            BlockHyperGPrior(2.0, part)
        with pytest.raises(DomainError):
            BlockHyperGPrior(4.1, part)


def _summary(n, sizes, r2_blocks, omr2):
    """A block-orthogonal fit with these block R^2 and 1-R^2, y'y = 1."""
    p = sum(sizes)
    return FitSummary(n=n, p=p, p_i=tuple(sizes), alpha_hat=0.0,
                      beta_hat_ls=np.ones(p), sigma2_hat=omr2 / (n - p - 1),
                      r2=1.0 - omr2, r2_blocks=np.array(r2_blocks, float),
                      yty=1.0, one_minus_r2=omr2, block_orthogonal=True)


class TestBatch:
    """The array form of the block posteriors, one call per a, shares its
    integrand calls and nothing else: every member scores as it does
    alone."""

    MEMBERS = [
        # (a, sizes, n, block R^2, 1-R^2)
        (3.0, (2, 1), 40, (0.5, 0.2), 0.3),
        (3.0, (1, 1, 2), 40, (0.3, 0.1, 0.05), 0.55),  # another k
        (3.0, (2,), 30, (0.4,), 0.6),  # k = 1, padded next to k = 3
        (3.0, (1,), 10, (1.0,), 0.0),  # a limit between integrated rows
        (3.0, (1, 2), 40, (0.4, 0.0), 0.6),  # an inactive block
        (3.0, (1, 1), 12, (0.6, 0.4), 1e-300),  # 1-R^2 = 1e-300
        (4.0, (2, 500), 600, (0.3, 0.2), 0.5),  # b_2 = 250
        (3.0, (1, 1), 20, (0.7, 0.3), 0.0),  # the limit sentinel
    ]

    @staticmethod
    def _scores(members, rtol=1e-7):
        # one call per a, one row per member, padded with size 0 and R^2 0;
        # the rows of the results in the order of members
        out = [None] * len(members)
        for a in sorted({m[0] for m in members}):
            rows = [j for j, m in enumerate(members) if m[0] == a]
            width = max(len(members[j][1]) for j in rows)
            sizes = np.zeros((len(rows), width), dtype=int)
            rho = np.zeros((len(rows), width))
            for r, j in enumerate(rows):
                _, sz, _, r2, _ = members[j]
                sizes[r, :len(sz)], rho[r, :len(r2)] = sz, r2
            res = _posteriors(
                a, sizes, np.array([members[j][2] for j in rows]), rho,
                np.array([members[j][4] for j in rows]), rtol=rtol)
            for r, j in enumerate(rows):
                out[j] = [v[r] for v in res]
        return [list(v) for v in zip(*out)]

    def test_members_score_as_alone(self):
        log_bf, t_mean, s_mean, error, n_evals, method = self._scores(
            self.MEMBERS, rtol=1e-10)
        refined = 0
        for j, (a, sizes, n, r2, omr2) in enumerate(self.MEMBERS):
            prior = BlockHyperGPrior(a, BlockPartition.contiguous(sizes))
            fit = _summary(n, sizes, r2, omr2)
            alone = bf_block_hyper_g(prior, fit, rtol=1e-10)
            k = len(sizes)
            assert method[j] == alone.method
            assert log_bf[j] == alone.log_bf_null
            np.testing.assert_array_equal(t_mean[j][:k], alone.t_mean)
            assert error[j] == alone.error_estimate
            assert n_evals[j] == alone.n_evals
            _, rss, _, q = _sigma2_pieces(prior, fit)
            sigma2 = (None if method[j] == "limit" else
                      _sigma2_mean(rss, q, s_mean[j][:k], 0.5 * (n - 1)))
            assert sigma2 == alone.sigma2_mean
            # the scan and the first pass are 61 + 168 nodes per column
            refined += n_evals[j] > 229 * (k + 1)
        assert method.count("limit") == 2
        assert method[3] == method[-1] == "limit"
        assert n_evals[3] == n_evals[-1] == 0
        assert refined >= 1

    def test_boundary_member_raises_for_the_call(self):
        # unit R^2 at n = k(a-2)+p+1 = 5: the whole call raises, with the
        # message the model raises alone
        edge = (3.0, (1, 1), 5, (0.6, 0.4), 0.0)
        a, sizes, n, r2, omr2 = edge
        with pytest.raises(IntegralDiverges) as alone:
            bf_block_hyper_g(
                BlockHyperGPrior(a, BlockPartition.contiguous(sizes)),
                _summary(n, sizes, r2, omr2))
        members = self.MEMBERS[:3] + [edge] + self.MEMBERS[3:]
        with pytest.raises(IntegralDiverges) as batch:
            self._scores(members)
        assert str(batch.value) == str(alone.value)
        assert "= 5.0 over" in str(alone.value)


class TestDivergenceSentinels:
    def _saturated_fit(self, n, sizes, seed=0):
        # exact-fit response; force the carried rss/yty ratio to zero since
        # floating-point residuals land at ~1e-30 rather than 0
        import dataclasses
        rng = np.random.default_rng(seed)
        p = sum(sizes)
        X = rng.normal(size=(n, p))
        beta = rng.normal(size=p)
        d = center_design(X, X @ beta, BlockPartition.contiguous(sizes))
        q, _ = block_orthogonalize(d)
        fit = fit_least_squares(q)
        scale = 1.0 / max(float(fit.r2_blocks.sum()), 1e-300)
        return q, dataclasses.replace(fit, one_minus_r2=0.0, r2=1.0,
                                      r2_blocks=fit.r2_blocks * scale)

    def test_improper_integral_gives_inf(self):
        # zero residual with n above k(a-2) + p + 1
        d, fit = self._saturated_fit(40, (2, 1))
        prior = BlockHyperGPrior(3.0, d.partition)
        post = bf_block_hyper_g(prior, fit)
        assert post.log_bf_null == math.inf
        np.testing.assert_allclose(post.t_mean, 1.0)

    def test_exact_boundary_raises(self):
        # n = k(a-2) + p + 1 exactly: a = 3, sizes (2, 1), n = 6
        d, fit = self._saturated_fit(6, (2, 1), seed=2)
        prior = BlockHyperGPrior(3.0, d.partition)
        with pytest.raises(IntegralDiverges):
            bf_block_hyper_g(prior, fit)

    def test_inactive_block_does_not_count(self):
        # block R^2 (1, 0) at unit R^2: the R^2 = 0 block separates into
        # the finite 1/(b_2+1), so the boundary counts block 1 alone,
        # n = (a-2) + 1 + 1 = 3, not the n = 5 of both blocks
        prior = BlockHyperGPrior(3.0, BlockPartition.contiguous((1, 1)))
        for n in (4, 5):
            post = bf_block_hyper_g(prior, _summary(n, (1, 1), (1.0, 0.0),
                                                    0.0))
            assert post.method == "limit" and post.log_bf_null == math.inf
            np.testing.assert_array_equal(post.t_mean, [1.0, 0.5])
        at_boundary = dataclasses.replace(
            _summary(4, (1, 1), (1.0, 0.0), 0.0), n=3)
        with pytest.raises(IntegralDiverges, match="R_i\\^2 > 0"):
            bf_block_hyper_g(prior, at_boundary)


class TestAbovePropriety:
    """Near-unit R^2 one and two above the propriety boundary n = k(a-2)
    +p+1, against mpmath (tests/oracles.py). There J(0) peaks near
    log(1/(1-R^2)) in the radial coordinate and each J(e_i) far below it.
    """

    @pytest.mark.parametrize("omr2", [1e-16, 1e-34, 1e-300])
    @pytest.mark.parametrize("n_above", [1, 2])
    @pytest.mark.parametrize("sizes", [(1, 1), (2, 1), (3,)],
                             ids=["1+1", "2+1", "3"])
    @pytest.mark.parametrize("a", [3.0, 4.0])
    def test_matches_mpmath(self, a, sizes, n_above, omr2):
        k, p = len(sizes), sum(sizes)
        n = int(k * (a - 2.0)) + p + 1 + n_above
        rho = [1.0 - omr2] if k == 1 else [0.7, 0.3 - omr2]
        fit = FitSummary(n=n, p=p, p_i=sizes, alpha_hat=0.0,
                         beta_hat_ls=np.zeros(p), sigma2_hat=1.0,
                         r2=1.0 - omr2, r2_blocks=np.array(rho), yty=1.0,
                         one_minus_r2=omr2, block_orthogonal=True)
        post = bf_block_hyper_g(
            BlockHyperGPrior(a, BlockPartition.contiguous(sizes)), fit)
        if k == 1:
            log_bf, t_mean = oracles.hyper_g(a, n, p, omr2)
            s_mean = [1.0 - t_mean]
        else:
            log_bf, s_mean = oracles.block_k2(a, n, sizes, rho, omr2)
        assert post.log_bf_null == pytest.approx(log_bf, abs=1e-10)
        np.testing.assert_allclose(1.0 - post.t_mean, s_mean, rtol=0.0,
                                   atol=1e-10)


class TestLaplace:
    def test_t_star_formula_and_hessian(self):
        b = np.array([1.5, 0.75])
        r = np.array([0.3, 0.2])
        m = 40.0
        point = laplace_t_star(b, r, m)
        want = 1.0 - b * (1.0 - r.sum()) / (r * (m - b.sum()))
        np.testing.assert_allclose(point.t_star, want)
        # numeric Hessian of h at t*
        def h(t):
            return float(b @ np.log1p(-t) - m * math.log1p(-float(t @ r)))
        eps = 1e-5
        for i in range(2):
            for j in range(2):
                t = point.t_star.copy()
                def hij(di, dj):
                    tt = t.copy()
                    tt[i] += di
                    tt[j] += dj
                    return h(tt)
                num = (hij(eps, eps) - hij(eps, -eps) - hij(-eps, eps)
                       + hij(-eps, -eps)) / (4 * eps * eps)
                assert point.hessian[i, j] == pytest.approx(num, rel=1e-4,
                                                            abs=1e-6)

    def test_hessian_is_the_entrywise_formula(self):
        # the array Hessian against its formula entry by entry in scalars,
        # bit for bit: c r_i r_j / m off the diagonal, -c r_i^2 (1/b_i -
        # 1/m) on it, with c = (m - sum b)^2 / (1 - sum r)^2
        rng = np.random.default_rng(23)
        for _ in range(400):
            k = int(rng.integers(1, 7))
            b = rng.uniform(0.3, 3.0, k)
            r = rng.dirichlet(np.ones(k + 1))[:k] * rng.uniform(0.9, 1.0)
            m = float(rng.uniform(10.0, 2000.0))
            try:
                point = laplace_t_star(b, r, m)
            except OutOfInterior:
                continue
            c = (m - float(b.sum())) ** 2 / (1.0 - float(r.sum())) ** 2
            for i in range(k):
                for j in range(k):
                    want = (-c * r[i] ** 2 * (1.0 / b[i] - 1.0 / m)
                            if i == j else c * r[i] * r[j] / m)
                    assert point.hessian[i, j] == want, (b, r, m, i, j)

    def test_t_star_leaves_interior(self):
        with pytest.raises(OutOfInterior):
            laplace_t_star(np.array([2.0]), np.array([0.01]), 30.0)
        with pytest.raises(DomainError):
            laplace_t_star(np.array([-0.5]), np.array([0.3]), 30.0)

    def test_log_bf_matches_quadrature_large_n(self):
        rng = np.random.default_rng(9)
        d, fit = _ortho_fit(2000, (4, 5), 0.05 * rng.normal(size=9),
                            seed=9)
        a = 3.5
        prior = BlockHyperGPrior(a, d.partition)
        exact = bf_block_hyper_g(prior, fit)
        lap = 2 * math.log(0.5 * (a - 2.0)) + _laplace_log_integral(
            a, np.array(fit.p_i, dtype=float), fit.r2_blocks,
            0.5 * (fit.n - 1))
        assert lap == pytest.approx(exact.log_bf_null, rel=0.05)

    def test_small_a_single_predictor_adjustment(self):
        # 2 < a < 3 with a p_i = 1 block exercises the rewritten exponent
        d, fit = _ortho_fit(1500, (1, 3), [0.08, 0.05, -0.05, 0.06],
                            seed=11)
        prior = BlockHyperGPrior(2.6, d.partition)
        got = log_bf_laplace(prior, fit, fit)
        assert got == pytest.approx(0.0)  # same model both sides
        # against the full model vs a sub-block reference
        d2, fit2 = _ortho_fit(1500, (3,), [0.05, -0.05, 0.06], seed=11)
        exact = (bf_block_hyper_g(prior, fit).log_bf_null
                 - bf_block_hyper_g(BlockHyperGPrior(2.6, d2.partition),
                                    fit2).log_bf_null)
        got = log_bf_laplace(prior, fit, fit2, d2.partition)
        assert got == pytest.approx(exact, abs=0.3)
        assert bf_laplace(prior, fit, fit2, d2.partition) == pytest.approx(
            math.exp(got))

    def test_a3_single_predictor_refused(self):
        d, fit = _ortho_fit(500, (1, 2), [0.1, 0.1, 0.1], seed=12)
        prior = BlockHyperGPrior(3.0, d.partition)
        with pytest.raises(OutOfInterior):
            log_bf_laplace(prior, fit, fit)


class TestNoLaplaceRoute:
    @pytest.mark.parametrize("n, beta, seed", [
        (400, [0.3, 0.3, 0.05, 0.05], 5),
        (2000, [0.07] * 4, 13),
    ], ids=["n400_seed5", "n2000_seed13"])
    def test_weak_signal_large_n_is_integrated(self, n, beta, seed):
        # n >= 200 with every Laplace maximizer inside (0.02, 0.98), but
        # n R_i^2 is small, so the t-posterior is not concentrated: the
        # Laplace value is off by about 0.3 in log BF. The posterior must
        # agree with the independent tensor reference
        d, fit = _ortho_fit(n, (2, 2), beta, seed=seed)
        a = 3.0
        prior = BlockHyperGPrior(a, d.partition)
        post = bf_block_hyper_g(prior, fit)
        assert post.method == "gamma1d"
        ref = integrate.block_integrals_quadrature(
            prior.b_powers(), np.asarray(fit.r2_blocks, dtype=float),
            fit.one_minus_r2, 0.5 * (fit.n - 1), rtol=1e-7)
        assert post.log_bf_null == pytest.approx(
            2 * math.log(0.5 * (a - 2.0)) + ref.log_i0, abs=1e-6)
        np.testing.assert_allclose(post.t_mean, ref.t_mean, rtol=0,
                                   atol=1e-6)
        assert np.all(post.t_mean >= 2.0 / (a + np.array(fit.p_i)))


class TestSigma2:
    def test_limit_is_inverse_gamma_for_single_block(self):
        from blockhyperg.hyperg import HyperGPrior, sigma2_limit_hyper_g
        d, fit = _ortho_fit(60, (3,), [0.5, -0.4, 0.3], seed=1)
        prior = BlockHyperGPrior(3.0, d.partition)
        dens = sigma2_density_limit_block(prior, fit)
        ig = sigma2_limit_hyper_g(HyperGPrior(3.0), fit.n, fit.p,
                                  fit.sigma2_hat)
        grid = np.linspace(0.3 * fit.sigma2_hat, 4.0 * fit.sigma2_hat, 200)
        np.testing.assert_allclose(dens.pdf(grid), ig.pdf(grid), rtol=1e-7)
        assert dens.mean() == pytest.approx(ig.mean, rel=1e-8)

    def test_slow_tail_mean(self):
        # no gamma factors: inverse gamma with shape alpha and scale rss/2,
        # whose mean integrand decays only like s2^-(alpha-1)
        dens = Sigma2Density(1.15, 100.0, np.empty(0), np.empty(0))
        assert dens.mean() == pytest.approx(50.0 / 0.15, rel=1e-9)

    def test_exact_density_normalizes_and_bounds(self):
        d, fit = _ortho_fit(80, (2, 2), [0.8, -0.6, 0.4, 0.4], seed=2)
        prior = BlockHyperGPrior(3.0, d.partition)
        dens = sigma2_density_exact_block(prior, fit)
        x = np.linspace(math.log(fit.sigma2_hat) - 8.0,
                        math.log(fit.sigma2_hat) + 10.0, 40_000)
        s2 = np.exp(x)
        total = np.trapezoid(dens.pdf(s2) * s2, x)
        assert total == pytest.approx(1.0, abs=1e-8)
        lim = sigma2_density_limit_block(prior, fit)
        assert lim.mean() <= lim.mean_bound(3.0, fit.p_i[0], fit.n) + 1e-12

    @pytest.mark.parametrize("alpha, rss, q", [(-0.95, 2.0, 3.0),
                                               (-0.5, 1.0, 1e4),
                                               (0.4, 1.0, 1e-3)])
    def test_one_factor_normalizer_closed_form(self, alpha, rss, q):
        # nu = 1: gamma(1, y) = 1 - e^-y, so the normalizer is
        # Gamma(alpha) 2^alpha (rss^-alpha - (rss+q)^-alpha); at
        # alpha = -0.95 (M = 0.05) the lam -> 0 tail falls like e^(0.05 x)
        dens = Sigma2Density(alpha, rss, np.array([1.0]), np.array([q]))
        norm = math.gamma(alpha) * 2.0 ** alpha * (rss ** -alpha
                                                   - (rss + q) ** -alpha)
        s2 = np.array([0.1, 1.0, 30.0])
        want = (s2 ** -(alpha + 1.0) * np.exp(-0.5 * rss / s2)
                * -np.expm1(-0.5 * q / s2) / norm)
        np.testing.assert_allclose(dens.pdf(s2), want, rtol=1e-12)

    def test_mean_of_dominant_block_fit(self):
        # E[s_1] is about 3e-14 here and q_1 about 1e12: the closed-form
        # mean must use E[s_1] itself (1 - E[t_1] is off by 7e-6)
        d, fit = _ortho_fit(80, (2, 2), [0.8e6, -0.6e6, 0.4, 0.4], seed=2)
        prior = BlockHyperGPrior(3.0, d.partition)
        dens = sigma2_density_exact_block(prior, fit)
        x = np.linspace(math.log(fit.sigma2_hat) - 8.0,
                        math.log(fit.sigma2_hat) + 10.0, 40_000)
        s2 = np.exp(x)
        want = np.trapezoid(dens.pdf(s2) * s2 * s2, x)
        assert dens.mean() == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("beta", [[0.8, -0.6, 0.4, 0.4],
                                      [0.8e6, -0.6e6, 0.4, 0.4],
                                      [0.8, -0.6, 0.0, 0.0]])
    def test_block_posterior_carries_the_density_mean(self, beta):
        d, fit = _ortho_fit(80, (2, 2), beta, seed=2)
        prior = BlockHyperGPrior(3.0, d.partition)
        want = sigma2_density_exact_block(prior, fit).mean()
        assert bf_block_hyper_g(prior, fit).sigma2_mean == pytest.approx(
            want, rel=1e-10)

    def test_block_posterior_mean_absent(self):
        # rss = 0 (the limit sentinel) and n = 3 (M = 1): no mean
        d, fit = _ortho_fit(40, (2, 1), [0.5, -0.4, 0.3], seed=1)
        prior = BlockHyperGPrior(3.0, d.partition)
        exact = dataclasses.replace(fit, sigma2_hat=0.0, r2=1.0,
                                    one_minus_r2=0.0)
        post = bf_block_hyper_g(prior, exact)
        assert post.method == "limit" and post.sigma2_mean is None
        d, fit = _ortho_fit(3, (1,), [0.5], seed=1)
        prior = BlockHyperGPrior(3.0, d.partition)
        post = bf_block_hyper_g(prior, fit)
        assert post.method == "gamma1d" and post.sigma2_mean is None
        with pytest.raises(DomainError):
            sigma2_density_exact_block(prior, fit).mean()

    def test_density_validation(self):
        with pytest.raises(DomainError):
            Sigma2Density(-2.0, 1.0, np.array([1.0]), np.array([1.0]))
        with pytest.raises(DomainError):
            Sigma2Density(3.0, 0.0, np.array([]), np.array([]))
        with pytest.raises(DomainError):
            Sigma2Density(3.0, 1.0, np.array([0.0]), np.array([1.0]))
        dens = Sigma2Density(0.8, 1.0, np.array([]), np.array([]))
        with pytest.raises(DomainError):
            dens.mean()
        with pytest.raises(DomainError):
            dens.mean_bound(3.0, 2, 5)


class TestClpBound:
    def test_values(self):
        assert clp_lower_bound(3.0, 1) == pytest.approx(0.5)
        assert clp_lower_bound(4.0, 2) == pytest.approx(0.5)
        assert clp_lower_bound(2.5, 3) == pytest.approx(0.5 / 3.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            clp_lower_bound(2.0, 1)
        with pytest.raises(DomainError):
            clp_lower_bound(3.0, 0)
