"""Model enumeration, posterior probabilities, and BMA prediction."""

import itertools
import math

import numpy as np
import pytest

from blockhyperg import design, hyperg, integrate
from blockhyperg.design import (BlockPartition, CenteredDesign,
                                block_orthogonalize, center_design)
from blockhyperg.errors import (BudgetExceeded, DimensionMismatch,
                                DomainError, EmptyModelList, RankDeficient)
from blockhyperg.models import (ALL_SUBSETS_MAX_P, ModelSpec, bma_predict,
                                block_subsets_scores, enumerate_models,
                                evaluate_model_space, model_inference,
                                posterior_model_probs)


def _design(n=120, sizes=(2, 2), beta=(1.0, -0.8, 0.0, 0.0), seed=0,
            noise=1.0):
    rng = np.random.default_rng(seed)
    p = sum(sizes)
    X = rng.normal(size=(n, p))
    y = X @ np.asarray(beta, dtype=float) + noise * rng.normal(size=n)
    return center_design(X, y, BlockPartition.contiguous(sizes))


class TestModelSpec:
    def test_induced_partition_renumbers(self):
        part = BlockPartition.contiguous((2, 3))
        spec = ModelSpec.from_gamma([1, 0, 0, 1, 1], part)
        assert spec.included == (0, 3, 4)
        assert spec.induced_partition.blocks == ((0,), (1, 2))
        assert spec.model_id == "10011"
        assert spec.p_gamma == 3

    def test_null_model(self):
        spec = ModelSpec.from_gamma([0, 0, 0], BlockPartition.single(3))
        assert spec.is_null and spec.induced_partition is None

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ModelSpec.from_gamma([1, 0], BlockPartition.single(3))


class TestEnumeration:
    def test_all_subsets_count(self):
        part = BlockPartition.contiguous((2, 2))
        models = enumerate_models(part, "all-subsets")
        assert len(models) == 2 ** 4
        assert len({m.model_id for m in models}) == 2 ** 4

    def test_block_subsets_count(self):
        part = BlockPartition.contiguous((2, 3, 1))
        models = enumerate_models(part, "block-subsets")
        assert len(models) == 2 ** 3
        # every model keeps whole blocks
        for m in models:
            for b in part.blocks:
                bits = {m.gamma[c] for c in b}
                assert len(bits) == 1

    def test_all_subsets_product_order(self):
        part = BlockPartition([(0, 3), (1,), (2, 4)])
        models = enumerate_models(part, "all-subsets")
        bits = list(itertools.product((0, 1), repeat=5))
        assert [m.gamma for m in models] == bits
        for m, g in zip(models, bits):
            ref = ModelSpec.from_gamma(g, part)
            assert m.induced_partition == ref.induced_partition
            assert m.is_null == ref.is_null and m.model_id == ref.model_id

    def test_all_subsets_budget_guard(self):
        part = BlockPartition.single(ALL_SUBSETS_MAX_P + 1)
        with pytest.raises(BudgetExceeded):
            enumerate_models(part, "all-subsets")

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            enumerate_models(BlockPartition.single(2), "everything")


class TestPosteriorProbs:
    def test_normalization_and_ordering(self):
        part = BlockPartition.single(2)
        models = enumerate_models(part, "all-subsets")
        log_bfs = np.array([0.0, 3.0, -1.0, 5.0])
        post = posterior_model_probs(models, log_bfs)
        assert float(post.post_prob.sum()) == pytest.approx(1.0, abs=1e-12)
        w = np.exp(log_bfs)
        np.testing.assert_allclose(post.post_prob, w / w.sum(), rtol=1e-12)
        assert post.top_model().model_id == "11"

    def test_inf_sentinel_mass(self):
        part = BlockPartition.single(2)
        models = enumerate_models(part, "all-subsets")
        log_bfs = np.array([0.0, math.inf, -1.0, math.inf])
        post = posterior_model_probs(models, log_bfs)
        np.testing.assert_allclose(post.post_prob,
                                   [0.0, 0.5, 0.0, 0.5])

    def test_custom_prior(self):
        part = BlockPartition.single(1)
        models = enumerate_models(part, "all-subsets")
        post = posterior_model_probs(models, np.array([0.0, 0.0]),
                                     prior=np.array([3.0, 1.0]))
        np.testing.assert_allclose(post.post_prob, [0.75, 0.25])

    def test_validation(self):
        part = BlockPartition.single(1)
        models = enumerate_models(part, "all-subsets")
        with pytest.raises(EmptyModelList):
            posterior_model_probs([], np.array([]))
        with pytest.raises(DimensionMismatch):
            posterior_model_probs(models, np.array([0.0]))
        with pytest.raises(DomainError):
            posterior_model_probs(models, np.array([0.0, math.nan]))
        with pytest.raises(DomainError):
            posterior_model_probs(models, np.array([0.0, 0.0]),
                                  prior="beta-binomial")


class TestModelInference:
    def test_null_model(self):
        d = _design()
        spec = ModelSpec.from_gamma([0, 0, 0, 0], d.partition)
        log_bf, mean, method = model_inference(d, spec, "all-subsets")
        assert log_bf == 0.0 and method == "closed-form"
        np.testing.assert_array_equal(mean, np.zeros(4))

    def test_block_subsets_consistent_with_direct_fit(self):
        # full model scored through the slicing path equals the direct
        # computation on the orthogonalized design
        from blockhyperg.blockprior import (BlockHyperGPrior,
                                            bf_block_hyper_g, scale_blocks)
        from blockhyperg.design import fit_least_squares
        d = _design(seed=2)
        spec = ModelSpec.from_gamma([1, 1, 1, 1], d.partition)
        log_bf, mean, method = model_inference(d, spec, "block-subsets")
        q, T = block_orthogonalize(d)
        fit = fit_least_squares(q)
        prior = BlockHyperGPrior(3.0, d.partition)
        post = bf_block_hyper_g(prior, fit)
        want_bf = post.log_bf_null
        kappa = scale_blocks(fit.beta_hat_ls, prior.partition, post.t_mean)
        want_mean = np.linalg.solve(T, kappa)
        assert log_bf == pytest.approx(want_bf, abs=1e-9)
        np.testing.assert_allclose(mean, want_mean, atol=1e-9)

    def test_all_subsets_mean_is_shrunk_ls(self):
        d = _design(seed=3)
        spec = ModelSpec.from_gamma([1, 0, 1, 0], d.partition)
        _, mean, _ = model_inference(d, spec, "all-subsets")
        assert mean[1] == 0.0 and mean[3] == 0.0
        ls = np.linalg.lstsq(d.X[:, [0, 2]], d.y, rcond=None)[0]
        ratio = mean[[0, 2]] / ls
        assert ratio[0] == pytest.approx(ratio[1], rel=1e-9)
        assert 0.0 < ratio[0] < 1.0


class TestEvaluateSpace:
    def test_truth_recovery_block_subsets(self):
        d = _design(n=400, beta=(1.0, -0.8, 0.0, 0.0), seed=5)
        post, means, methods = evaluate_model_space(d, "block-subsets")
        assert len(post.models) == 4 and means.shape == (4, 4)
        assert len(methods) == 4 and methods[0] == "closed-form"
        # the signal block must be in the selected model; evidence against
        # an extra pure-noise block is bounded, so do not demand exclusion
        assert post.top_model().gamma[:2] == (1, 1)
        mass_with_signal = sum(
            float(post.post_prob[i]) for i, m in enumerate(post.models)
            if m.gamma[:2] == (1, 1))
        assert mass_with_signal > 0.999
        assert float(post.post_prob.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_truth_recovery_all_subsets(self):
        d = _design(n=400, beta=(1.0, -0.8, 0.0, 0.0), seed=6)
        post, means, methods = evaluate_model_space(d, "all-subsets")
        assert len(post.models) == 16
        assert post.top_model().gamma[:2] == (1, 1)

    def test_rtol_and_seed_passthrough(self):
        d = _design(seed=7)
        p1, _, _ = evaluate_model_space(d, "block-subsets", rtol=1e-4)
        p2, _, _ = evaluate_model_space(d, "block-subsets")
        np.testing.assert_allclose(p1.post_prob, p2.post_prob, atol=1e-3)


class TestAllSubsetsTriangle:
    def test_matches_per_model_fits(self, monkeypatch):
        # the scores from one factorization of [X | y] against a fresh
        # per-model fit_least_squares and the closed forms, on correlated,
        # badly scaled designs; odd seeds are near-saturated, with 1-R^2
        # about 1e-12 for the models that hold the signal
        def refuse(*_):
            raise AssertionError("per-model least-squares fit")

        for seed in range(12):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(2, 8))
            n = int(rng.choice([p + 3, 30, 400]))
            X = rng.normal(size=(n, p)) * np.exp(rng.normal(size=p))
            X[:, 1:] += 0.5 * X[:, :1]
            beta = rng.normal(size=p) * (rng.random(p) < 0.7)
            beta[0] = 1.0
            y = X @ beta + (1e-6 if seed % 2 else 1.0) * rng.normal(size=n)
            d = center_design(X, y, BlockPartition.single(p))
            want = [model_inference(d, m, "all-subsets")
                    for m in enumerate_models(d.partition, "all-subsets")]
            with monkeypatch.context() as patch:
                patch.setattr(design, "fit_least_squares", refuse)
                post, means, methods = evaluate_model_space(d, "all-subsets")
            assert methods == ["closed-form"] * len(want)
            # a coefficient error counts by the fit it moves: |x_j| |d b_j|
            col = np.linalg.norm(d.X, axis=0)
            for i, (log_bf, mean, _) in enumerate(want):
                assert abs(post.log_bf_null[i] - log_bf) <= 1e-10 * max(
                    1.0, abs(log_bf))
                assert np.all(np.abs(means[i] - mean) * col
                              <= 1e-10 * np.linalg.norm(d.y))

    def test_rank_deficient_submodel_raises(self):
        # pins the per-model rank check: the two equal columns make every
        # model that holds both singular
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 2))
        X = np.column_stack([x, x[:, 0]])
        X -= X.mean(axis=0)
        y = x[:, 0] + rng.normal(size=40)
        d = CenteredDesign(y=y - y.mean(), X=X,
                           partition=BlockPartition.single(3))
        with pytest.raises(RankDeficient):
            evaluate_model_space(d, "all-subsets")


    def test_bounded_scoring_chunks(self, monkeypatch):
        # p = 10: 1023 non-null models, scored in chunks of models of mixed
        # sizes. x1 nearly saturates y (1-R^2 about 1e-12 for the models
        # that hold it), and n = 12 <= p_gamma + a + 1 for p_gamma >= 8, so
        # the closed form, the series and the scalar route all serve.
        rng = np.random.default_rng(3)
        n, p, a = 12, 10, 3.0
        X = rng.normal(size=(n, p))
        y = X[:, 0] + 1e-6 * rng.normal(size=n)
        d = center_design(X, y, BlockPartition.single(p))
        calls = []
        scores = hyperg.hyper_g_scores

        def spy(*args):
            out = scores(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(hyperg, "hyper_g_scores", spy)
        post, means, _ = evaluate_model_space(d, "all-subsets", a=a)
        assert [len(args[2]) for args, _ in calls] == [256, 256, 256, 255]
        assert all(args[:2] == (a, n) for args, _ in calls)
        got_p, r2, omr2 = (np.concatenate([args[j] for args, _ in calls])
                           for j in (2, 3, 4))
        log_bf, shrink = (np.concatenate([out[j] for _, out in calls])
                          for j in (0, 1))
        assert set(got_p) == set(range(1, p + 1))
        closed = (omr2 <= 0.5) & (n > got_p + a + 1)
        series = omr2 > 0.5
        assert closed.sum() > 100 and series.sum() > 100
        assert (~closed & ~series).sum() > 20
        assert omr2.min() < 1e-11
        np.testing.assert_array_equal(post.log_bf_null[1:], log_bf)
        for i in range(len(log_bf)):
            args = (a, n, int(got_p[i]), r2[i], omr2[i])
            assert log_bf[i] == pytest.approx(
                hyperg.log_bf_hyper_g_stats(*args), rel=1e-12)
            assert shrink[i] == pytest.approx(
                hyperg.shrinkage_hyper_g_stats(*args), rel=1e-12)

    def test_ill_conditioned_pair_raises(self):
        # X = [q1, 1e11 q1 + q2]: each model's triangle has a unit
        # diagonal, but the singular values of X span 1e22. The once-per-
        # search check on X's triangle raises, in either enumeration; with
        # blocks (1, 1) no block is ill-conditioned on its own.
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(40, 2))
        q = np.linalg.qr(Z - Z.mean(axis=0))[0]
        X = np.column_stack([q[:, 0], 1e11 * q[:, 0] + q[:, 1]])
        y = q @ np.array([1.0, 0.5]) + 0.1 * rng.normal(size=40)
        for part, mode in ((BlockPartition.single(2), "all-subsets"),
                           (BlockPartition.contiguous((1, 1)),
                            "block-subsets")):
            d = CenteredDesign(y=y - y.mean(), X=X, partition=part)
            with pytest.raises(RankDeficient):
                model_inference(d, ModelSpec.from_gamma([1, 1], part), mode)
            with pytest.raises(RankDeficient):
                evaluate_model_space(d, mode)


def _block_designs():
    """Block designs for the one-factorization check: correlated and badly
    scaled, with n = p+3, 30 and 400 in turn; odd seeds near-saturated
    (1-R^2 about 1e-12 for the models that hold the signal). Then a
    non-contiguous partition, and an exactly orthogonal design, which
    model_inference fits without orthogonalizing."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        sizes = tuple(int(v) for v in
                      rng.integers(1, 4, size=int(rng.integers(1, 4))))
        p = sum(sizes)
        n = (p + 3, 30, 400)[seed % 3]
        X = rng.normal(size=(n, p)) * np.exp(rng.normal(size=p))
        X[:, 1:] += 0.5 * X[:, :1]
        beta = rng.normal(size=p) * (rng.random(p) < 0.7)
        beta[0] = 1.0
        y = X @ beta + (1e-6 if seed % 2 else 1.0) * rng.normal(size=n)
        yield center_design(X, y, BlockPartition.contiguous(sizes))
    rng = np.random.default_rng(20)
    X = rng.normal(size=(60, 4))
    X[:, 1:] += 0.5 * X[:, :1]
    y = X @ np.array([1.0, 0.0, -0.5, 0.3]) + rng.normal(size=60)
    yield center_design(X, y, BlockPartition([(0, 2), (1, 3)]))
    X = rng.normal(size=(50, 4))
    X -= X.mean(axis=0)
    X = np.linalg.qr(X)[0] * math.sqrt(50)
    y = X @ np.array([0.4, -0.3, 0.2, 0.0]) + rng.normal(size=50)
    yield center_design(X, y, BlockPartition.contiguous((2, 2)))


class TestBlockSubsetsTriangle:
    def test_matches_per_model_fits(self, monkeypatch):
        # block-subsets scores from one factorization of [X | y] against
        # model_inference's per-model orthogonalization and fit. On a
        # design orthogonal only to within ORTHO_TOL, model_inference skips
        # orthogonalizing and the two may differ by about 1e-8; the
        # orthogonal design here is orthogonal to rounding.
        def refuse(*_):
            raise AssertionError("per-model n-row factorization")

        designs = list(_block_designs())
        assert design.check_block_orthogonality(designs[-1])
        for d in designs:
            want = [model_inference(d, m, "block-subsets")
                    for m in enumerate_models(d.partition, "block-subsets")]
            with monkeypatch.context() as patch:
                patch.setattr(design, "fit_least_squares", refuse)
                patch.setattr(design, "block_orthogonalize", refuse)
                post, means, methods = evaluate_model_space(d,
                                                            "block-subsets")
            assert methods == [meth for _, _, meth in want]
            # a coefficient error counts by the fit it moves: |x_j| |d b_j|
            col = np.linalg.norm(d.X, axis=0)
            for i, (log_bf, mean, _) in enumerate(want):
                assert abs(post.log_bf_null[i] - log_bf) <= 1e-10 * max(
                    1.0, abs(log_bf))
                assert np.all(np.abs(means[i] - mean) * col
                              <= 1e-10 * np.linalg.norm(d.y))

    def test_rank_deficient_block_raises(self):
        # the block-2 column duplicates a block-1 column, so the full
        # model's triangle has a zero on its diagonal
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 2))
        X = np.column_stack([x, x[:, 0]])
        X -= X.mean(axis=0)
        y = x[:, 0] + rng.normal(size=40)
        d = CenteredDesign(y=y - y.mean(), X=X,
                           partition=BlockPartition.contiguous((2, 1)))
        with pytest.raises(RankDeficient):
            model_inference(d, ModelSpec.from_gamma([1, 1, 1], d.partition),
                            "block-subsets")
        with pytest.raises(RankDeficient):
            evaluate_model_space(d, "block-subsets")

    def test_ill_conditioned_block_raises(self):
        # block 2 is [q2, 1e11 q2 + q3] on orthonormal q: its triangle
        # R_22 = [[1, 1e11], [0, 1]] has a unit diagonal, which passes the
        # diagonal check, but singular values 1e11 and 1e-11. Only the
        # per-block singular-value check on R_22 sees it, as the n-row
        # check on the residualized block does in model_inference.
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(40, 3))
        q = np.linalg.qr(Z - Z.mean(axis=0))[0]  # centered columns
        X = np.column_stack([q[:, 0], q[:, 1], 1e11 * q[:, 1] + q[:, 2]])
        y = q @ np.array([1.0, 0.5, 0.2]) + 0.1 * rng.normal(size=40)
        d = CenteredDesign(y=y - y.mean(), X=X,
                           partition=BlockPartition.contiguous((1, 2)))
        with pytest.raises(RankDeficient):
            model_inference(d, ModelSpec.from_gamma([1, 1, 1], d.partition),
                            "block-subsets")
        with pytest.raises(RankDeficient, match="residualized block") as alone:
            evaluate_model_space(d, "block-subsets")
        # scored after a sound design of another n, it raises as alone
        Z = rng.normal(size=(60, 3))
        good = center_design(Z, Z @ np.array([1.0, 0.5, 0.2])
                             + rng.normal(size=60), d.partition)
        specs = enumerate_models(d.partition, "block-subsets")
        with pytest.raises(RankDeficient) as batch:
            block_subsets_scores([good, d], specs)
        assert str(batch.value) == str(alone.value)

    def test_no_fit_summary_or_prior_per_model(self, monkeypatch):
        # a search over 4 designs and a prediction experiment score their
        # block posteriors as arrays: they construct no FitSummary and no
        # BlockHyperGPrior, and each design scores bitwise as it does in a
        # one-design call
        from blockhyperg import blockprior, experiments, models
        built = {"FitSummary": 0, "BlockHyperGPrior": 0}
        for cls in (design.FitSummary, blockprior.BlockHyperGPrior):
            def counting(self, *args, _real=cls.__init__,
                         _name=cls.__name__, **kwargs):
                built[_name] += 1
                _real(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        real, calls = models.block_subsets_scores, []

        def keep(designs, specs, a=3.0, *, rtol=1e-7):
            designs = list(designs)
            out = real(designs, specs, a, rtol=rtol)
            calls.append((designs, specs, a, rtol, out))
            return out
        monkeypatch.setattr(models, "block_subsets_scores", keep)
        designs = [_design(n=n, sizes=(2, 1, 2),
                           beta=(1.0, -0.8, 0.5, 0.0, 0.3), seed=seed)
                   for seed, n in enumerate((12, 40, 100, 400))]
        keep(designs, enumerate_models(designs[0].partition,
                                       "block-subsets"))
        experiments.run_prediction_consistency(n_schedule=(100, 400),
                                               replicates=2)
        assert built == {"FitSummary": 0, "BlockHyperGPrior": 0}
        assert [len(c[0]) for c in calls] == [4, 4]
        for designs, specs, a, rtol, out in calls:
            for d, (log_bfs, means, methods) in zip(designs, out):
                (one_bfs, one_means, one_methods), = real([d], specs, a,
                                                          rtol=rtol)
                assert methods == one_methods
                np.testing.assert_array_equal(log_bfs, one_bfs)
                np.testing.assert_array_equal(means, one_means)

    def test_search_shares_its_integrand_calls(self, monkeypatch):
        # seven models of one to three blocks: one bracket scan and one
        # quadrature pass for the whole search, each a single call of the
        # incomplete-gamma ratios for every model's nodes
        real, calls = integrate.log_inc_gamma_ratio_pair, []

        def counting(*args):
            calls.append(len(args[1]))
            return real(*args)
        monkeypatch.setattr(integrate, "log_inc_gamma_ratio_pair", counting)
        d = _design(n=100, sizes=(2, 2, 2),
                    beta=(1.0, -0.8, 0.6, 0.9, 0.0, 0.0), seed=7)
        post, _, methods = evaluate_model_space(d, "block-subsets",
                                                rtol=1e-4)
        assert methods.count("gamma1d") == 7
        assert len(calls) == 2
        monkeypatch.setattr(integrate, "log_inc_gamma_ratio_pair", real)
        for i, spec in enumerate(post.models):
            log_bf, _, _ = model_inference(d, spec, "block-subsets",
                                           rtol=1e-4)
            assert post.log_bf_null[i] == pytest.approx(log_bf, rel=1e-12,
                                                        abs=1e-12)


class TestBmaPredict:
    def test_matches_hand_rolled_average(self):
        d = _design(n=200, seed=8)
        post, means, _ = evaluate_model_space(d, "block-subsets")
        rng = np.random.default_rng(1)
        x_star = rng.normal(size=4)
        got = bma_predict(x_star, post, means, d.x_means, d.y_mean)
        xc = x_star - d.x_means
        want = d.y_mean + sum(
            post.post_prob[i] * float(means[i] @ xc)
            for i in range(len(post.models)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_prediction_close_to_truth_strong_signal(self):
        beta = np.array([1.0, -0.8, 0.0, 0.0])
        d = _design(n=800, beta=beta, seed=9, noise=0.5)
        post, means, _ = evaluate_model_space(d, "block-subsets")
        x_star = np.array([0.5, -1.0, 0.3, 0.2])
        got = bma_predict(x_star, post, means, d.x_means, d.y_mean)
        assert got == pytest.approx(float(x_star @ beta), abs=0.2)

    def test_shape_validation(self):
        d = _design()
        post, means, _ = evaluate_model_space(d, "block-subsets")
        with pytest.raises(DimensionMismatch):
            bma_predict(np.zeros(3), post, means, d.x_means, 0.0)
        with pytest.raises(DimensionMismatch):
            bma_predict(np.zeros(4), post, means[:2], d.x_means, 0.0)
