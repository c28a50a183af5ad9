"""Sweep and replication harness: determinism, output format, verdicts."""

import math

import numpy as np
import pytest

from blockhyperg import design, models
from blockhyperg.design import (BlockPartition, CenteredDesign,
                                center_design, fit_least_squares)
from blockhyperg.errors import (DomainError, PreconditionViolated,
                                SimulationBudgetExceeded)
from blockhyperg.experiments import (DEFAULT_SCALES, MAX_REPLICATES,
                                     ExperimentResult, SequenceSpec, _kappa,
                                     make_sequence, run_clp_experiment,
                                     run_els_experiment,
                                     run_info_consistency,
                                     run_prediction_consistency,
                                     run_selection_consistency,
                                     sigma2_limit_check, standard_sequence)
from blockhyperg.hyperg import shrinkage_hyper_g_stats


class TestSequence:
    def test_standard_sequence_deterministic(self):
        s1 = standard_sequence(seed=4)
        s2 = standard_sequence(seed=4)
        np.testing.assert_array_equal(s1.base.X, s2.base.X)
        np.testing.assert_array_equal(s1.eps, s2.eps)
        np.testing.assert_array_equal(s1.beta1, s2.beta1)

    def test_only_block_one_grows(self):
        spec = standard_sequence()
        seq = make_sequence(spec)
        assert [c for c, _, _ in seq] == list(DEFAULT_SCALES)
        # the fitted norm of the fixed block stays put while block 1 grows
        q2 = [float(fit.r2_blocks[1] * fit.yty) for _, _, fit in seq]
        q1 = [float(fit.r2_blocks[0] * fit.yty) for _, _, fit in seq]
        assert max(q2) / min(q2) < 1.0 + 1e-6
        assert q1[-1] > 1e10 * q1[0]
        for _, d, _ in seq:
            np.testing.assert_array_equal(d.X, spec.base.X)

    def test_spec_validation(self):
        spec = standard_sequence()
        with pytest.raises(DomainError):
            SequenceSpec(base=spec.base, alpha=1.0,
                         beta1=np.zeros(3), beta_rest=spec.beta_rest,
                         eps=spec.eps, scales=spec.scales)
        with pytest.raises(DomainError):
            SequenceSpec(base=spec.base, alpha=1.0, beta1=spec.beta1,
                         beta_rest=spec.beta_rest, eps=spec.eps,
                         scales=(1.0, 1.0))
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        X -= X.mean(axis=0)
        base = CenteredDesign(y=np.zeros(50), X=X,
                              partition=BlockPartition.contiguous((2, 1)))
        with pytest.raises(PreconditionViolated):
            SequenceSpec(base=base, alpha=1.0, beta1=spec.beta1,
                         beta_rest=spec.beta_rest, eps=spec.eps,
                         scales=spec.scales)


class TestResultObject:
    def test_passed_requires_verdicts(self):
        res = ExperimentResult(name="x")
        assert not res.passed
        res.verdicts["ok"] = True
        assert res.passed
        res.verdicts["bad"] = False
        assert not res.passed

    def test_csv_roundtrip(self, tmp_path):
        res = ExperimentResult(name="x")
        res.add(10.0, "stat", 0.1 + 0.2, 1e-9)
        path = tmp_path / "out.csv"
        res.write_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,statistic,value,err"
        x, stat, val, err = lines[1].split(",")
        assert float(val) == 0.1 + 0.2  # repr round-trips exactly
        assert stat == "stat"

    def test_series_filters(self):
        res = ExperimentResult(name="x")
        res.add(1.0, "a", 2.0)
        res.add(2.0, "b", 3.0)
        res.add(3.0, "a", 4.0)
        assert res.series("a") == [(1.0, 2.0), (3.0, 4.0)]

    def test_verdict_payload_sorted(self):
        res = ExperimentResult(name="x", seed=5)
        res.verdicts["zeta"] = True
        res.verdicts["alpha"] = True
        payload = res.verdict_payload()
        assert list(payload["verdicts"]) == ["alpha", "zeta"]
        assert payload["passed"] and payload["seed"] == 5


class TestSweeps:
    def test_els_passes_and_is_deterministic(self):
        r1 = run_els_experiment(standard_sequence())
        r2 = run_els_experiment(standard_sequence())
        assert r1.passed
        assert r1.rows == r2.rows

    def test_els_scores_match_the_scalar_shrinkage(self):
        # the sweep scores every scale and block in one hyper_g_scores
        # call; each row matches its own shrinkage_hyper_g_stats call
        for spec in (standard_sequence(),
                     standard_sequence(n=40, sizes=(1, 2, 1), seed=3)):
            res = run_els_experiment(spec)
            n, p, sizes = spec.base.n, spec.base.p, spec.base.partition.sizes
            for c, _, fit in make_sequence(spec):
                rows = {r["statistic"]: r["value"] for r in res.rows
                        if r["x"] == c}
                s = shrinkage_hyper_g_stats(spec.a, n, p, fit.r2,
                                            fit.one_minus_r2)
                assert rows["hyperg_rel_distance"] == pytest.approx(
                    1.0 - s, rel=1e-13)
                for i in range(1, len(sizes)):
                    assert rows[f"block_t_upper_{i + 1}"] == pytest.approx(
                        shrinkage_hyper_g_stats(spec.a, n, sizes[i],
                                                *_kappa(fit, i)), rel=1e-13)

    def test_clp_passes(self):
        res = run_clp_experiment(standard_sequence())
        assert res.passed
        ratios = res.series("hyperg_log_bf_ratio")
        assert ratios[-1][1] < -10.0
        floor = res.series("block_bf_floor")[0][1]
        assert all(v >= floor - 1e-4
                   for _, v in res.series("block_bf_ratio"))

    def test_clp_needs_two_blocks(self):
        spec = standard_sequence(sizes=(2, 1, 1))
        with pytest.raises(PreconditionViolated):
            run_clp_experiment(spec)

    def test_info_divergent(self):
        res = run_info_consistency(standard_sequence(), "divergent")
        assert res.passed
        vals = [v for _, v in res.series("hyperg_log_bf")]
        assert vals[-1] > vals[0]

    def test_info_bounded(self):
        spec = standard_sequence(n=5, sizes=(2, 1), a=4.0)
        res = run_info_consistency(spec, "bounded")
        assert res.passed

    def test_info_regime_preconditions(self):
        with pytest.raises(PreconditionViolated):
            run_info_consistency(standard_sequence(), "bounded")
        with pytest.raises(PreconditionViolated):
            run_info_consistency(standard_sequence(), "oscillating")

    def test_sigma2_limits(self):
        res = sigma2_limit_check(standard_sequence())
        assert res.passed
        tv = res.series("tv_block_vs_limit")[0][1]
        assert tv < 0.01
        mean = res.series("limit_mean")[0][1]
        bound = res.series("limit_mean_bound")[0][1]
        assert mean <= bound + 1e-9


class TestReplicatedRuns:
    def test_budget_guards(self):
        with pytest.raises(SimulationBudgetExceeded):
            run_selection_consistency(replicates=MAX_REPLICATES + 1)
        with pytest.raises(PreconditionViolated):
            run_prediction_consistency(n_schedule=(100,), replicates=2)

    def test_selection_smoke_deterministic(self):
        kw = dict(n_schedule=(60, 120), replicates=3, seed=1)
        r1 = run_selection_consistency(**kw)
        r2 = run_selection_consistency(**kw)
        assert r1.rows == r2.rows
        stats = {r["statistic"] for r in r1.rows}
        assert "case1_missing_block_median_log_bf" in stats
        assert "case2c_new_block_only_median_log_bf" in stats
        # the grossly wrong model already loses badly at these tiny n
        case1 = r1.series("case1_missing_block_median_log_bf")
        assert case1[-1][1] < -5.0

    @staticmethod
    def _per_model(designs, gammas, partition, a=3.0, *, rtol=1e-7):
        # the scorer's signature, each model fitted on its own n rows
        specs = [models.ModelSpec.from_gamma(g, partition) for g in gammas]
        out = []
        for d in designs:
            rows = [models.model_inference(d, s, "block-subsets", a,
                                           rtol=rtol) for s in specs]
            out.append((np.array([r[0] for r in rows]),
                        np.array([r[1] for r in rows]), [r[2] for r in rows]))
        return out

    def _against_per_model(self, monkeypatch, run):
        # a run that scores every model through model_inference, per design
        # and per model, must give the same verdicts and rows within the
        # experiment's rtol as the batched run, which factors each design
        # once and orthogonalizes no block on its n rows
        def refuse(*_):
            raise AssertionError("per-model n-row factorization")

        kw = dict(n_schedule=(100, 400), replicates=2, seed=0)
        calls = []
        with monkeypatch.context() as patch:
            def per_model(designs, gammas, partition, a=3.0, *, rtol=1e-7):
                out = self._per_model(designs, gammas, partition, a,
                                      rtol=rtol)
                calls.append(len(out))
                return out
            patch.setattr(models, "block_subsets_scores", per_model)
            want = run(**kw)
        # the stand-in served every design of the run, in one call
        assert calls == [4]
        with monkeypatch.context() as patch:
            patch.setattr(design, "fit_least_squares", refuse)
            patch.setattr(design, "block_orthogonalize", refuse)
            got = run(**kw)
        assert got.verdicts == want.verdicts
        assert ([(r["x"], r["statistic"]) for r in got.rows]
                == [(r["x"], r["statistic"]) for r in want.rows])
        for key in ("value", "err"):
            np.testing.assert_allclose([r[key] for r in got.rows],
                                       [r[key] for r in want.rows],
                                       rtol=1e-4)

    def test_selection_scored_from_one_factorization(self, monkeypatch):
        self._against_per_model(monkeypatch, run_selection_consistency)

    def test_prediction_scored_from_one_factorization(self, monkeypatch):
        self._against_per_model(monkeypatch, run_prediction_consistency)

    def test_each_replicate_scores_as_a_one_design_call(self, monkeypatch):
        # the experiment scores every (n, replicate) design in one call;
        # each design's log BFs and posterior means are those of a call
        # that scores it alone
        batches = []
        real = models.block_subsets_scores

        def keep(designs, gammas, partition, a=3.0, *, rtol=1e-7):
            designs = list(designs)
            out = real(designs, gammas, partition, a, rtol=rtol)
            batches.append((designs, gammas, partition, a, rtol, out))
            return out
        monkeypatch.setattr(models, "block_subsets_scores", keep)
        run_prediction_consistency(n_schedule=(60, 240), replicates=3,
                                   seed=5)
        (designs, gammas, part, a, rtol, out), = batches
        assert [d.n for d in designs] == [60] * 3 + [240] * 3
        for d, (log_bfs, means, methods) in zip(designs, out):
            (one_bfs, one_means, one_methods), = real([d], gammas, part, a,
                                                      rtol=rtol)
            assert methods == one_methods
            np.testing.assert_allclose(log_bfs, one_bfs, rtol=1e-13,
                                       atol=0.0)
            np.testing.assert_allclose(means, one_means, rtol=1e-13,
                                       atol=0.0)

    def test_one_integral_batch_per_score_chunk(self, monkeypatch):
        # 2 sample sizes x 3 replicates = 6 designs, and every block
        # posterior of them goes through one batch call per _SCORE_CHUNK
        # models (shrunk to 8 here, so the chunking shows)
        from blockhyperg import integrate
        real, sizes = integrate.block_integrals_gamma1d_batch, []

        def counting(bpow, rho, delta, m, *, rtol=1e-10):
            sizes.append(len(m))
            return real(bpow, rho, delta, m, rtol=rtol)
        monkeypatch.setattr(integrate, "block_integrals_gamma1d_batch",
                            counting)
        monkeypatch.setattr(models, "_SCORE_CHUNK", 8)
        kw = dict(n_schedule=(100, 400), replicates=3, seed=1)
        run_selection_consistency(**kw)
        # five candidate models per design, none of them null
        assert sizes == [8, 8, 8, 6]
        sizes.clear()
        run_prediction_consistency(**kw)
        # the seven non-null block subsets of three blocks per design
        assert sizes == [8] * 5 + [2]

    def test_prediction_smoke(self):
        res = run_prediction_consistency(n_schedule=(60, 120),
                                         replicates=3, seed=2)
        meds = [v for _, v in res.series("median_abs_error")]
        assert len(meds) == 2 and all(v > 0 for v in meds)


class TestNullBlockScaling:
    def test_n_r2_of_noise_block_is_tight(self):
        # for a block carrying no signal, n * R_i^2 has an n-free limit law;
        # the upper quantile should be stable across a 4x change in n
        quantiles = []
        for n in (150, 600):
            vals = []
            for rep in range(200):
                rng = np.random.default_rng([42, rep, n])
                X = rng.normal(size=(n, 4))
                y = X[:, :2] @ np.array([1.0, -1.0]) + rng.normal(size=n)
                d = center_design(X, y, BlockPartition.contiguous((2, 2)))
                fit = fit_least_squares(d)
                vals.append(n * float(fit.r2_blocks[1]))
            quantiles.append(float(np.percentile(vals, 95)))
        ratio = quantiles[1] / quantiles[0]
        assert 0.5 < ratio < 2.0
