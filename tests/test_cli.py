"""CLI behavior: configs, exit codes, reports, reproducibility."""

import csv
import json
import math

import numpy as np
import pytest

from blockhyperg import cli
from blockhyperg.cli import (EXIT_BUDGET, EXIT_CONFIG, EXIT_DATA,
                             EXIT_NUMERICAL, EXIT_OK, EXIT_VERDICT, main)


def _write_csv(path, n=60, seed=0, beta=(1.0, -0.8, 0.0), noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, len(beta)))
    y = 1.0 + X @ np.asarray(beta) + noise * rng.normal(size=n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "x1", "x2", "x3"])
        w.writerows(np.column_stack([y, X]).tolist())


def _write_cfg(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)


def _run(tmp_path, cfg, extra_args=()):
    cfg_path = tmp_path / "cfg.json"
    _write_cfg(cfg_path, cfg)
    return main(["--config", str(cfg_path), *extra_args])


class TestConfigErrors:
    def test_missing_file(self, capsys):
        assert main(["--config", "/does/not/exist.json"]) == EXIT_CONFIG
        assert "blockhyperg:error:ConfigError:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == EXIT_CONFIG

    def test_unknown_mode(self, tmp_path):
        assert _run(tmp_path, {"mode": "train"}) == EXIT_CONFIG

    def test_unknown_experiment(self, tmp_path):
        assert _run(tmp_path, {"mode": "experiment:magic"}) == EXIT_CONFIG

    def test_bad_prior(self, tmp_path):
        cfg = {"mode": "experiment:els", "prior": {"type": "hyper-g",
                                                   "a": 5.0}}
        assert _run(tmp_path, cfg) == EXIT_CONFIG
        cfg = {"mode": "experiment:els", "prior": {"type": "ridge"}}
        assert _run(tmp_path, cfg) == EXIT_CONFIG
        cfg = {"mode": "experiment:els", "prior": {"type": "fixed-g",
                                                   "g": -1.0}}
        assert _run(tmp_path, cfg) == EXIT_CONFIG

    def test_fit_requires_data_fields(self, tmp_path):
        assert _run(tmp_path, {"mode": "fit"}) == EXIT_CONFIG
        assert _run(tmp_path, {"mode": "fit", "data": "d.csv"}) == EXIT_CONFIG
        cfg = {"mode": "fit", "data": "d.csv", "response": "y",
               "blocks": []}
        assert _run(tmp_path, cfg) == EXIT_CONFIG

    def test_budget_flag_is_rejected(self, tmp_path, capsys):
        # no route has an evaluation budget, so the flag is not accepted
        with pytest.raises(SystemExit) as exc:
            _run(tmp_path, {"mode": "experiment:els"}, ["--budget", "10"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_unknown_enumeration(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _write_csv(data)
        cfg = {"mode": "select", "data": str(data), "response": "y",
               "blocks": [["x1", "x2"], ["x3"]], "enumeration": "bogus",
               "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_CONFIG
        assert "blockhyperg:error:ConfigError:" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", [0, -3])
    def test_replicates_below_one(self, tmp_path, capsys, reps):
        cfg = {"mode": "experiment:selection", "replicates": reps,
               "n_schedule": [60, 120], "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_CONFIG
        assert ("blockhyperg:error:PreconditionViolated:"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("entry", [
        {"mode": "experiment:selection", "replicates": "many"},
        {"mode": "experiment:prediction", "n_schedule": [60, "lots"]},
        {"mode": "experiment:els", "n": "big"},
        {"mode": "experiment:els", "seed": "first"},
        {"mode": "experiment:clp", "scales": [1.0, "ten"]},
        {"mode": "experiment:info", "fixed_g": "huge"},
    ])
    def test_non_numeric_entry(self, tmp_path, capsys, entry):
        assert _run(tmp_path, dict(entry, output_dir=str(tmp_path))) \
            == EXIT_CONFIG
        assert "blockhyperg:error:ConfigError:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"mode": "experiment:els", "sizes": [0, 1]},
        {"mode": "experiment:els", "n": 3},
        {"mode": "experiment:selection", "n_schedule": [5, 400]},
        {"mode": "experiment:prediction", "n_schedule": [100, 6]},
    ])
    def test_impossible_design(self, tmp_path, capsys, entry):
        # an empty block, or n no larger than the number of predictors,
        # cannot be simulated: a config error, not a numerical failure
        assert _run(tmp_path, dict(entry, output_dir=str(tmp_path))) \
            == EXIT_CONFIG
        assert "blockhyperg:error:ConfigError:" in capsys.readouterr().err

    def test_select_rejects_fixed_g(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _write_csv(data)
        cfg = {"mode": "select", "data": str(data), "response": "y",
               "blocks": [["x1", "x2"], ["x3"]],
               "prior": {"type": "fixed-g", "g": 10.0},
               "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_CONFIG


    @pytest.mark.parametrize("entry", [
        {"x_star": ["a", "b", "c"]},
        {"x_star": [1.0, 2.0]},
        {"x_star": 1.0},
        {"x_star": [1.0, None, 0.0]},
        {"output_dir": 5},
    ])
    def test_select_entries_checked_before_data(self, tmp_path, capsys,
                                                entry):
        # the data file does not exist: the entry must fail first
        cfg = {"mode": "select", "data": str(tmp_path / "missing.csv"),
               "response": "y", "blocks": [["x1", "x2"], ["x3"]],
               "output_dir": str(tmp_path)}
        assert _run(tmp_path, dict(cfg, **entry)) == EXIT_CONFIG
        assert "blockhyperg:error:ConfigError:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"mode": "experiment:els", "prior": "hyper-g"},
        {"mode": "fit", "prior": ["block-hyper-g"]},
        {"mode": "experiment:clp", "scales": [10, 1]},
        {"mode": "experiment:sigma2", "scales": [5.0]},
        {"mode": "fit", "blocks": [[1], [2]]},
        {"mode": "select", "blocks": [["x1", 2]]},
    ], ids=["prior-string", "prior-list", "scales-decreasing",
            "scales-single", "blocks-ints", "blocks-mixed"])
    def test_malformed_entry(self, tmp_path, capsys, entry):
        # each ended in a traceback, a numerical or a data failure before
        cfg = {"data": str(tmp_path / "missing.csv"), "response": "y",
               "blocks": [["x1", "x2"], ["x3"]], "output_dir": str(tmp_path)}
        assert _run(tmp_path, dict(cfg, **entry)) == EXIT_CONFIG
        assert "blockhyperg:error:ConfigError:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", cli.EXPERIMENT_NAMES)
    def test_negative_seed(self, tmp_path, capsys, name):
        cfg = {"mode": f"experiment:{name}", "output_dir": str(tmp_path)}
        assert _run(tmp_path, dict(cfg, seed=-1)) == EXIT_CONFIG
        assert _run(tmp_path, cfg, ["--seed", "-5"]) == EXIT_CONFIG
        assert "blockhyperg:error:ConfigError:" in capsys.readouterr().err


class TestDataErrors:
    def test_missing_data_file(self, tmp_path, capsys):
        cfg = {"mode": "fit", "data": str(tmp_path / "nope.csv"),
               "response": "y", "blocks": [["x1"]],
               "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_DATA
        assert "blockhyperg:error:DataError:" in capsys.readouterr().err

    def test_missing_column(self, tmp_path):
        data = tmp_path / "d.csv"
        _write_csv(data)
        cfg = {"mode": "fit", "data": str(data), "response": "y",
               "blocks": [["x1"], ["zzz"]], "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_DATA


class TestNumericalErrors:
    def test_block_prior_without_orthogonality(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _write_csv(data)
        cfg = {"mode": "fit", "data": str(data), "response": "y",
               "blocks": [["x1", "x2"], ["x3"]],
               "prior": {"type": "block-hyper-g", "a": 3.0},
               "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_NUMERICAL
        assert ("blockhyperg:error:NotBlockOrthogonal:"
                in capsys.readouterr().err)
        # --orthogonalize fixes it
        assert _run(tmp_path, cfg, ("--orthogonalize",)) == EXIT_OK


class TestBudgetErrors:
    def test_replicate_cap(self, tmp_path, capsys):
        cfg = {"mode": "experiment:selection", "replicates": 100000,
               "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_BUDGET
        assert ("blockhyperg:error:SimulationBudgetExceeded:"
                in capsys.readouterr().err)


class TestFit:
    def _fit_cfg(self, tmp_path, prior):
        data = tmp_path / "d.csv"
        _write_csv(data)
        return {"mode": "fit", "data": str(data), "response": "y",
                "blocks": [["x1", "x2"], ["x3"]], "prior": prior,
                "orthogonalize": True, "output_dir": str(tmp_path)}

    def test_block_prior_report(self, tmp_path):
        cfg = self._fit_cfg(tmp_path, {"type": "block-hyper-g", "a": 3.0})
        assert _run(tmp_path, cfg) == EXIT_OK
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["mode"] == "fit"
        assert report["n"] == 60 and report["p"] == 3
        assert len(report["shrinkage"]) == 2
        assert len(report["posterior_mean"]) == 3
        assert report["method"] == "gamma1d"
        assert report["log_bf_null"] > 0
        assert "sigma2_posterior_mean" in report
        assert len(report["config_hash"]) == 64
        assert report["version"]

    def test_fit_reports_evaluations(self, tmp_path):
        # the block posterior's node count times its k+1 integrands; a
        # closed form evaluates no integrand
        for prior, k in (({"type": "block-hyper-g", "a": 3.0}, 2),
                         ({"type": "hyper-g", "a": 3.0}, None)):
            cfg = self._fit_cfg(tmp_path, prior)
            assert _run(tmp_path, cfg) == EXIT_OK
            report = json.loads((tmp_path / "fit.json").read_text())
            if k is None:
                assert report["n_evals"] == 0
            else:
                assert report["n_evals"] > 0
                assert report["n_evals"] % (k + 1) == 0

    def test_block_fit_integrates_once(self, tmp_path, monkeypatch):
        # the sigma^2 mean comes from the block posterior's own integral;
        # every module's binding of the 1-D integrator is counted
        import sys

        from blockhyperg import _quadlog
        real, calls = _quadlog.adaptive_log_integral, []

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)
        for name, mod in list(sys.modules.items()):
            if (name.startswith("blockhyperg")
                    and getattr(mod, "adaptive_log_integral", None) is real):
                monkeypatch.setattr(mod, "adaptive_log_integral", counting)
        cfg = self._fit_cfg(tmp_path, {"type": "block-hyper-g", "a": 3.0})
        assert _run(tmp_path, cfg) == EXIT_OK
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["sigma2_posterior_mean"] > 0
        assert len(calls) == 1

    def test_hyper_g_report(self, tmp_path):
        cfg = self._fit_cfg(tmp_path, {"type": "hyper-g", "a": 3.0})
        assert _run(tmp_path, cfg) == EXIT_OK
        report = json.loads((tmp_path / "fit.json").read_text())
        assert 0 < report["shrinkage"] < 1
        assert report["method"] == "closed-form"
        assert report["sigma2_limit"]["shape"] > 0

    def test_hyper_g_band_reports_its_integral(self, tmp_path):
        # n = 7 <= p+a+1 near R^2 = 1: the route table scores the model
        # with a k = 1 block integral, and fit.json names that route, with
        # the integral's own error estimate and node count
        from blockhyperg import design, hyperg, integrate
        cfg = self._fit_cfg(tmp_path, {"type": "hyper-g", "a": 3.0})
        _write_csv(cfg["data"], n=7, noise=1e-6)
        assert _run(tmp_path, cfg) == EXIT_OK
        report = json.loads((tmp_path / "fit.json").read_text())
        fit = design.fit_least_squares(cli._load_design(cfg)[0])
        assert fit.n <= fit.p + 3.0 + 1.0 and fit.one_minus_r2 < 1e-10
        res = integrate.block_integrals_gamma1d(
            [0.5 * (3.0 + fit.p) - 2.0], [1.0 - fit.one_minus_r2],
            fit.one_minus_r2, 0.5 * (fit.n - 1))
        log_bf, shrink = hyperg.hyper_g_scores(3.0, fit.n, fit.p, fit.r2,
                                               fit.one_minus_r2)
        assert report["method"] == "k1-integral"
        assert report["error_estimate"] == res.error > 0.0
        assert report["n_evals"] == res.n_evals > 0
        assert report["log_bf_null"] == float(log_bf)
        assert report["shrinkage"] == float(shrink)

    def test_fixed_g_report(self, tmp_path):
        cfg = self._fit_cfg(tmp_path, {"type": "fixed-g", "g": 20.0})
        assert _run(tmp_path, cfg) == EXIT_OK
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["shrinkage"] == pytest.approx(20.0 / 21.0)

    def test_reproducible_modulo_timestamp(self, tmp_path):
        cfg = self._fit_cfg(tmp_path, {"type": "block-hyper-g", "a": 3.0})
        assert _run(tmp_path, cfg) == EXIT_OK
        r1 = json.loads((tmp_path / "fit.json").read_text())
        assert _run(tmp_path, cfg) == EXIT_OK
        r2 = json.loads((tmp_path / "fit.json").read_text())
        r1.pop("timestamp")
        r2.pop("timestamp")
        assert r1 == r2

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = self._fit_cfg(tmp_path, {"type": "block-hyper-g", "a": 3.0})
        assert _run(tmp_path, cfg) == EXIT_OK
        h0 = json.loads((tmp_path / "fit.json").read_text())["config_hash"]
        assert _run(tmp_path, cfg, ("--seed", "99")) == EXIT_OK
        rep = json.loads((tmp_path / "fit.json").read_text())
        assert rep["seed"] == 99 and rep["config_hash"] != h0


class TestSelect:
    def test_models_sorted_with_prediction(self, tmp_path):
        data = tmp_path / "d.csv"
        _write_csv(data, n=200)
        cfg = {"mode": "select", "data": str(data), "response": "y",
               "blocks": [["x1", "x2"], ["x3"]],
               "prior": {"type": "block-hyper-g", "a": 3.0},
               "x_star": [0.5, -0.5, 1.0],
               "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_OK
        report = json.loads((tmp_path / "models.json").read_text())
        rows = report["models"]
        assert len(rows) == 4  # 2^k block subsets
        probs = [r["post_prob"] for r in rows]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert rows[0]["gamma_bits"][:2] == [1, 1]
        assert all("method" in r and "posterior_mean" in r for r in rows)
        assert isinstance(report["bma_prediction"], float)

    def test_all_subsets_enumeration(self, tmp_path):
        data = tmp_path / "d.csv"
        _write_csv(data, n=120)
        cfg = {"mode": "select", "data": str(data), "response": "y",
               "blocks": [["x1"], ["x2"], ["x3"]],
               "enumeration": "all-subsets",
               "prior": {"type": "hyper-g", "a": 3.0},
               "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_OK
        report = json.loads((tmp_path / "models.json").read_text())
        assert len(report["models"]) == 8


class TestNearExactSmallN:
    def test_fit_and_select_one_above_propriety(self, tmp_path):
        # n = 8 is one above the propriety boundary k(a-2)+p+1 = 7 of two
        # two-column blocks, and noise 1e-9 puts 1-R^2 near 1e-18; x5 is
        # in the data, with beta_5 = 0, and in no block
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 5))
        y = X @ np.array([1.0, -0.8, 0.6, 0.5, 0.0]) + 1e-9 * rng.normal(
            size=8)
        data = tmp_path / "d.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["y", "x1", "x2", "x3", "x4", "x5"])
            w.writerows(np.column_stack([y, X]).tolist())
        cfg = {"data": str(data), "response": "y",
               "blocks": [["x1", "x2"], ["x3", "x4"]],
               "prior": {"type": "block-hyper-g", "a": 3.0},
               "orthogonalize": True, "output_dir": str(tmp_path)}
        assert _run(tmp_path, dict(cfg, mode="fit")) == EXIT_OK
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert math.isfinite(fit["log_bf_null"])
        assert all(1.0 - 1e-6 < t < 1.0 for t in fit["shrinkage"])
        assert _run(tmp_path, dict(cfg, mode="select")) == EXIT_OK
        rows = json.loads((tmp_path / "models.json").read_text())["models"]
        assert rows[0]["gamma_bits"] == [1, 1, 1, 1]
        assert rows[0]["log_bf_null"] == pytest.approx(fit["log_bf_null"],
                                                       rel=1e-6)


class TestReportWriter:
    def test_matches_per_element_walk(self, tmp_path):
        # _write_json against the per-element _jsonable walk it replaced:
        # the same document, "inf" strings in the same places, one line
        rng = np.random.default_rng(0)
        rows = [{"model_id": f"{i:011b}", "gamma_bits": [i % 2, 1],
                 "log_bf_null": np.float64(math.inf if i == 700 else i / 7),
                 "post_prob": float(i) / 3.0, "method": "closed-form",
                 "posterior_mean": rng.normal(size=3)}
                for i in range(2 * cli._ROW_BATCH + 5)]
        rows[3]["posterior_mean"] = np.array([1.0, -math.inf, 2.5])
        payload = {
            "models": rows, "n": np.int64(40), "alpha_hat": np.float64(0.5),
            "log_bf_null": math.inf, "shrinkage": np.array([0.25, 0.5]),
            "limits": np.array([[1.0, math.inf], [-math.inf, 0.0]]),
            "prior": {"type": "hyper-g", "a": 3.0,
                      "nested": {"z": None, "ok": True, "k": [1, 2]}},
            "sigma2_limit": None, "passed": False, "columns": ["x1", "x2"],
        }
        path = tmp_path / "r.json"
        cli._write_json(str(path), payload)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        got = json.loads(text)
        assert got == json.loads(json.dumps(cli._jsonable(payload)))
        assert list(got) == sorted(payload)
        assert got["log_bf_null"] == "inf"
        assert got["limits"] == [[1.0, "inf"], ["-inf", 0.0]]
        assert got["models"][700]["log_bf_null"] == "inf"
        assert got["models"][3]["posterior_mean"][1] == "-inf"
        assert [r["model_id"] for r in got["models"]] == [
            r["model_id"] for r in rows]


class TestExperimentRuns:
    def test_els_outputs(self, tmp_path):
        cfg = {"mode": "experiment:els", "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_OK
        verdict = json.loads((tmp_path / "els_verdict.json").read_text())
        assert verdict["passed"] is True
        assert verdict["experiment"] == "els"
        with open(tmp_path / "els.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"x", "statistic", "value", "err"}

    def test_clp_passes(self, tmp_path):
        cfg = {"mode": "experiment:clp", "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_OK
        verdict = json.loads((tmp_path / "clp_verdict.json").read_text())
        assert verdict["verdicts"]["hyperg_below_minus_10_at_top"] is True
        assert verdict["verdicts"]["block_ratio_above_floor"] is True

    def test_verdict_failure_exit_code(self, tmp_path):
        # a sweep stopping at scale 100 cannot clear the -10 decay target
        cfg = {"mode": "experiment:clp", "output_dir": str(tmp_path),
               "scales": [1.0, 10.0, 100.0]}
        assert _run(tmp_path, cfg) == EXIT_VERDICT
        verdict = json.loads((tmp_path / "clp_verdict.json").read_text())
        assert verdict["passed"] is False

    def test_info_bounded_via_config(self, tmp_path):
        cfg = {"mode": "experiment:info", "regime": "bounded", "n": 5,
               "sizes": [2, 1], "prior": {"type": "block-hyper-g",
                                          "a": 4.0},
               "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_OK

    def test_sigma2_outputs(self, tmp_path):
        cfg = {"mode": "experiment:sigma2", "output_dir": str(tmp_path)}
        assert _run(tmp_path, cfg) == EXIT_OK
        verdict = json.loads((tmp_path / "sigma2_verdict.json").read_text())
        assert verdict["passed"] is True

    def test_selection_smoke_via_config(self, tmp_path):
        cfg = {"mode": "experiment:selection", "replicates": 2,
               "n_schedule": [60, 120], "output_dir": str(tmp_path),
               "prior": {"type": "block-hyper-g", "a": 3.5}}
        rc = _run(tmp_path, cfg)
        assert rc in (EXIT_OK, EXIT_VERDICT)  # 2 reps carry no guarantee
        assert (tmp_path / "selection.csv").exists()
        assert (tmp_path / "selection_verdict.json").exists()
