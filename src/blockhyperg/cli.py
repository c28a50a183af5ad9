"""Command-line entry point: fit, model selection, and the experiment suite.

All inputs come from a JSON config file; --seed/--orthogonalize override
the corresponding config entries (the seed drives the experiments'
simulated data; no fit or search route is random). Reports are compact
one-line JSON with sorted keys plus CSV sweep tables, each embedding the
config hash, seed, library version, and the method behind every computed
number. Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical
failure, 5 budget exceeded, 6 experiment verdict failed.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, blockprior, design, experiments, hyperg, models
from .errors import (BlockHyperGError, BudgetExceeded, ConfigError,
                     DataError, DimensionMismatch, DomainError,
                     EmptyModelList, IntegralDiverges, NoConvergence,
                     NotBlockOrthogonal, OutOfInterior,
                     PreconditionViolated, RankDeficient,
                     SimulationBudgetExceeded)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_BUDGET = 5
EXIT_VERDICT = 6

_CONFIG_ERRORS = (ConfigError, PreconditionViolated)
_DATA_ERRORS = (DataError,)
_BUDGET_ERRORS = (BudgetExceeded, SimulationBudgetExceeded)
_NUMERICAL_ERRORS = (NoConvergence, NotBlockOrthogonal, IntegralDiverges,
                     OutOfInterior, RankDeficient, DomainError,
                     DimensionMismatch, EmptyModelList)

_ROW_BATCH = 1024  # list items encoded per write in _write_json

EXPERIMENT_NAMES = ("els", "clp", "info", "selection", "prediction",
                    "sigma2")


def _stderr_tag(exc: Exception) -> None:
    msg = str(exc).splitlines()[0] if str(exc) else exc.__class__.__name__
    print(f"blockhyperg:error:{exc.__class__.__name__}: {msg}",
          file=sys.stderr)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _validate_config(cfg: dict) -> dict:
    mode = cfg.get("mode")
    if not isinstance(mode, str):
        raise ConfigError("config requires a string 'mode'")
    if mode not in ("fit", "select") and not mode.startswith("experiment:"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode.startswith("experiment:"):
        name = mode.split(":", 1)[1]
        if name not in EXPERIMENT_NAMES:
            raise ConfigError(
                f"unknown experiment {name!r}; choose from "
                f"{', '.join(EXPERIMENT_NAMES)}")
    prior = cfg.setdefault("prior", {"type": "block-hyper-g", "a": 3.0})
    ptype = prior.get("type") if isinstance(prior, dict) else None
    if ptype not in ("fixed-g", "hyper-g", "block-hyper-g"):
        raise ConfigError(f"'prior' needs a known 'type', got {prior!r}")
    if ptype == "fixed-g":
        g = prior.get("g")
        if not isinstance(g, (int, float)) or not (g >= 0
                                                   and math.isfinite(g)):
            raise ConfigError("fixed-g prior needs finite g >= 0")
    else:
        a = prior.setdefault("a", 3.0)
        if not isinstance(a, (int, float)) or not (2.0 < a <= 4.0):
            raise ConfigError(f"prior needs 2 < a <= 4, got a={a}")
    if mode in ("fit", "select"):
        if not isinstance(cfg.get("data"), str):
            raise ConfigError(f"mode {mode!r} requires a 'data' CSV path")
        if not isinstance(cfg.get("response"), str):
            raise ConfigError(f"mode {mode!r} requires a 'response' column")
        blocks = cfg.get("blocks")
        if (not isinstance(blocks, list) or not blocks
                or not all(isinstance(b, list) and b
                           and all(isinstance(c, str) for c in b)
                           for b in blocks)):
            raise ConfigError(
                "'blocks' must be a non-empty list of column-name lists")
    if mode == "select" and cfg.get("enumeration", "block-subsets") not in (
            "all-subsets", "block-subsets"):
        raise ConfigError(
            f"unknown enumeration {cfg['enumeration']!r}; choose "
            "all-subsets or block-subsets")
    if mode == "select" and "x_star" in cfg:
        p = sum(len(b) for b in cfg["blocks"])
        x_star = _config_value(cfg, "x_star", None,
                               lambda v: np.asarray(v, dtype=float))
        if x_star.shape != (p,) or not np.all(np.isfinite(x_star)):
            raise ConfigError(f"'x_star' needs {p} finite numbers, one per "
                              "predictor in 'blocks'")
    cfg.setdefault("seed", 0)
    if _config_value(cfg, "seed", 0, int) < 0:
        raise ConfigError(f"'seed' must be >= 0, got {cfg['seed']}")
    cfg.setdefault("orthogonalize", False)
    if not isinstance(cfg.setdefault("output_dir", "."), str):
        raise ConfigError("'output_dir' must be a directory path string")
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _provenance(cfg: dict) -> dict:
    return {
        "version": __version__,
        "seed": int(cfg["seed"]),
        "config_hash": _config_hash(cfg),
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        x = float(x)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _numpy_value(x):
    """The C encoder's hook for what it cannot encode: an array converts
    with one `.tolist()`, a numpy scalar to its Python value."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _dumps(x) -> str:
    """Compact JSON with sorted keys, from the C encoder. Where a float is
    not finite, x is first walked by `_jsonable`, which writes +-inf as the
    strings "inf" and "-inf"; NaN stays NaN."""
    try:
        return json.dumps(x, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, default=_numpy_value)
    except ValueError:
        return json.dumps(_jsonable(x), sort_keys=True,
                          separators=(",", ":"), default=_numpy_value)


def _write_json(path: str, payload: dict) -> None:
    """Write payload as one line of compact JSON with sorted keys.

    A top-level list longer than _ROW_BATCH (the models of a search) is
    converted and encoded _ROW_BATCH items at a time, so neither the whole
    document nor a converted copy of the list is held at once.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for i, key in enumerate(sorted(payload)):
            fh.write(("," if i else "") + json.dumps(key) + ":")
            value = payload[key]
            if isinstance(value, list) and len(value) > _ROW_BATCH:
                for start in range(0, len(value), _ROW_BATCH):
                    chunk = _dumps(value[start:start + _ROW_BATCH])
                    fh.write(("[" if start == 0 else ",") + chunk[1:-1])
                fh.write("]")
            else:
                fh.write(_dumps(value))
        fh.write("}\n")


def _load_design(cfg: dict) -> tuple[design.CenteredDesign, list[str]]:
    X_raw, y_raw, partition, names = design.load_csv_design(
        cfg["data"], cfg["response"], cfg["blocks"])
    d = design.center_design(X_raw, y_raw, partition)
    if cfg["orthogonalize"]:
        d, _ = design.block_orthogonalize(d)
    return d, names


def cmd_fit(cfg: dict) -> int:
    d, names = _load_design(cfg)
    fit = design.fit_least_squares(d)
    prior = cfg["prior"]
    report = _provenance(cfg)
    report.update({
        "mode": "fit",
        "n": fit.n,
        "p": fit.p,
        "columns": names,
        "blocks": [list(b) for b in cfg["blocks"]],
        "alpha_hat": fit.alpha_hat,
        "beta_hat_ls": fit.beta_hat_ls,
        "sigma2_hat": fit.sigma2_hat,
        "r2": fit.r2,
        "r2_blocks": fit.r2_blocks,
        "block_orthogonal": fit.block_orthogonal,
        "prior": prior,
    })
    if prior["type"] == "block-hyper-g":
        bprior = blockprior.BlockHyperGPrior(float(prior["a"]), d.partition)
        post = blockprior.bf_block_hyper_g(bprior, fit)
        log_bf, shrink = post.log_bf_null, post.t_mean
        mean = blockprior.scale_blocks(fit.beta_hat_ls, d.partition, shrink)
        method, error, n_evals = (post.method, post.error_estimate,
                                  post.n_evals)
        if post.sigma2_mean is not None:
            report["sigma2_posterior_mean"] = post.sigma2_mean
    else:
        method, error, n_evals = "closed-form", 0.0, 0
        if prior["type"] == "fixed-g":
            g = float(prior["g"])
            log_bf = hyperg.log_bf_fixed_g_stats(g, fit.n, fit.p, fit.r2,
                                                 fit.one_minus_r2)
            shrink = g / (1.0 + g)
        else:
            a = float(prior["a"])
            # the band n <= p+a+1 near R^2 = 1 is a k = 1 block integral
            log_bf, shrink, band, err, evals = (
                v.item() for v in hyperg._routed_scores(
                    a, fit.n, fit.p, fit.r2, fit.one_minus_r2))
            if band:
                method, error, n_evals = "k1-integral", err, evals
            if fit.n > a + fit.p - 1.0:
                ig = hyperg.sigma2_limit_hyper_g(hyperg.HyperGPrior(a),
                                                 fit.n, fit.p, fit.sigma2_hat)
                report["sigma2_limit"] = {"shape": ig.shape,
                                          "scale": ig.scale}
        mean = shrink * fit.beta_hat_ls
    report.update({"log_bf_null": log_bf, "shrinkage": shrink,
                   "posterior_mean": mean, "method": method,
                   "error_estimate": error, "n_evals": n_evals})
    out = os.path.join(cfg["output_dir"], "fit.json")
    _write_json(out, report)
    return EXIT_OK


def cmd_select(cfg: dict) -> int:
    d, names = _load_design(cfg)
    prior = cfg["prior"]
    if prior["type"] == "fixed-g":
        raise ConfigError("model selection requires a hyper-g family prior")
    a = float(prior["a"])
    mode = cfg.get("enumeration", "block-subsets")
    posterior, means, methods = models.evaluate_model_space(d, mode, a=a)
    # rows in report order, each built once; the writer converts means[i]
    order = np.argsort(-posterior.post_prob, kind="stable")
    bits = np.array([m.gamma for m in posterior.models], np.uint8)[order]
    ids = (bits + ord("0")).view(f"S{d.p}").ravel().astype(str)
    rows = [{"model_id": model_id, "gamma_bits": gamma, "log_bf_null": lb,
             "post_prob": prob, "method": methods[i],
             "posterior_mean": means[i]}
            for i, model_id, gamma, lb, prob in zip(
                order.tolist(), ids.tolist(), bits.tolist(),
                posterior.log_bf_null[order].tolist(),
                posterior.post_prob[order].tolist())]
    report = _provenance(cfg)
    report.update({
        "mode": "select",
        "enumeration": mode,
        "columns": names,
        "prior": prior,
        "models": rows,
    })
    if "x_star" in cfg:
        x_star = np.asarray(cfg["x_star"], dtype=float)
        report["bma_prediction"] = models.bma_predict(
            x_star, posterior, means, d.x_means, d.y_mean)
    out = os.path.join(cfg["output_dir"], "models.json")
    _write_json(out, report)
    return EXIT_OK


def _config_value(cfg: dict, key: str, default, convert):
    """convert(cfg[key]), or of the default; a value that does not convert
    is a config error."""
    try:
        return convert(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config entry {key!r}: {exc}") from None


def _ints(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def _sequence_from_config(cfg: dict) -> experiments.SequenceSpec:
    n = _config_value(cfg, "n", 50, int)
    sizes = _config_value(cfg, "sizes", (2, 1), _ints)
    if not sizes or min(sizes) < 1:
        raise ConfigError(
            f"'sizes' needs one or more blocks of size >= 1, got {sizes}")
    if n <= sum(sizes):
        raise ConfigError(
            f"'n' must exceed the {sum(sizes)} predictors, got n={n}")
    scales = _config_value(cfg, "scales", experiments.DEFAULT_SCALES,
                           lambda v: tuple(float(c) for c in v))
    try:
        return experiments.standard_sequence(
            n=n, sizes=sizes,
            a=float(cfg["prior"].get("a", 3.0)), seed=int(cfg["seed"]),
            scales=scales, noise=_config_value(cfg, "noise", 1.0, float))
    except DomainError as exc:  # e.g. scales not strictly increasing
        raise ConfigError(f"invalid sequence: {exc}") from None


def cmd_experiment(cfg: dict) -> int:
    name = cfg["mode"].split(":", 1)[1]
    if name in ("els", "clp", "info", "sigma2"):
        spec = _sequence_from_config(cfg)
        if name == "els":
            result = experiments.run_els_experiment(spec)
        elif name == "clp":
            result = experiments.run_clp_experiment(spec)
        elif name == "info":
            result = experiments.run_info_consistency(
                spec, regime=cfg.get("regime", "divergent"),
                fixed_g=_config_value(
                    cfg, "fixed_g", None,
                    lambda v: None if v is None else float(v)))
        else:
            result = experiments.sigma2_limit_check(spec)
    else:
        schedule = _config_value(cfg, "n_schedule", (100, 400, 1600), _ints)
        pool_p = sum(experiments.SELECTION_POOL if name == "selection"
                     else experiments.PREDICTION_POOL)
        if any(n <= pool_p for n in schedule):
            raise ConfigError(
                f"every 'n_schedule' entry must exceed the {pool_p} "
                f"predictors of the {name} pool, got {list(schedule)}")
        reps = _config_value(cfg, "replicates", 200, int)
        a = float(cfg["prior"].get("a", 3.0))
        if name == "selection":
            result = experiments.run_selection_consistency(
                n_schedule=schedule, replicates=reps,
                seed=int(cfg["seed"]), a=a)
        else:
            result = experiments.run_prediction_consistency(
                n_schedule=schedule, replicates=reps,
                seed=int(cfg["seed"]), a=a,
                noise=_config_value(cfg, "noise", 1.0, float))
    csv_path = os.path.join(cfg["output_dir"], f"{name}.csv")
    result.write_csv(csv_path)
    payload = _provenance(cfg)
    payload.update(result.verdict_payload())
    _write_json(os.path.join(cfg["output_dir"], f"{name}_verdict.json"),
                payload)
    return EXIT_OK if result.passed else EXIT_VERDICT


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blockhyperg",
        description="Bayes factors, shrinkage, and model averaging under "
                    "g-prior mixtures")
    parser.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--orthogonalize", action="store_true",
                        help="block-orthogonalize the design before use")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.orthogonalize:
            cfg["orthogonalize"] = True
        cfg = _validate_config(cfg)
        os.makedirs(cfg["output_dir"], exist_ok=True)
        if cfg["mode"] == "fit":
            return cmd_fit(cfg)
        if cfg["mode"] == "select":
            return cmd_select(cfg)
        return cmd_experiment(cfg)
    except _CONFIG_ERRORS as exc:
        _stderr_tag(exc)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        _stderr_tag(exc)
        return EXIT_DATA
    except _BUDGET_ERRORS as exc:
        _stderr_tag(exc)
        return EXIT_BUDGET
    except _NUMERICAL_ERRORS as exc:
        _stderr_tag(exc)
        return EXIT_NUMERICAL
    except BlockHyperGError as exc:  # anything not classified above
        _stderr_tag(exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
