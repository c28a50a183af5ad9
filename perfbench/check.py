"""Reference values: what is stored per item and how outputs are compared.

Tolerances follow the library's stated accuracy:

- block-prior fits run at rtol 1e-7, so log BFs and shrinkage means must
  agree to 1e-6; a monte-carlo fit may differ by its reported error
  estimate instead, and a reference's own error, measured against the
  independent gamma1d route when it was made, is added on top;
- the all-subsets closed forms are evaluated to ~1e-12, so log BFs agree
  to 1e-6 absolute plus 1e-10 relative, and probabilities to 1e-6;
- the experiments integrate at rtol 1e-4, so their series agree to 1e-3;
  a verdict is compared unless an output within that tolerance of the
  reference series could fall on the other side of its threshold. With
  one replicate per call the verdicts rest on single samples, so a
  reference value can lie close to a threshold.

Method labels are recorded in the reference but never compared: a change
of route is allowed, a change of value is not.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import A_FIT, parse_key, select_data

FIT_TOL = 1e-6
SELECT_ABS = 1e-6
SELECT_REL = 1e-10
PROB_TOL = 1e-6
EXP_TOL = 1e-3
LS_TOL = 1e-9


def _same_inf(got: float, ref: float) -> bool | None:
    """Equality when either side is infinite (the CLI writes +inf as the
    string "inf", which float() reads back); None when both are finite."""
    if math.isinf(got) or math.isinf(ref):
        return got == ref
    return None


def submodel_ls(Xc: np.ndarray, yc: np.ndarray, cols) -> np.ndarray:
    """Least squares on centered data by numpy's SVD solver: a route
    independent of the library's pivoted QR."""
    return np.linalg.lstsq(Xc[:, cols], yc, rcond=None)[0]


def _centered_select(key: str):
    X, y, _, _ = select_data(key)
    return X - X.mean(axis=0), y - y.mean()


def _model_cols(model_id: str) -> list[int]:
    return [j for j, bit in enumerate(model_id) if bit == "1"]


# -- summaries stored in reference.json -------------------------------------

def summarize(key: str, out: dict) -> dict:
    """The reference record for one item, from a collected output."""
    family = key.split("/")[0]
    if family == "experiment":
        return {"rows": out["rows"], "verdicts": out["verdicts"]}
    if out["exit"] != 0:
        raise RuntimeError(f"{key}: CLI exit {out['exit']}")
    rep = out["report"]
    if family == "fit":
        rec = {k: rep[k] for k in ("log_bf_null", "shrinkage",
                                   "posterior_mean", "r2", "sigma2_hat",
                                   "method", "error_estimate")}
        if "sigma2_posterior_mean" in rep:
            rec["sigma2_posterior_mean"] = rep["sigma2_posterior_mean"]
        return rec
    Xc, yc = _centered_select(key)
    p = Xc.shape[1]
    log_bf = [0.0] * 2 ** p
    shrink = [0.0] * 2 ** p
    for row in rep["models"]:
        idx = int(row["model_id"], 2)
        log_bf[idx] = float(row["log_bf_null"])
        cols = _model_cols(row["model_id"])
        if cols:
            b = submodel_ls(Xc, yc, cols)
            pm = np.asarray(row["posterior_mean"], dtype=float)[cols]
            shrink[idx] = float(pm @ b / (b @ b))
    return {"log_bf": log_bf, "shrinkage": shrink,
            "bma_prediction": rep["bma_prediction"],
            "methods": sorted({row["method"] for row in rep["models"]})}


# -- comparisons -------------------------------------------------------------

def compare(key: str, out: dict, ref: dict) -> list[str]:
    """Every disagreement between an output and its reference, as text."""
    family = key.split("/")[0]
    if family == "experiment":
        return _compare_experiment(out, ref)
    if out.get("exit") != 0:
        return [f"CLI exit code {out.get('exit')}"]
    if family == "fit":
        return _compare_fit(key, out["report"], ref)
    return _compare_select(key, out["report"], ref)


def _compare_fit(key: str, rep: dict, ref: dict) -> list[str]:
    bad = []
    tol = FIT_TOL
    if ref["method"] == "monte-carlo" or rep.get("method") == "monte-carlo":
        tol = max(tol, float(ref["error_estimate"]),
                  float(rep.get("error_estimate", 0.0)))
    # a reference is only as exact as its route: where the independent
    # route measured its error, that error is added to the tolerance
    ref_err = ref.get("crosscheck", {})
    got, want = float(rep["log_bf_null"]), float(ref["log_bf_null"])
    bf_tol = tol * max(1.0, abs(want)) + ref_err.get("log_bf_abs_diff", 0.0)
    inf = _same_inf(got, want)
    if inf is False or (inf is None and abs(got - want) > bf_tol):
        bad.append(f"log_bf_null {got!r} vs {want!r} (tol {bf_tol:g})")
    t_tol = tol + ref_err.get("shrinkage_max_abs_diff", 0.0)
    t_got = np.asarray(rep["shrinkage"], dtype=float)
    t_ref = np.asarray(ref["shrinkage"], dtype=float)
    if t_got.shape != t_ref.shape or np.any(np.abs(t_got - t_ref) > t_tol):
        bad.append(f"shrinkage {t_got.tolist()} vs {t_ref.tolist()}")
    # a coefficient is t_i times its LS value and t_i >= 2/(a+p_i), so a
    # shrinkage error t_tol moves it by at most t_tol (a+p_i)/2 relative
    cat, _ = parse_key(key)
    rel = t_tol * (A_FIT + max(cat.param("sizes"))) / 2.0
    m_got = np.asarray(rep["posterior_mean"], dtype=float)
    m_ref = np.asarray(ref["posterior_mean"], dtype=float)
    if (m_got.shape != m_ref.shape
            or np.any(np.abs(m_got - m_ref) > rel * np.abs(m_ref) + 1e-300)):
        bad.append("posterior_mean outside tolerance")
    for name in ("r2", "sigma2_hat"):
        g, w = float(rep[name]), float(ref[name])
        if abs(g - w) > LS_TOL * max(abs(w), 1e-300):
            bad.append(f"{name} {g!r} vs {w!r}")
    if ("sigma2_posterior_mean" in rep) != ("sigma2_posterior_mean" in ref):
        bad.append("sigma2_posterior_mean presence differs")
    elif "sigma2_posterior_mean" in ref:
        g = float(rep["sigma2_posterior_mean"])
        w = float(ref["sigma2_posterior_mean"])
        if abs(g - w) > FIT_TOL * abs(w):
            bad.append(f"sigma2_posterior_mean {g!r} vs {w!r}")
    return bad


def _compare_select(key: str, rep: dict, ref: dict) -> list[str]:
    bad = []
    ref_bf = np.asarray(ref["log_bf"], dtype=float)
    rows = rep["models"]
    idx = [int(r["model_id"], 2) for r in rows]
    if sorted(idx) != list(range(len(ref_bf))):
        return [f"model list has {len(rows)} rows, expected {len(ref_bf)}"]
    got_bf = np.array([float(r["log_bf_null"]) for r in rows])
    want_bf = ref_bf[idx]
    err = np.abs(got_bf - want_bf)
    if np.any(err > SELECT_ABS + SELECT_REL * np.abs(want_bf)):
        bad.append(f"log_bf_null off by up to {float(err.max()):.3g}")
    # reference probabilities: uniform prior times the reference BFs
    w = np.exp(ref_bf - ref_bf.max())
    want_prob = (w / w.sum())[idx]
    got_prob = np.array([r["post_prob"] for r in rows], dtype=float)
    if np.any(np.abs(got_prob - want_prob) > PROB_TOL):
        bad.append("post_prob outside tolerance")
    Xc, yc = _centered_select(key)
    worst = 0.0
    for r, i in zip(rows, idx):
        cols = _model_cols(r["model_id"])
        pm = np.asarray(r["posterior_mean"], dtype=float)
        want = np.zeros_like(pm)
        if cols:
            want[cols] = ref["shrinkage"][i] * submodel_ls(Xc, yc, cols)
        scale = FIT_TOL * np.abs(want) + 1e-12 * float(np.abs(want).max()
                                                       + 1e-300)
        worst = max(worst, float(np.max(np.abs(pm - want) / scale)))
    if worst > 1.0:
        bad.append(f"posterior_mean off by {worst:.3g}x its tolerance")
    g, wv = float(rep["bma_prediction"]), float(ref["bma_prediction"])
    if abs(g - wv) > FIT_TOL * max(1.0, abs(wv)):
        bad.append(f"bma_prediction {g!r} vs {wv!r}")
    return bad


def _exp_tol(statistic: str, value: float) -> float:
    # log-BF series are on a log scale; prediction errors are scales
    floor = 1.0 if "log_bf" in statistic else 0.0
    return EXP_TOL * max(floor, abs(value))


def _near_threshold(verdict: str, rows: list[dict]) -> bool:
    """Whether series within tolerance of the reference rows could flip
    the verdict: its reference quantity lies within what that tolerance
    can move it of its threshold. The thresholds are those of
    experiments.py at the calls' defaults (noise 1); a verdict not listed
    here is always compared."""
    col = {}
    for r in rows:
        col.setdefault((r["statistic"], "value"), []).append(r["value"])
        col.setdefault((r["statistic"], "err"), []).append(r["err"])
        col.setdefault((r["statistic"], "x"), []).append(r["x"])

    def near(stat, field, i, threshold):
        v = col[stat, field][i]
        return abs(v - threshold) <= _exp_tol(stat, v)

    if verdict.endswith("_below_-5"):
        return near(verdict[:-len("_below_-5")] + "_median_log_bf", "value",
                    -1, -5.0)
    case2c = "case2c_new_block_only_median_log_bf"
    if verdict == "case2c_bounded_drift":
        v = col[case2c, "value"]
        slack = _exp_tol(case2c, v[-1]) + _exp_tol(case2c, v[-2])
        return abs(abs(v[-1] - v[-2]) - 2.0) <= slack
    if verdict == "case2c_iqr_in_band":
        return near(case2c, "err", -1, 8.0)
    if verdict == "error_halves_per_4x_n":
        # a ratio of two values each within EXP_TOL moves by about 2 EXP_TOL
        m = col["median_abs_error", "value"]
        ratios = [m[i] / m[i + 1] for i in range(len(m) - 1)]
        return any(min(abs(r - 1.0), abs(r - 4.0))
                   <= r * 2.0 * EXP_TOL / (1.0 - EXP_TOL) for r in ratios)
    if verdict == "absolute_scale":
        x = col["median_abs_error", "x"][-1]
        return near("median_abs_error", "value", -1, 10.0 / math.sqrt(x))
    return False


def _compare_experiment(out: dict, ref: dict) -> list[str]:
    bad = []
    for name in sorted(set(out["verdicts"]) | set(ref["verdicts"])):
        got, want = out["verdicts"].get(name), ref["verdicts"].get(name)
        if got != want and (got is None or want is None
                            or not _near_threshold(name, ref["rows"])):
            bad.append(f"verdict {name} {got} vs {want}")
    if len(out["rows"]) != len(ref["rows"]):
        return bad + ["row count differs"]
    for got, want in zip(out["rows"], ref["rows"]):
        if (got["x"], got["statistic"]) != (want["x"], want["statistic"]):
            bad.append(f"row {got['statistic']}@{got['x']} out of order")
            continue
        for col in ("value", "err"):
            if abs(got[col] - want[col]) > _exp_tol(want["statistic"],
                                                    want[col]):
                bad.append(f"{want['statistic']}@{want['x']:g} {col} "
                           f"{got[col]!r} vs {want[col]!r}")
    return bad
