"""Generate reference.json: the stored output of every pool item.

    python3 perfbench/make_reference.py

Run once, from the root of a source checkout, at the commit whose outputs
are the reference; every item is regenerated. Each item runs through the
same public entry point the benchmark uses, and where an independent route
exists its agreement is recorded next to the value:

- fits: `integrate.block_integrals_gamma1d`, the 1-D gamma-mixture
  reduction, for the Bayes factor and every shrinkage mean;
- all-subsets search: mpmath `hyp2f1` at 40 digits for a sample of models,
  with R^2 from numpy's SVD least squares;
- experiments: no second route; the values are this commit's.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from run import git_sha, source_digest  # noqa: E402
from blockhyperg import (cli, design, experiments, integrate,  # noqa: E402
                         blockprior)

MP_DIGITS = 40
MP_SAMPLE = 4


def _round(values: list[float]) -> list[float]:
    # 12 significant digits: far inside every tolerance, half the size
    return [float(f"{v:.12g}") for v in values]


def gamma1d_check(key: str, spec: dict, ref: dict) -> dict:
    """Bayes factor and shrinkage through the 1-D gamma-mixture route."""
    with open(spec["cli"][1]) as fh:
        cfg = json.load(fh)
    X_raw, y_raw, part, _ = design.load_csv_design(
        cfg["data"], cfg["response"], cfg["blocks"])
    d, _ = design.block_orthogonalize(
        design.center_design(X_raw, y_raw, part))
    fit = design.fit_least_squares(d)
    a = cfg["prior"]["a"]
    prior = blockprior.BlockHyperGPrior(a, d.partition)
    res = integrate.block_integrals_gamma1d(
        prior.b_powers(), np.clip(fit.r2_blocks, 0.0, 1.0),
        max(fit.one_minus_r2, 0.0), 0.5 * (fit.n - 1), rtol=1e-10)
    log_bf = prior.k * math.log(0.5 * (a - 2.0)) + res.log_i0
    return {"route": "gamma1d",
            "log_bf_abs_diff": abs(log_bf - float(ref["log_bf_null"])),
            "shrinkage_max_abs_diff": float(np.max(np.abs(
                res.t_mean - np.asarray(ref["shrinkage"]))))}


def mpmath_check(key: str, ref: dict) -> dict:
    """Closed-form log BF and shrinkage at 40 digits for sampled models."""
    import mpmath

    mpmath.mp.dps = MP_DIGITS
    X, y, _, _ = workloads.select_data(key)
    Xc, yc = X - X.mean(axis=0), y - y.mean()
    n, p = Xc.shape
    a = workloads.A_SELECT
    rng = np.random.default_rng(len(key))
    picks = {2 ** p - 1, 2 ** (p - 1)}  # full model; first column alone
    picks |= {int(i) for i in rng.integers(1, 2 ** p, MP_SAMPLE)}
    out = []
    for idx in sorted(picks):
        cols = [j for j in range(p) if (idx >> (p - 1 - j)) & 1]
        b = check.submodel_ls(Xc, yc, cols)
        resid = yc - Xc[:, cols] @ b
        omr2 = mpmath.mpf(float(resid @ resid)) / mpmath.mpf(float(yc @ yc))
        z = 1 - omr2
        q = len(cols)
        m = mpmath.mpf(n - 1) / 2
        c = mpmath.mpf(a + q) / 2
        f1 = mpmath.hyp2f1(m, 1, c, z)
        log_bf = (mpmath.log(a - 2) - mpmath.log(q + a - 2)
                  + mpmath.log(f1))
        shrink = 2 / mpmath.mpf(q + a) * mpmath.hyp2f1(m, 2, c + 1, z) / f1
        out.append({"model": idx,
                    "log_bf_abs_diff": abs(float(log_bf) - ref["log_bf"][idx]),
                    "shrinkage_abs_diff": abs(float(shrink)
                                              - ref["shrinkage"][idx])})
    return {"route": "mpmath.hyp2f1", "models": out}


def make(key: str, workdir: Path) -> dict:
    spec = workloads.prepare(key, str(workdir))
    raw = workloads.execute(spec, cli, experiments)
    ref = check.summarize(key, workloads.collect(spec, raw))
    family = key.split("/")[0]
    if family == "fit":
        ref["route"] = ref["method"]
        ref["crosscheck"] = gamma1d_check(key, spec, ref)
    elif family == "select":
        ref["log_bf"] = _round(ref["log_bf"])
        ref["shrinkage"] = _round(ref["shrinkage"])
        ref["route"] = "closed-form 2F1 (series, or Euler quadrature near z=1)"
        ref["crosscheck"] = mpmath_check(key, ref)
    else:
        ref["route"] = "experiment harness at this commit, rtol 1e-4"
    return ref


def main() -> int:
    doc = {"git_sha": git_sha(), "source_digest": source_digest(),
           "generated_by": "perfbench/make_reference.py", "items": {}}
    workdir = HERE / "_out" / f"ref-{os.getpid()}"
    try:
        for key in workloads.all_keys():
            t0 = time.perf_counter()
            doc["items"][key] = make(key, workdir / key.replace("/", "_"))
            print(f"{key}: {time.perf_counter() - t0:.2f}s "
                  f"{json.dumps(doc['items'][key].get('crosscheck'))}",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(doc, sort_keys=True)
                                         + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
