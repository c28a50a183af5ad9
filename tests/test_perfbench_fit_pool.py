"""Every fit item of the benchmark pool, run through the CLI, must agree
with perfbench/reference.json by perfbench/check.py's own comparison: log
BF, shrinkage, posterior mean, R^2, sigma2_hat, and the sigma^2 posterior
mean and whether it is reported. This is the benchmark's correctness gate
for `fit_block`, run here so a library change that breaks it fails the
suite. The test only reads perfbench/; its files are written under
tmp_path.
"""

import importlib
import json
from pathlib import Path

from blockhyperg import cli, experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_fit_pool_matches_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # check.py imports workloads
    workloads = importlib.import_module("workloads")
    check = importlib.import_module("check")
    ref = json.loads((PERFBENCH / "reference.json").read_text())["items"]
    keys = [k for k in workloads.all_keys() if k.startswith("fit/")]
    assert len(keys) == 104
    bad = {}
    for key in keys:
        spec = workloads.prepare(key, str(tmp_path / key.replace("/", "_")))
        out = workloads.collect(spec, workloads.execute(spec, cli,
                                                        experiments))
        errs = check.compare(key, out, ref[key])
        if errs:
            bad[key] = errs
    assert not bad
