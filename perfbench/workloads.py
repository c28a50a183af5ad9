"""Workload definitions: slot lists, the reference input pool and op specs.

Every input the benchmark runs is a pool item. An item is named by a key
such as ``fit/k3_400/2`` (workload family, category, variant) and its data
are generated from that key alone, so the stored reference values in
``reference.json`` stay valid for any ``--seed``. A workload is a fixed list
of slots, one category per slot; the seed picks which variants of each
category fill the slots, so another seed gives other inputs with the same
mix and the same expected cost.

Nothing here imports numpy or the library at module level: the set-up probe
times those imports itself.
"""

from __future__ import annotations

import csv
import json
import os
import zlib
from dataclasses import dataclass

A_FIT = 3.0
A_SELECT = 3.0
A_SELECTION = 3.5
A_PREDICTION = 3.0
TIER1_SCHEDULE = (100, 400, 1600)
BETA_FIT = 0.6
BETA_SELECT = (0.4, 0.3, 0.2)
SATURATING = 1e5  # 1-R^2 about 1e-10 for every model with column 1
SHORT_SCHEDULE = (100, 400)


@dataclass(frozen=True)
class Category:
    """One kind of input: its generator parameters and its variant count."""

    name: str
    kind: str  # "fit", "select", "selection" or "prediction"
    params: tuple  # sorted (name, value) pairs
    variants: int

    def param(self, name: str):
        return dict(self.params)[name]


def _cat(name: str, kind: str, variants: int, **params) -> Category:
    return Category(name, kind, tuple(sorted(params.items())), variants)


# fit_block: block-hyper-g fits with a=3 on orthogonalized designs.
#   k2_*/k3_*: the common small fits, n = 40..120; *_dom scale the first
#   block by 1e4..1e6, so 1-R^2 is about 1e-8..1e-12 (the drifting regime).
#   k3_400: n=400 with a pure-noise third block; the tensor route runs.
#   qmc4/qmc5: k=4 and k=5 blocks at n=60, the scrambled-Sobol route.
FIT = [
    _cat("k2_40", "fit", 14, n=40, sizes=(1, 1), scale=1.0),
    _cat("k2_60", "fit", 13, n=60, sizes=(2, 1), scale=1.0),
    _cat("k2_80", "fit", 17, n=80, sizes=(2, 2), scale=1.0),
    _cat("k2_120", "fit", 9, n=120, sizes=(3, 2), scale=1.0),
    _cat("k2_dom60", "fit", 13, n=60, sizes=(2, 1), scale=1e4),
    _cat("k2_dom100", "fit", 17, n=100, sizes=(2, 2), scale=1e6),
    _cat("k3_50", "fit", 3, n=50, sizes=(1, 1, 1), scale=1.0),
    _cat("k3_80", "fit", 11, n=80, sizes=(2, 1, 1), scale=1.0),
    _cat("k3_400", "fit", 3, n=400, sizes=(2, 2, 2), scale=1.0,
         noise_block=True),
    _cat("qmc4", "fit", 2, n=60, sizes=(1, 1, 1, 1), scale=1.0),
    _cat("qmc5", "fit", 2, n=60, sizes=(1, 1, 1, 1, 1), scale=1.0),
]

# select_subsets: all-subsets enumeration under the hyper-g prior, a=3.
#   s<p>_<n>: ordinary data; s<p>_<n>s: near-saturated, one strong
#   predictor drives 1-R^2 below 1e-8 for every model that holds it.
SELECT = [
    _cat("s6_100", "select", 18, p=6, n=100, saturated=False),
    _cat("s6_1000", "select", 17, p=6, n=1000, saturated=False),
    _cat("s6_100s", "select", 8, p=6, n=100, saturated=True),
    _cat("s6_1000s", "select", 8, p=6, n=1000, saturated=True),
    _cat("s8_1000", "select", 6, p=8, n=1000, saturated=False),
    _cat("s8_100s", "select", 2, p=8, n=100, saturated=True),
    _cat("s8_1000s", "select", 2, p=8, n=1000, saturated=True),
    _cat("s10_100", "select", 2, p=10, n=100, saturated=False),
    _cat("s10_1000", "select", 2, p=10, n=1000, saturated=False),
]

# consistency: one replicate per call on the Tier-1 schedule, each call
# with its own experiment seed; the *_short categories use n=(100, 400)
# and serve the warm-up and the smoke mode.
EXPERIMENT = [
    _cat("sel", "selection", 9, schedule=TIER1_SCHEDULE, base_seed=1000),
    _cat("pred", "prediction", 19, schedule=TIER1_SCHEDULE, base_seed=2000),
    _cat("sel_short", "selection", 2, schedule=SHORT_SCHEDULE,
         base_seed=3000),
    _cat("pred_short", "prediction", 3, schedule=SHORT_SCHEDULE,
         base_seed=4000),
]

CATEGORIES = {c.name: c for c in FIT + SELECT + EXPERIMENT}
FAMILY = {"fit": "fit", "select": "select", "selection": "experiment",
          "prediction": "experiment"}

# slot lists: (category, slots). The mix is fixed; only variants change.
# Each category has one variant more than it has slots (the warm-up
# variant aside), so seeds differ in their data while the mix, and the
# cost of a pass, stay nearly the same: fit costs are bimodal in the data
# (an extra refinement round or not), and a freer choice moves the median.
# The counts put the median and the tail operation inside a group of
# similar operations (the k2_dom100 fits and the k3_80 fits; p=6 searches
# at n=1000 and the mid-size searches; prediction calls), not on the edge
# between two groups of different cost. The k=2 fits cost 30-80 ms each,
# spread over variants and over the machine's speed, so fit_block holds
# many of them: its median is then an order statistic of many samples.
SLOTS = {
    "fit_block": [("k2_40", 12), ("k2_dom60", 12), ("k2_60", 12),
                  ("k2_120", 8), ("k2_dom100", 16), ("k2_80", 16),
                  ("k3_50", 2), ("k3_80", 10), ("k3_400", 2), ("qmc4", 1),
                  ("qmc5", 1)],
    "select_subsets": [("s6_100", 16), ("s6_1000", 16), ("s6_100s", 7),
                       ("s6_1000s", 7), ("s8_1000", 5), ("s8_100s", 1),
                       ("s8_1000s", 1), ("s10_100", 1), ("s10_1000", 1)],
    "consistency": [("sel", 8), ("pred", 18)],
}
SMOKE_SLOTS = {
    "fit_block": [("k2_40", 2), ("k2_dom60", 1), ("k3_50", 1)],
    "select_subsets": [("s6_100", 2), ("s6_100s", 1)],
    "consistency": [("sel_short", 1), ("pred_short", 1)],
}
# the warm-up op is always variant 0 of this category; slots never use it
WARMUP = {"fit_block": "k2_40", "select_subsets": "s6_100",
          "consistency": "pred_short"}
WORKLOADS = tuple(SLOTS)


def item_key(cat: str, variant: int) -> str:
    return f"{FAMILY[CATEGORIES[cat].kind]}/{cat}/{variant}"


def parse_key(key: str) -> tuple[Category, int]:
    _, cat, variant = key.split("/")
    return CATEGORIES[cat], int(variant)


def all_keys() -> list[str]:
    return [item_key(c.name, v) for c in CATEGORIES.values()
            for v in range(c.variants)]


def warmup_key(workload: str) -> str:
    return item_key(WARMUP[workload], 0)


def choose_items(workload: str, seed: int, smoke: bool = False) -> list[str]:
    """The seed's input set: distinct variants per category, interleaved.

    Each category's slots are spread evenly over the pass, in an order that
    does not depend on the seed: the small fits then sample the machine
    over the whole pass rather than in one burst, and the same kinds of op
    follow the large integrals (whose freed memory the next op re-faults)
    for every seed.
    """
    import numpy as np

    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    placed = []
    for ci, (cat, count) in enumerate((SMOKE_SLOTS if smoke
                                       else SLOTS)[workload]):
        c = CATEGORIES[cat]
        pool = [v for v in range(c.variants)
                if not (cat == WARMUP[workload] and v == 0)]
        if count > len(pool):
            raise ValueError(f"category {cat}: {count} slots, "
                             f"{len(pool)} variants")
        for j, v in enumerate(rng.permutation(pool)[:count]):
            placed.append(((j + 0.5) / count, ci, item_key(cat, int(v))))
    return [key for _, _, key in sorted(placed)]


# -- data generation --------------------------------------------------------

def _rng(key: str):
    import numpy as np

    return np.random.default_rng([zlib.crc32(key.encode()), 7919])


def fit_data(key: str):
    """Raw (X, y, block column lists) for a fit item."""
    import numpy as np

    cat, _ = parse_key(key)
    rng = _rng(key)
    n, sizes = cat.param("n"), cat.param("sizes")
    p = sum(sizes)
    X = rng.normal(size=(n, p))
    # correlated blocks, so orthogonalization has work to do
    X[:, 1:] += 0.4 * X[:, :1]
    # fixed effect sizes: variants differ in data, not in difficulty
    beta = BETA_FIT * rng.choice([-1.0, 1.0], p)
    if dict(cat.params).get("noise_block"):
        beta[p - sizes[-1]:] = 0.0
    beta[:sizes[0]] *= cat.param("scale")
    y = 1.5 + X @ beta + rng.normal(size=n)
    return X, y, _blocks(sizes)


def select_data(key: str):
    """Raw (X, y, block column lists, x_star) for a select item."""
    import numpy as np

    cat, _ = parse_key(key)
    rng = _rng(key)
    n, p = cat.param("n"), cat.param("p")
    X = rng.normal(size=(n, p))
    X[:, 1:] += 0.3 * X[:, :1]
    beta = np.zeros(p)
    beta[:3] = BETA_SELECT * rng.choice([-1.0, 1.0], 3)
    if cat.param("saturated"):
        beta[0] = SATURATING
    y = 2.0 + X @ beta + rng.normal(size=n)
    x_star = rng.normal(size=p)
    return X, y, _blocks((3, p - 3)), x_star


def _blocks(sizes) -> list[list[str]]:
    out, start = [], 1
    for s in sizes:
        out.append([f"x{i}" for i in range(start, start + s)])
        start += s
    return out


def _write_csv(path: str, X, y) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y"] + [f"x{i}" for i in range(1, X.shape[1] + 1)])
        for yi, row in zip(y.tolist(), X.tolist()):
            w.writerow([repr(yi)] + [repr(v) for v in row])


def prepare(key: str, workdir: str) -> dict:
    """Write the item's input files under workdir and return its call spec.

    A call spec is JSON: {"cli": argv, "output": path} for `cli.main`, or
    {"experiment": function name, "kwargs": {...}} for `experiments.run_*`.
    """
    cat, variant = parse_key(key)
    if cat.kind in ("selection", "prediction"):
        fn = ("run_selection_consistency" if cat.kind == "selection"
              else "run_prediction_consistency")
        a = A_SELECTION if cat.kind == "selection" else A_PREDICTION
        return {"key": key, "experiment": fn,
                "kwargs": {"n_schedule": list(cat.param("schedule")),
                           "replicates": 1, "a": a,
                           "seed": cat.param("base_seed") + variant}}
    os.makedirs(workdir, exist_ok=True)
    data = os.path.join(workdir, "data.csv")
    cfg = {"data": data, "response": "y", "output_dir": workdir,
           "seed": 0}
    if cat.kind == "fit":
        X, y, blocks = fit_data(key)
        cfg.update(mode="fit", blocks=blocks, orthogonalize=True,
                   prior={"type": "block-hyper-g", "a": A_FIT})
        out = "fit.json"
    else:
        X, y, blocks, x_star = select_data(key)
        cfg.update(mode="select", blocks=blocks, enumeration="all-subsets",
                   prior={"type": "hyper-g", "a": A_SELECT},
                   x_star=x_star.tolist())
        out = "models.json"
    _write_csv(data, X, y)
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    return {"key": key, "cli": ["--config", cfg_path],
            "output": os.path.join(workdir, out)}


def execute(spec: dict, cli, experiments):
    """Run one op through the public entry point; returns its raw result.

    The module objects are passed in and their functions looked up at call
    time, so a tracer that patched the module attributes sees the call.
    """
    if "cli" in spec:
        return cli.main(list(spec["cli"]))
    return getattr(experiments, spec["experiment"])(**spec["kwargs"])


def collect(spec: dict, raw) -> dict:
    """The op's output as plain data, read back after timing stops."""
    if "cli" in spec:
        if raw != 0:
            return {"exit": raw}
        with open(spec["output"]) as fh:
            return {"exit": 0, "report": json.load(fh)}
    return {"rows": [dict(r) for r in raw.rows],
            "verdicts": dict(raw.verdicts)}
