"""Drifting-coefficient sequences and the limit-behavior experiment suite.

A sequence holds (X, alpha, beta_2, epsilon) fixed and scales only the
block-1 coefficients, so R_1^2 climbs toward 1 while every other block's
R_i^2 decays; the experiments sweep that path and check the documented
limits: shrinkage collapsing onto least squares, the conditional paradox
floor, information consistency, large-n selection and prediction
consistency, and the sigma^2 posterior limits.

Scale endpoints (1e8) and log-Bayes-factor floors (-10) are desk-scale
surrogates for the true limits. Noise is drawn once per sequence; replicated
experiments redraw it across replicates only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import blockprior, design, hyperg, models
from .errors import (DomainError, PreconditionViolated,
                     SimulationBudgetExceeded)

DEFAULT_SCALES = (1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
MAX_REPLICATES = 2000
_TV_GRID = 20000  # log-spaced points of the total-variation trapezoid


@dataclass(frozen=True)
class SequenceSpec:
    """Fixed-design sequence: only the block-1 coefficient norm grows."""

    base: design.CenteredDesign
    alpha: float
    beta1: np.ndarray
    beta_rest: np.ndarray
    eps: np.ndarray
    scales: tuple[float, ...]
    a: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        p1 = self.base.partition.sizes[0]
        if len(self.beta1) != p1:
            raise DomainError(f"beta1 must have length {p1}")
        if len(self.beta_rest) != self.base.p - p1:
            raise DomainError(
                f"beta_rest must have length {self.base.p - p1}")
        if len(self.eps) != self.base.n:
            raise DomainError("eps must have length n")
        sc = self.scales
        if len(sc) < 2 or any(sc[i] >= sc[i + 1] for i in range(len(sc) - 1)):
            raise DomainError("scales must be strictly increasing")
        if not design.check_block_orthogonality(self.base):
            raise PreconditionViolated(
                "sequence base design must be block orthogonal")


def standard_sequence(n: int = 50, sizes: tuple[int, ...] = (2, 1),
                      a: float = 3.0, seed: int = 0,
                      scales: tuple[float, ...] = DEFAULT_SCALES,
                      noise: float = 1.0,
                      beta1: np.ndarray | None = None,
                      beta_rest: np.ndarray | None = None) -> SequenceSpec:
    """Block-orthogonal base design with unit-norm-ish coefficients."""
    rng = np.random.default_rng(seed)
    p = sum(sizes)
    X = rng.normal(size=(n, p))
    X -= X.mean(axis=0)
    q, _ = np.linalg.qr(X)
    X = q * math.sqrt(n)  # orthonormal directions, columns stay centered
    part = design.BlockPartition.contiguous(sizes)
    base = design.CenteredDesign(y=np.zeros(n), X=X, partition=part)
    p1 = sizes[0]
    if beta1 is None:
        beta1 = 0.5 + 0.5 * rng.random(p1)
    if beta_rest is None:
        # modest fixed-block signal: large enough to matter, small enough
        # that the single-block paradox decay clears the -10 floor by 1e8
        beta_rest = 0.3 + 0.1 * rng.random(p - p1)
    eps = noise * rng.normal(size=n)
    return SequenceSpec(base=base, alpha=1.5, beta1=np.asarray(beta1, float),
                        beta_rest=np.asarray(beta_rest, float), eps=eps,
                        scales=tuple(scales), a=a, seed=seed)


def make_sequence(spec: SequenceSpec,
                  ) -> list[tuple[float, design.CenteredDesign,
                                  design.FitSummary]]:
    """One (design, fit) per scale; everything but ||beta_1|| held fixed."""
    X1 = spec.base.block(0)
    rest_cols = [c for b in spec.base.partition.blocks[1:] for c in b]
    Xr = spec.base.X[:, rest_cols]
    out = []
    for c in spec.scales:
        y_raw = (spec.alpha + X1 @ (c * spec.beta1)
                 + (Xr @ spec.beta_rest if len(rest_cols) else 0.0)
                 + spec.eps)
        y = y_raw - y_raw.mean()
        d = design.CenteredDesign(y=y, X=spec.base.X,
                                  partition=spec.base.partition,
                                  y_mean=float(y_raw.mean()),
                                  x_means=spec.base.x_means)
        out.append((c, d, design.fit_least_squares(d)))
    return out


@dataclass
class ExperimentResult:
    """Sweep rows plus pass/fail verdicts; reproducible from the seed."""

    name: str
    rows: list[dict] = field(default_factory=list)
    verdicts: dict[str, bool] = field(default_factory=dict)
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values()) and len(self.verdicts) > 0

    def add(self, x: float, statistic: str, value: float,
            err: float = 0.0) -> None:
        self.rows.append({"x": float(x), "statistic": statistic,
                          "value": float(value), "err": float(err)})

    def series(self, statistic: str) -> list[tuple[float, float]]:
        return [(r["x"], r["value"]) for r in self.rows
                if r["statistic"] == statistic]

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "statistic", "value", "err"])
            for r in self.rows:
                w.writerow([repr(r["x"]), r["statistic"], repr(r["value"]),
                            repr(r["err"])])

    def verdict_payload(self) -> dict:
        return {"experiment": self.name, "seed": self.seed,
                "verdicts": dict(sorted(self.verdicts.items())),
                "passed": self.passed}


def _m1_stats(fit: design.FitSummary) -> tuple[float, float]:
    """R^2 and 1-R^2 of the block-1-only submodel, formed stably."""
    rss = (fit.n - fit.p - 1) * fit.sigma2_hat
    q = np.asarray(fit.r2_blocks) * fit.yty
    r2_1 = float(q[0] / fit.yty)
    one_minus = float((rss + q[1:].sum()) / fit.yty)
    return r2_1, one_minus


def _kappa(fit: design.FitSummary, i: int) -> tuple[float, float]:
    """kappa_i = R_i^2 / (1 - sum_(j != i) R_j^2) and 1 - kappa_i, both
    formed stably."""
    rss = (fit.n - fit.p - 1) * fit.sigma2_hat
    q = np.asarray(fit.r2_blocks) * fit.yty
    return float(q[i] / (rss + q[i])), float(rss / (rss + q[i]))


def _sweep_posteriors(a: float, part: design.BlockPartition, seq):
    """The block posteriors of a sweep's fits, stacked into one
    `blockprior._posteriors` call."""
    fits = [fit for _, _, fit in seq]
    return blockprior._posteriors(
        a, np.tile(part.sizes, (len(fits), 1)),
        np.array([fit.n for fit in fits]),
        np.array([fit.r2_blocks for fit in fits]),
        np.array([fit.one_minus_r2 for fit in fits]))


def run_els_experiment(spec: SequenceSpec) -> ExperimentResult:
    """Shrinkage collapse onto least squares as the signal block grows.

    Records 1 - E[g/(1+g)|y] (the relative distance between the posterior
    mean and least squares) for the single-block prior, and the per-block
    shrinkage means with their analytic brackets for the block prior.
    """
    a = spec.a
    n, p = spec.base.n, spec.base.p
    if n < a + p - 1:
        raise PreconditionViolated(
            f"least-squares collapse requires n >= a+p-1 = {a + p - 1}")
    res = ExperimentResult(name="els", seed=spec.seed)
    part = spec.base.partition
    top = spec.scales[-1]
    bounds_ok, t1_ok, dist_ok = True, True, True
    seq = make_sequence(spec)
    # the full model's R^2, then each block i >= 2's kappa_i, whose k=1
    # shrinkage is the upper bracket on E[t_i | y]
    stats = np.array([[(fit.r2, fit.one_minus_r2)]
                      + [_kappa(fit, i) for i in range(1, part.k)]
                      for _, _, fit in seq]).transpose(2, 1, 0)
    sizes = np.array([[p]] + [[size] for size in part.sizes[1:]])
    _, shrink = hyperg.hyper_g_scores(a, n, sizes, *stats)
    _, t_means, _, errs, _, _ = _sweep_posteriors(a, part, seq)
    for (c, _, _), t_mean, err, s in zip(seq, t_means.tolist(),
                                         errs.tolist(), shrink.T.tolist()):
        res.add(c, "hyperg_rel_distance", 1.0 - s[0])
        if c >= 1e6 and 1.0 - s[0] >= 1e-3:
            dist_ok = False
        for i in range(part.k):
            res.add(c, f"block_t_mean_{i + 1}", t_mean[i], err)
            if i >= 1:
                res.add(c, f"block_t_upper_{i + 1}", s[i])
                lo = 2.0 / (a + part.sizes[i]) - 1e-3
                if not (lo <= t_mean[i] <= s[i] + 1e-9 and s[i] < 1.0):
                    bounds_ok = False
        if c == top and t_mean[0] < 0.999:
            t1_ok = False
    res.verdicts["hyperg_distance_small_at_1e6"] = dist_ok
    res.verdicts["block_t1_to_one"] = t1_ok
    res.verdicts["block_other_within_brackets"] = bounds_ok
    return res


def run_clp_experiment(spec: SequenceSpec) -> ExperimentResult:
    """Paradox sweep: BF(full : block-1-only) as block 1 grows.

    Single-block prior: the log BF must fall without bound. Block prior:
    the BF stays above the analytic floor (a-2)/(a+p2-2).
    """
    a = spec.a
    part = spec.base.partition
    if part.k != 2:
        raise PreconditionViolated("paradox sweep expects exactly 2 blocks")
    n, p = spec.base.n, spec.base.p
    p1, p2 = part.sizes
    if n < a + p1 - 1:
        raise PreconditionViolated(
            f"decay regime requires n >= a+p1-1 = {a + p1 - 1}")
    res = ExperimentResult(name="clp", seed=spec.seed)
    floor = blockprior.clp_lower_bound(a, p2)
    res.add(0.0, "block_bf_floor", floor)
    seq = make_sequence(spec)
    # rows: R^2 and 1-R^2 of the full model, then of the block-1-only model
    stats = np.array([(fit.r2, fit.one_minus_r2, *_m1_stats(fit))
                      for _, _, fit in seq]).T
    log_bf, _ = hyperg.hyper_g_scores(a, n, [[p], [p1]], stats[0::2],
                                      stats[1::2])
    block_bf, _, _, errs, _, _ = _sweep_posteriors(a, part, seq)
    hyper_vals, floor_ok = [], True
    for (c, _, _), lb_full, lb_m1, lb_block, err in zip(
            seq, *log_bf.tolist(), block_bf.tolist(), errs.tolist()):
        res.add(c, "hyperg_log_bf_ratio", lb_full - lb_m1)
        hyper_vals.append((c, lb_full - lb_m1))
        ratio = math.exp(lb_block - lb_m1)
        res.add(c, "block_bf_ratio", ratio, err)
        if ratio < floor - 1e-4:
            floor_ok = False
    tail = [(c, v) for c, v in hyper_vals if c >= 100.0]
    monotone = all(tail[i + 1][1] < tail[i][1] for i in range(len(tail) - 1))
    res.verdicts["hyperg_monotone_decay_past_100"] = monotone
    res.verdicts["hyperg_below_minus_10_at_top"] = hyper_vals[-1][1] < -10.0
    res.verdicts["block_ratio_above_floor"] = floor_ok
    return res


def run_info_consistency(spec: SequenceSpec, regime: str = "divergent",
                         fixed_g: float | None = None) -> ExperimentResult:
    """BF(full : null) along the sweep.

    divergent: n above the threshold, the log BF must keep climbing while
    the fixed-g prior plateaus at ((n-p-1)/2) log(1+g). bounded: n below
    a+p-1, the log BF converges to the finite closed-form limit.
    """
    a = spec.a
    n, p = spec.base.n, spec.base.p
    if regime == "divergent":
        if n < a + p - 1:
            raise PreconditionViolated(
                "divergent regime needs n >= a+p-1")
    elif regime == "bounded":
        if n >= a + p - 1:
            raise PreconditionViolated(
                "bounded regime needs n < a+p-1")
    else:
        raise PreconditionViolated(f"unknown regime {regime!r}")
    g = float(fixed_g) if fixed_g is not None else float(max(n, 10))
    res = ExperimentResult(name="info", seed=spec.seed)
    seq = make_sequence(spec)
    vals = hyperg.hyper_g_scores(
        a, n, p, [fit.r2 for _, _, fit in seq],
        [fit.one_minus_r2 for _, _, fit in seq])[0].tolist()
    for (c, d, fit), lb in zip(seq, vals):
        res.add(c, "hyperg_log_bf", lb)
        lf = hyperg.log_bf_fixed_g_stats(g, n, p, fit.r2, fit.one_minus_r2)
        res.add(c, "fixed_g_log_bf", lf)
    plateau = 0.5 * (n - p - 1) * math.log1p(g)
    res.add(0.0, "fixed_g_plateau", plateau)
    res.verdicts["fixed_g_plateau_reached"] = abs(lf - plateau) < 0.01
    if regime == "divergent":
        mid = vals[len(vals) // 2]
        res.verdicts["hyperg_diverges"] = vals[-1] - mid > 5.0
    else:
        limit = hyperg.log_bf_hyper_g_stats(a, n, p, 1.0, 0.0)
        res.add(0.0, "hyperg_bounded_limit", limit)
        res.verdicts["hyperg_bounded"] = (math.isfinite(vals[-1])
                                          and abs(vals[-1] - limit) < 1e-3)
    return res


# -- replicated large-n experiments -----------------------------------------

SELECTION_POOL = (4, 3, 2)
# candidate models over the 9-column pool, by column; each keeps the pool's
# block grouping, so its block sizes follow from SELECTION_POOL
SELECTION_CASES = {
    "truth": (0, 1, 4, 5),
    "case1_missing_block": (0, 1),
    "case2a_extra_in_blocks": (0, 1, 2, 3, 4, 5, 6),
    "case2b_extra_and_new": (0, 1, 2, 3, 4, 5, 7, 8),
    "case2c_new_block_only": (0, 1, 4, 5, 7, 8),
}
SELECTION_BETA = np.array(
    [1.0, -1.0, 0.0, 0.0, 0.8, 0.8, 0.0, 0.0, 0.0])


def _check_budget(n_schedule, replicates) -> None:
    if replicates > MAX_REPLICATES:
        raise SimulationBudgetExceeded(
            f"replicates {replicates} > {MAX_REPLICATES}")
    if replicates < 1:
        raise PreconditionViolated(
            f"need at least one replicate, got {replicates}")
    if len(n_schedule) < 2:
        raise PreconditionViolated("need at least two sample sizes")


def run_selection_consistency(n_schedule=(100, 400, 1600),
                              replicates: int = 200, seed: int = 0,
                              a: float = 3.5) -> ExperimentResult:
    """Pairwise BF against the true block model across growing n.

    Case 1 drops a true block (exponential decay); 2A keeps the true blocks
    but pads them (polynomial decay, slope (p_T - p_gamma)/2 in log m); 2B
    pads a true block and adds a new one; 2C only adds a new block with the
    true blocks untouched, where the BF stays bounded.
    """
    _check_budget(n_schedule, replicates)
    res = ExperimentResult(name="selection", seed=seed)
    pool = design.BlockPartition.contiguous(SELECTION_POOL)
    gammas = np.array([[int(c in cols) for c in range(pool.p)]
                       for cols in SELECTION_CASES.values()], np.uint8)

    def draws():
        for n in n_schedule:
            for rep in range(replicates):
                rng = np.random.default_rng([seed, rep, n])
                X = rng.normal(size=(n, sum(SELECTION_POOL)))
                y = 2.0 + X @ SELECTION_BETA + rng.normal(size=n)
                yield design.center_design(X, y, pool)
    # every replicate of every n in one call; medians over replicates only
    # need ~1e-3, and 1e-4 keeps the integrals cheap
    scores = models.block_subsets_scores(draws(), gammas, pool, a, rtol=1e-4)
    # each case's log BF against the truth's, as (n, replicate, case)
    log_bfs = np.array([lb for lb, _, _ in scores]).reshape(
        len(n_schedule), replicates, len(SELECTION_CASES))
    diffs = log_bfs[..., 1:] - log_bfs[..., :1]
    medians = np.median(diffs, axis=1)
    q1, q3 = np.percentile(diffs, [25, 75], axis=1)
    iqrs = q3 - q1
    names = list(SELECTION_CASES)[1:]
    for n, row_med, row_iqr in zip(n_schedule, medians, iqrs):
        for name, med, iqr in zip(names, row_med, row_iqr):
            res.add(n, f"{name}_median_log_bf", med, iqr)
    for name in ("case1_missing_block", "case2a_extra_in_blocks",
                 "case2b_extra_and_new"):
        res.verdicts[f"{name}_below_-5"] = bool(
            medians[-1, names.index(name)] < -5.0)
    j2c = names.index("case2c_new_block_only")
    drift = abs(medians[-1, j2c] - medians[-2, j2c])
    res.verdicts["case2c_bounded_drift"] = bool(drift <= 2.0)
    res.verdicts["case2c_iqr_in_band"] = bool(iqrs[-1, j2c] <= 8.0)
    return res


PREDICTION_POOL = (2, 2, 2)
PREDICTION_BETA = np.array([1.0, -0.8, 0.6, 0.9, 0.0, 0.0])
PREDICTION_ALPHA = 2.0


def run_prediction_consistency(n_schedule=(100, 400, 1600),
                               replicates: int = 200, seed: int = 0,
                               a: float = 3.0, noise: float = 1.0,
                               ) -> ExperimentResult:
    """Model-averaged prediction error at a fixed point across growing n."""
    _check_budget(n_schedule, replicates)
    res = ExperimentResult(name="prediction", seed=seed)
    rng0 = np.random.default_rng(seed)
    x_star = rng0.normal(size=len(PREDICTION_BETA))
    truth_val = PREDICTION_ALPHA + float(x_star @ PREDICTION_BETA)
    partition = design.BlockPartition.contiguous(PREDICTION_POOL)
    gammas = models.enumerate_models(partition, "block-subsets")
    centres = []  # each design's (x_means, y_mean), for its prediction

    def draws():
        for n in n_schedule:
            for rep in range(replicates):
                rng = np.random.default_rng([seed, rep, n, 7])
                X = rng.normal(size=(n, len(PREDICTION_BETA)))
                y = (PREDICTION_ALPHA + X @ PREDICTION_BETA
                     + noise * rng.normal(size=n))
                d = design.center_design(X, y, partition)
                centres.append((d.x_means, d.y_mean))
                yield d
    # every replicate of every n in one call
    scores = models.block_subsets_scores(draws(), gammas, partition, a,
                                         rtol=1e-4)
    errs = np.empty(len(scores))
    for j, (log_bfs, means, _) in enumerate(scores):
        posterior = models.posterior_model_probs(gammas, log_bfs)
        pred = models.bma_predict(x_star, posterior, means, *centres[j])
        errs[j] = abs(pred - truth_val)
    # (n, replicate)
    errs = errs.reshape(len(n_schedule), replicates)
    meds = np.median(errs, axis=1).tolist()
    q1, q3 = np.percentile(errs, [25, 75], axis=1)
    for n, med, iqr in zip(n_schedule, meds, q3 - q1):
        res.add(n, "median_abs_error", med, iqr)
    halving = all(meds[i] / max(meds[i + 1], 1e-300) >= 1.0
                  and meds[i] / max(meds[i + 1], 1e-300) <= 4.0
                  for i in range(len(meds) - 1))
    res.verdicts["error_halves_per_4x_n"] = halving
    res.verdicts["absolute_scale"] = meds[-1] < 10.0 * noise / math.sqrt(
        n_schedule[-1])
    return res


def _tv_distance(logf, logg, x_lo: float, x_hi: float) -> float:
    """0.5 int |f - g| over a log-spaced grid (both densities normalized)."""
    x = np.exp(np.linspace(math.log(x_lo), math.log(x_hi), _TV_GRID))
    f = np.exp(logf(x))
    g = np.exp(logg(x))
    return float(0.5 * np.trapezoid(np.abs(f - g), x))


def sigma2_limit_check(spec: SequenceSpec) -> ExperimentResult:
    """At the top scale, the exact sigma^2 posteriors must sit on their
    documented limit densities (total variation < 0.01) and the limit mean
    must respect its closed-form bound."""
    a = spec.a
    part = spec.base.partition
    n, p = spec.base.n, spec.base.p
    if n <= part.k * (a - 2.0) + p + 1.0:
        raise PreconditionViolated(
            "sigma^2 limits require n > k(a-2) + p + 1")
    res = ExperimentResult(name="sigma2", seed=spec.seed)
    seq = make_sequence(spec)
    c, d, fit = seq[-1]
    # single-block prior: exact posterior vs the inverse-gamma limit
    single = design.CenteredDesign(y=d.y, X=d.X,
                                   partition=design.BlockPartition.single(p),
                                   y_mean=d.y_mean, x_means=d.x_means)
    fit1 = design.fit_least_squares(single)
    prior1 = blockprior.BlockHyperGPrior(a, design.BlockPartition.single(p))
    exact1 = blockprior.sigma2_density_exact_block(prior1, fit1)
    ig = hyperg.sigma2_limit_hyper_g(hyperg.HyperGPrior(a), n, p,
                                     fit1.sigma2_hat)
    s2 = fit.sigma2_hat
    tv1 = _tv_distance(exact1.logpdf, ig.logpdf, s2 / 50.0, s2 * 80.0)
    res.add(c, "tv_single_block_vs_ig_limit", tv1)
    # block prior: exact posterior vs the saturated-first-block limit
    prior = blockprior.BlockHyperGPrior(a, part)
    exact = blockprior.sigma2_density_exact_block(prior, fit)
    limit = blockprior.sigma2_density_limit_block(prior, fit)
    tv2 = _tv_distance(exact.logpdf, limit.logpdf, s2 / 50.0, s2 * 80.0)
    res.add(c, "tv_block_vs_limit", tv2)
    mean = limit.mean()
    bound = limit.mean_bound(a, part.sizes[0], n)
    res.add(c, "limit_mean", mean)
    res.add(c, "limit_mean_bound", bound)
    res.verdicts["tv_single_below_0.01"] = tv1 < 0.01
    res.verdicts["tv_block_below_0.01"] = tv2 < 0.01
    res.verdicts["mean_bound_holds"] = mean <= bound + 1e-9
    return res
