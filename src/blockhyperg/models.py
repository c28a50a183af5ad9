"""Model enumeration, posterior model probabilities, and BMA prediction.

A set of models is the rows of one (M, p) uint8 inclusion matrix, from
`enumerate_models` through the scores and `ModelPosterior` to the report;
no search builds an object per model. A search scores all of its models
from the triangle of [X | y] that a fit also reads (`design._xy_triangle`,
`design._subset_triangles`): all-subsets models with the single-block
hyper-g closed forms, block-subsets models with the block prior.
`ModelSpec` is the one-model view: `model_inference` fits one model on its
own, from its n rows, and is the per-model reference the tests hold both
searches to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from . import blockprior, design, hyperg
from ._quadlog import logsumexp
from .errors import (BudgetExceeded, DimensionMismatch, DomainError,
                     EmptyModelList)

# the largest p whose CLI search, JSON included, ends within 60 s on a
# 2-vCPU VM (README, "Command line")
ALL_SUBSETS_MAX_P = 18
_BATCH = 4096  # models factored per batched QR in an all-subsets search
_SCORE_CHUNK = 256  # models per hyper-g or block-posterior scoring call


@dataclass(frozen=True)
class ModelSpec:
    """One model: its inclusion vector over the p predictors of a parent
    partition.

    The induced partition renumbers the included columns 0..p_gamma-1 while
    keeping the parent block grouping; empty blocks are dropped. It is built
    and validated when first read. The empty model is the null model, with
    no induced partition.
    """

    gamma: tuple[int, ...]
    partition: design.BlockPartition

    @staticmethod
    def from_gamma(gamma, partition: design.BlockPartition) -> "ModelSpec":
        gamma = tuple(int(bool(g)) for g in gamma)
        if len(gamma) != partition.p:
            raise DimensionMismatch(
                f"gamma length {len(gamma)} != p {partition.p}")
        return ModelSpec(gamma=gamma, partition=partition)

    @functools.cached_property
    def induced_partition(self) -> design.BlockPartition | None:
        newpos = {col: j for j, col in enumerate(self.included)}
        if not newpos:
            return None
        blocks = []
        for b in self.partition.blocks:
            keep = [newpos[c] for c in b if c in newpos]
            if keep:
                blocks.append(tuple(keep))
        return design.BlockPartition(blocks)

    @property
    def is_null(self) -> bool:
        return not any(self.gamma)

    @functools.cached_property
    def included(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.gamma) if g)


@dataclass(frozen=True)
class ModelPosterior:
    """Posterior over a set of models: row i of the (M, p) uint8 inclusion
    matrix `gammas` is model i, and its log BF against the null, prior and
    posterior probabilities are entry i of the arrays."""

    gammas: np.ndarray
    log_bf_null: np.ndarray
    prior_prob: np.ndarray
    post_prob: np.ndarray

    def top_model(self) -> np.ndarray:
        """The inclusion vector of the most probable model."""
        return self.gammas[int(np.argmax(self.post_prob))]


def enumerate_models(partition: design.BlockPartition,
                     mode: str) -> np.ndarray:
    """All 2^p single-predictor subsets, or 2^k whole-block subsets, as the
    rows of an (M, p) 0/1 uint8 matrix. Row i is i in binary over the
    predictors or the blocks, most significant bit first, which is
    `itertools.product((0, 1), repeat=...)` order."""
    if mode not in ("all-subsets", "block-subsets"):
        raise DomainError(f"unknown enumeration mode {mode!r}")
    if mode == "all-subsets" and partition.p > ALL_SUBSETS_MAX_P:
        raise BudgetExceeded(f"all-subsets enumeration limited to p <= "
                             f"{ALL_SUBSETS_MAX_P}, got p={partition.p}")
    k = partition.p if mode == "all-subsets" else partition.k
    bits = ((np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
            ).astype(np.uint8)
    if mode == "all-subsets":
        return bits
    # each block's bit, repeated over its columns
    order = np.argsort(np.concatenate(partition.blocks))
    return np.repeat(bits, partition.sizes, axis=1)[:, order]


def posterior_model_probs(gammas: np.ndarray,
                          log_bfs: np.ndarray,
                          prior: str | np.ndarray = "uniform",
                          ) -> ModelPosterior:
    """Normalize prior x BF in log-sum-exp arithmetic, over the models that
    are the rows of the inclusion matrix `gammas`.

    +inf log BFs are honored as sentinels: all mass goes to the sentinel
    holders of positive prior, split according to the prior. A prior with
    a non-finite or negative entry, or no mass, raises DomainError, as does
    a log BF of -inf on every model of positive prior.
    """
    gammas = np.asarray(gammas, dtype=np.uint8)
    if len(gammas) == 0:
        raise EmptyModelList("no models to normalize over")
    log_bfs = np.asarray(log_bfs, dtype=float)
    if len(log_bfs) != len(gammas):
        raise DimensionMismatch("log_bfs length != number of models")
    if isinstance(prior, str):
        if prior != "uniform":
            raise DomainError(f"unknown model prior {prior!r}")
        prior_prob = np.full(len(gammas), 1.0 / len(gammas))
    else:
        prior_prob = np.asarray(prior, dtype=float)
        total = prior_prob.sum()
        if (len(prior_prob) != len(gammas) or not np.all(prior_prob >= 0)
                or not 0.0 < total < math.inf):
            raise DomainError("invalid model prior vector")
        prior_prob = prior_prob / total
    if np.any(np.isnan(log_bfs)):
        raise DomainError("NaN log Bayes factor")
    held = prior_prob > 0
    inf_mask = np.isinf(log_bfs) & (log_bfs > 0) & held
    if np.any(inf_mask):
        post = np.where(inf_mask, prior_prob, 0.0)
        post /= post.sum()
    else:
        logw = np.full_like(prior_prob, -np.inf)
        np.log(prior_prob, where=held, out=logw)
        np.add(logw, log_bfs, where=held, out=logw)
        log_total = logsumexp(logw)
        if log_total == -np.inf:
            raise DomainError("every model with prior mass has log BF -inf")
        post = np.exp(logw - log_total)
        post = post / post.sum()
    return ModelPosterior(gammas=gammas, log_bf_null=log_bfs,
                          prior_prob=prior_prob, post_prob=post)


def model_inference(d: design.CenteredDesign, spec: ModelSpec,
                    mode: str, a: float = 3.0, *, rtol: float = 1e-7,
                    ) -> tuple[float, np.ndarray, str]:
    """log BF vs null, full-length posterior coefficient mean, and the
    method label of the evidence computation, for one model fitted on its
    own n rows.

    all-subsets scores the model with the single-block prior, from its own
    least-squares fit; block-subsets uses the block prior on the induced
    partition (orthogonalizing the slice if needed and mapping the shrunk
    coefficients back through the triangular transform). Searches score
    models from one factorization instead (`_all_subsets_scores`,
    `block_subsets_scores`); this is the per-model reference the tests
    hold both to.
    """
    p = d.p
    if spec.is_null:
        return 0.0, np.zeros(p), "closed-form"
    cols = list(spec.included)
    if mode == "all-subsets":
        part = design.BlockPartition.single(len(cols))
    elif mode == "block-subsets":
        part = spec.induced_partition
    else:
        raise DomainError(f"unknown enumeration mode {mode!r}")
    ds = design.CenteredDesign(y=d.y, X=d.X[:, cols], partition=part,
                               y_mean=d.y_mean, x_means=d.x_means[cols])
    if mode == "all-subsets":
        fit = design.fit_least_squares(ds)
        log_bf, shrink, band, _, _ = hyperg._routed_scores(
            a, fit.n, fit.p, fit.r2, fit.one_minus_r2)
        beta = float(shrink) * fit.beta_hat_ls
        method = "k1-integral" if band else "closed-form"
    else:
        T = None
        if not design.check_block_orthogonality(ds):
            ds, T = design.block_orthogonalize(ds)
        fit = design.fit_least_squares(ds)
        prior = blockprior.BlockHyperGPrior(a, part)
        post = blockprior.bf_block_hyper_g(prior, fit, rtol=rtol)
        log_bf = post.log_bf_null
        kappa = blockprior.scale_blocks(fit.beta_hat_ls, part, post.t_mean)
        beta = kappa if T is None else np.linalg.solve(T, kappa)
        method = post.method
    out = np.zeros(p)
    out[cols] = beta
    return float(log_bf), out, method


def evaluate_model_space(d: design.CenteredDesign, mode: str,
                         a: float = 3.0, *, rtol: float = 1e-7,
                         ) -> tuple[ModelPosterior, np.ndarray, list[str]]:
    """Score every enumerated model; returns the posterior, a matrix of
    full-length posterior coefficient means (one row per model), and the
    per-model method labels, under the uniform model prior.

    Both modes score their models together from one factorization of
    [X | y] (`_all_subsets_scores`, `block_subsets_scores`), with no
    per-model pass over the n rows; `model_inference` is the per-model
    reference they agree with.
    """
    gammas = enumerate_models(d.partition, mode)
    if mode == "all-subsets":
        log_bfs, means, methods = _all_subsets_scores(d, gammas, a)
    else:
        (log_bfs, means, methods), = block_subsets_scores(
            [d], gammas, d.partition, a, rtol=rtol)
    return posterior_model_probs(gammas, log_bfs), means, methods


def _all_subsets_scores(d: design.CenteredDesign, gammas: np.ndarray,
                        a: float) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """log BFs, posterior coefficient means and method labels of
    single-block hyper-g models, one per row of the inclusion matrix
    `gammas`, all from one QR factorization of [X | y]
    (`design._subset_triangles`). The models of the band n <= p+a+1 near
    R^2 = 1 say "k1-integral", the rest "closed-form".

    Models of equal size are factored together in batches of _BATCH. The
    hyper-g scores then take _SCORE_CHUNK models of any sizes per call,
    which bounds the series' (models x terms) work arrays.
    """
    n, p = d.n, d.p
    R = design._xy_triangle(d)
    design._rank_check_all(R)
    gammas = np.asarray(gammas, dtype=bool)
    sizes = gammas.sum(axis=1)
    r2 = np.zeros(len(gammas))
    omr2 = np.ones(len(gammas))
    means = np.zeros((len(gammas), p))  # least squares until shrunk below
    for s in range(1, p + 1):
        group = np.flatnonzero(sizes == s)
        for start in range(0, len(group), _BATCH):
            idx = group[start:start + _BATCH]
            cols = np.nonzero(gammas[idx])[1].reshape(len(idx), s)
            tri, r2[idx], omr2[idx] = design._subset_triangles(R, cols)
            # LU of a triangle pivots nowhere: this is back-substitution
            means[idx[:, None], cols] = np.linalg.solve(
                tri[:, :s, :s], tri[:, :s, s, None])[..., 0]
    log_bfs = np.zeros(len(gammas))
    band = np.zeros(len(gammas), dtype=bool)
    scored = np.flatnonzero(sizes)
    for start in range(0, len(scored), _SCORE_CHUNK):
        idx = scored[start:start + _SCORE_CHUNK]
        log_bfs[idx], shrink, band[idx], _, _ = hyperg._routed_scores(
            a, n, sizes[idx], r2[idx], omr2[idx])
        means[idx] *= shrink[:, None]
    methods = np.where(band, "k1-integral", "closed-form").tolist()
    return log_bfs, means, methods


def block_subsets_scores(designs, gammas: np.ndarray,
                         partition: design.BlockPartition, a: float = 3.0,
                         *, rtol: float = 1e-7,
                         ) -> list[tuple[np.ndarray, np.ndarray, list[str]]]:
    """log BFs, full-length posterior coefficient means and method labels
    of block hyper-g models, one per row of the inclusion matrix `gammas`
    over the blocks of `partition`, each on its induced partition; one
    triple per design of `designs`: designs of any n that share p and the
    partition, read once in order.

    Take model S's columns in block order. Its triangle
    (`design._subset_triangles`) gives R_S and u = Q_S^T y.
    `design.block_orthogonalize` residualizes each block on the blocks
    before it, which leaves Q_S[:, block i] R_ii: so the residualized block
    has the singular values of R_ii (its rank check), block i's
    orthogonalized R^2 is |u_i|^2 / y'y, its LS coefficients are
    kappa_i = R_ii^-1 u_i, and the posterior mean is beta = R_S^-1 (t * u)
    with t_i repeated over block i. Nothing per model depends on n.

    Each design is factored once, by one QR of [X | y]; only its triangle,
    y'y and means are kept. The rest is stacked over designs and models:
    one batched QR per block layout (a model's block sizes, the nonzero
    entries of its row of the (M, k) block-count matrix) for the models'
    triangles, one SVD per block size for the rank checks, and solves over
    the models of one layout.
    The block posteriors take arrays: every _SCORE_CHUNK models of all the
    designs are rows of one `blockprior._posteriors` call (block sizes,
    n, block R^2 and 1-R^2), whose integrals share their integrand calls;
    each integral keeps its own bracket, panels and convergence, so a
    model scores as it does alone. Each model's shrinkage means go back
    to its layout's rows by slicing; no model object, fit summary, prior or
    partition is built per model. A model whose checks fail raises for the call, as
    the first check a design fails would raise for it alone.

    `model_inference` agrees to rounding, except on a design that passes
    `design.check_block_orthogonality` without being exactly orthogonal: it
    then skips orthogonalization and takes raw block projections, which
    differ from these by up to about ORTHO_TOL (1e-8) relative.
    """
    gammas = np.asarray(gammas, dtype=bool)
    if gammas.shape[1:] != (partition.p,):
        raise DimensionMismatch(f"gammas {gammas.shape} for p={partition.p}")
    tris, yty, ns = [], [], []
    for d in designs:
        tris.append(design._xy_triangle(d))
        yty.append(float(d.y @ d.y))
        ns.append(d.n)
    R = np.stack(tris)
    n_designs, p = len(tris), R.shape[-1] - 1
    # with its columns in block order, a row of the inclusion matrix lists
    # the model's columns of X in block order, and its sums over the parent
    # blocks are its blocks' sizes; models that share these share every
    # slice below
    perm = np.concatenate(partition.blocks)
    ordered = gammas[:, perm]
    counts = np.add.reduceat(ordered, np.cumsum((0,) + partition.sizes[:-1]),
                             axis=1, dtype=int)
    layouts: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(counts.tolist()):
        sizes = tuple(c for c in row if c)
        if sizes:
            layouts.setdefault(sizes, []).append(i)
    # per layout: its models and their triangles, (designs, models, ...),
    # and one posterior row per (design, model): the block sizes and R^2,
    # padded to the most blocks with size 0 and R^2 0; per block size: the
    # residualized blocks, one stack per layout block
    n = np.array(ns)
    yty_col = np.array(yty)[:, None, None]
    width = max(map(len, layouts), default=0)
    groups, rows = [], []
    blocks: dict[int, list] = {}
    for sizes, idx in layouts.items():
        idx = np.array(idx)
        s = sum(sizes)
        cols = perm[np.nonzero(ordered[idx])[1].reshape(len(idx), s)]
        tri, _, omr2 = design._subset_triangles(R, cols)
        groups.append((sizes, idx, cols, tri))
        edges = np.cumsum((0,) + sizes)
        u = tri[..., :s, s]
        # y'y = 0 leaves u = 0, so its block R^2s are 0
        r2_blocks = (np.add.reduceat(u * u, edges[:-1], axis=-1)
                     / np.where(yty_col > 0, yty_col, 1.0))
        rho = np.zeros((n_designs * len(idx), width))
        rho[:, :len(sizes)] = r2_blocks.reshape(-1, len(sizes))
        rows.append((np.broadcast_to(sizes + (0,) * (width - len(sizes)),
                                     rho.shape),
                     np.repeat(n, len(idx)), rho, omr2.ravel()))
        for b, (e0, e1) in enumerate(zip(edges[:-1], edges[1:])):
            blocks.setdefault(e1 - e0, []).append(
                (tri[..., e0:e1, e0:e1], [(s, i, b) for i in idx]))
    # the residualized blocks' rank checks: the block named is the first
    # design's at fault, and in it the first a one-model-at-a-time check
    # meets, keyed (size, model, block)
    faults = []
    for parts in blocks.values():
        stack = np.concatenate([blk for blk, _ in parts], axis=1)
        keys = [key for _, part_keys in parts for key in part_keys]
        bad = design._rank_faults(
            stack.reshape((-1,) + stack.shape[2:])).reshape(stack.shape[:2])
        faults += [((dd,) + keys[j], stack[dd, j])
                   for dd, j in zip(*np.nonzero(bad))]
    if faults:
        (*_, b), block = min(faults, key=lambda f: f[0])
        design.rank_check(block, f"residualized block {b + 1}")
    # this one catches an ill-conditioned pair split across two blocks
    design._rank_check_all(R)
    log_bfs = np.zeros((n_designs, len(gammas)))
    means = np.zeros((n_designs, len(gammas), p))
    methods = np.full((n_designs, len(gammas)), "closed-form")
    if rows:
        # sizes, n, R^2 and 1-R^2, _SCORE_CHUNK rows per call
        stacked = [np.concatenate(v) for v in zip(*rows)]
        log_bf, t_all, _, _, _, method = map(np.concatenate, zip(*(
            blockprior._posteriors(
                a, *(v[c:c + _SCORE_CHUNK] for v in stacked), rtol=rtol)
            for c in range(0, len(stacked[1]), _SCORE_CHUNK))))
    stop = 0
    for sizes, idx, cols, tri in groups:
        s, start, stop = sum(sizes), stop, stop + n_designs * len(idx)
        log_bfs[:, idx] = log_bf[start:stop].reshape(n_designs, len(idx))
        methods[:, idx] = method[start:stop].reshape(n_designs, len(idx))
        t = np.repeat(t_all[start:stop, :len(sizes)].reshape(
            n_designs, len(idx), len(sizes)), sizes, axis=-1)
        means[:, idx[:, None], cols] = np.linalg.solve(
            tri[..., :s, :s], (t * tri[..., :s, s])[..., None])[..., 0]
    return [(log_bfs[dd], means[dd], methods[dd].tolist())
            for dd in range(n_designs)]


def bma_predict(x_star: np.ndarray, posterior: ModelPosterior,
                post_means: np.ndarray, x_means: np.ndarray,
                alpha_hat: float) -> float:
    """alpha_hat + sum_gamma pi(gamma | y) (x* - xbar)^T E[beta | y, gamma]."""
    x_star = np.asarray(x_star, dtype=float)
    post_means = np.atleast_2d(np.asarray(post_means, dtype=float))
    if x_star.shape != (post_means.shape[1],):
        raise DimensionMismatch(
            f"x_star has shape {x_star.shape}, expected "
            f"({post_means.shape[1]},)")
    if post_means.shape[0] != len(posterior.gammas):
        raise DimensionMismatch("one coefficient row per model required")
    xc = x_star - np.asarray(x_means, dtype=float)
    return float(alpha_hat + posterior.post_prob @ (post_means @ xc))
