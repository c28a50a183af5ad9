"""Model enumeration, posterior model probabilities, and BMA prediction.

A search scores all of its models from the triangle of [X | y] that a fit
also reads (`design._xy_triangle`, `design._subset_triangles`): all-subsets
models with the single-block hyper-g closed forms, block-subsets models
with the block prior. `model_inference` fits one model on its own,
from its n rows; it is the per-model reference the tests hold both searches
to.
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
    """Inclusion vector over the p predictors of a parent partition.

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

    @property
    def p_gamma(self) -> int:
        return sum(self.gamma)

    @property
    def model_id(self) -> str:
        return "".join(map(str, self.gamma))


@dataclass(frozen=True)
class ModelPosterior:
    models: tuple[ModelSpec, ...]
    log_bf_null: np.ndarray
    prior_prob: np.ndarray
    post_prob: np.ndarray

    def top_model(self) -> ModelSpec:
        return self.models[int(np.argmax(self.post_prob))]


def enumerate_models(partition: design.BlockPartition,
                     mode: str) -> list[ModelSpec]:
    """All 2^p single-predictor subsets, or 2^k whole-block subsets, in
    `itertools.product((0, 1), repeat=...)` order."""
    return _model_specs(_model_bits(partition, mode), partition)


def _model_bits(partition: design.BlockPartition, mode: str) -> np.ndarray:
    """The inclusion vectors of `enumerate_models`, as the rows of a 0/1
    matrix."""
    if mode == "all-subsets":
        if partition.p > ALL_SUBSETS_MAX_P:
            raise BudgetExceeded(
                f"all-subsets enumeration limited to p <= "
                f"{ALL_SUBSETS_MAX_P}, got p={partition.p}")
        return _all_subsets_bits(partition.p)
    if mode == "block-subsets":
        keep = _all_subsets_bits(partition.k)
        bits = np.zeros((len(keep), partition.p), dtype=np.uint8)
        for bi, block in enumerate(partition.blocks):
            bits[:, list(block)] = keep[:, bi, None]
        return bits
    raise DomainError(f"unknown enumeration mode {mode!r}")


def _model_specs(bits: np.ndarray,
                 partition: design.BlockPartition) -> list[ModelSpec]:
    return [ModelSpec(gamma=g, partition=partition)
            for g in map(tuple, bits.tolist())]


def _all_subsets_bits(p: int) -> np.ndarray:
    """The 2^p inclusion vectors as the rows of a 0/1 matrix: row i is i in
    binary, most significant bit first, which is itertools.product order."""
    return ((np.arange(2 ** p)[:, None] >> np.arange(p - 1, -1, -1)) & 1
            ).astype(np.uint8)


def posterior_model_probs(models: list[ModelSpec],
                          log_bfs: np.ndarray,
                          prior: str | np.ndarray = "uniform",
                          ) -> ModelPosterior:
    """Normalize prior x BF in log-sum-exp arithmetic.

    +inf log BFs are honored as sentinels: all mass goes to the sentinel
    holders, split according to the model prior.
    """
    if len(models) == 0:
        raise EmptyModelList("no models to normalize over")
    log_bfs = np.asarray(log_bfs, dtype=float)
    if len(log_bfs) != len(models):
        raise DimensionMismatch("log_bfs length != number of models")
    if isinstance(prior, str):
        if prior != "uniform":
            raise DomainError(f"unknown model prior {prior!r}")
        prior_prob = np.full(len(models), 1.0 / len(models))
    else:
        prior_prob = np.asarray(prior, dtype=float)
        if len(prior_prob) != len(models) or np.any(prior_prob < 0):
            raise DomainError("invalid model prior vector")
        prior_prob = prior_prob / prior_prob.sum()
    if np.any(np.isnan(log_bfs)):
        raise DomainError("NaN log Bayes factor")
    inf_mask = np.isinf(log_bfs) & (log_bfs > 0)
    post = np.zeros(len(models))
    if np.any(inf_mask):
        w = np.where(inf_mask, prior_prob, 0.0)
        post = w / w.sum()
    else:
        logw = np.where(prior_prob > 0, np.log(prior_prob,
                                               where=prior_prob > 0,
                                               out=np.full_like(prior_prob,
                                                                -np.inf)),
                        -np.inf) + log_bfs
        post = np.exp(logw - logsumexp(logw))
        post = post / post.sum()
    return ModelPosterior(models=tuple(models), log_bf_null=log_bfs,
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
        log_bf, shrink = hyperg.hyper_g_scores(a, fit.n, fit.p, fit.r2,
                                               fit.one_minus_r2)
        beta = float(shrink) * fit.beta_hat_ls
        method = "closed-form"
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
    bits = _model_bits(d.partition, mode)
    models = _model_specs(bits, d.partition)
    if mode == "all-subsets":
        log_bfs, means = _all_subsets_scores(d, bits, a)
        methods = ["closed-form"] * len(models)
    else:
        (log_bfs, means, methods), = block_subsets_scores([d], models, a,
                                                          rtol=rtol)
    return posterior_model_probs(models, log_bfs), means, methods


def _all_subsets_scores(d: design.CenteredDesign, gammas: np.ndarray,
                        a: float) -> tuple[np.ndarray, np.ndarray]:
    """log BFs and posterior coefficient means of single-block hyper-g
    models, one per row of the inclusion matrix `gammas`, all from one QR
    factorization of [X | y] (`design._subset_triangles`).

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
    scored = np.flatnonzero(sizes)
    for start in range(0, len(scored), _SCORE_CHUNK):
        idx = scored[start:start + _SCORE_CHUNK]
        log_bfs[idx], shrink = hyperg.hyper_g_scores(a, n, sizes[idx],
                                                     r2[idx], omr2[idx])
        means[idx] *= shrink[:, None]
    return log_bfs, means


def block_subsets_scores(designs, specs: list[ModelSpec], a: float = 3.0,
                         *, rtol: float = 1e-7,
                         ) -> list[tuple[np.ndarray, np.ndarray, list[str]]]:
    """log BFs, full-length posterior coefficient means and method labels
    of block hyper-g models on the induced partitions of `specs`, one
    triple per design of `designs`: designs that share p and the
    partition, of any n, read once in order.

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
    one batched QR per block layout (the models' block sizes, read off
    their inclusion vectors) for the models' triangles, one SVD per block
    size for the rank checks, and solves over the models of one layout.
    The block posteriors take arrays: every _SCORE_CHUNK models of all the
    designs are rows of one `blockprior._posteriors` call (block sizes,
    n, block R^2 and 1-R^2), whose integrals share their integrand calls;
    each integral keeps its own bracket, panels and convergence, so a
    model scores as it does alone. Each model's shrinkage means go back
    to its layout's rows by slicing; no fit summary, prior or partition
    is built per model. A model whose checks fail raises for the call, as
    the first check a design fails would raise for it alone.

    `model_inference` agrees to rounding, except on a design that passes
    `design.check_block_orthogonality` without being exactly orthogonal: it
    then skips orthogonalization and takes raw block projections, which
    differ from these by up to about ORTHO_TOL (1e-8) relative.
    """
    tris, yty, ns = [], [], []
    for d in designs:
        tris.append(design._xy_triangle(d))
        yty.append(float(d.y @ d.y))
        ns.append(d.n)
    R = np.stack(tris)
    n_designs, p = len(tris), R.shape[-1] - 1
    # models that share their blocks' sizes share every slice below; each
    # model's columns of X, in block order, and its blocks' sizes come from
    # its inclusion vector over the parent blocks
    layouts: dict[tuple[int, ...], list[int]] = {}
    orders = []
    for i, spec in enumerate(specs):
        kept = [[c for c in b if spec.gamma[c]]
                for b in spec.partition.blocks]
        orders.append([c for cols in kept for c in cols])
        sizes = tuple(len(cols) for cols in kept if cols)
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
        cols = np.array([orders[i] for i in idx])
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
    log_bfs = np.zeros((n_designs, len(specs)))
    means = np.zeros((n_designs, len(specs), p))
    methods = np.full((n_designs, len(specs)), "closed-form")
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
    if post_means.shape[0] != len(posterior.models):
        raise DimensionMismatch("one coefficient row per model required")
    xc = x_star - np.asarray(x_means, dtype=float)
    return float(alpha_hat + posterior.post_prob @ (post_means @ xc))
