"""Block hyper-g prior on block-orthogonal designs.

Bayes factors and per-block shrinkage come from the k-dimensional posterior
over t_i = g_i/(1+g_i),

    pi(t | y)  propto  prod_i (1-t_i)^(b_i)  (1 - sum_i t_i R_i^2)^(-m),

with b_i = (a+p_i)/2 - 2 and m = (n-1)/2. Integration is carried out in
s_i = 1 - t_i coordinates (see integrate.py) so the coupling factor is
evaluated as delta + sum rho_i s_i with delta = 1 - sum R_i^2 taken straight
from the residual sum of squares; that keeps the extreme near-unit-R^2
regimes exact. For every k the integrals go through the gamma-mixture 1-D
reduction (integrate.block_integrals_gamma1d), which evaluates the Bayes
factor integral and every block's shrinkage numerator in one shared pass.
The sigma^2 posterior is the same integral: with lam = 1/(2 s2) its
normalizer is J(0) and its mean is a closed form in the E[s_i | y], so a
block fit reports it from the pass that gave its Bayes factor.

bf_block_hyper_g is the one entry point for a block posterior: it returns
the log Bayes factor and every block's E[t_i | y] together, from the
gamma-mixture integrals, or from the limit sentinel when the integral
diverges at unit R^2. It checks one fit and makes the one-row arrays of
_posteriors, the array form that searches and sweeps call with their fits
stacked, with no object or Python step per model: the integrals share one
block_integrals_gamma1d_batch pass and every check is an array step, so
each model gets the result it gets alone. The paper's large-n Laplace
approximation of the same integral (log_bf_laplace, with the small-a
single-predictor adjustment) is a separate function; no block posterior
is served by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import integrate
from .design import BlockPartition, FitSummary
from .errors import (DomainError, IntegralDiverges, NoConvergence,
                     NotBlockOrthogonal, OutOfInterior)
from .special import log_inc_gamma_ratio


@dataclass(frozen=True)
class BlockHyperGPrior:
    """Independent hyper-g priors, one scale per block, shared a."""

    a: float
    partition: BlockPartition

    def __post_init__(self) -> None:
        if not (2.0 < self.a <= 4.0):
            raise DomainError(f"need 2 < a <= 4, got a={self.a}")

    @property
    def k(self) -> int:
        return self.partition.k

    def b_powers(self) -> np.ndarray:
        p_i = np.asarray(self.partition.sizes, dtype=float)
        return 0.5 * (self.a + p_i) - 2.0


@dataclass(frozen=True)
class ShrinkagePosterior:
    """Block shrinkage means, log BF vs null, the integral's error estimate
    and integrand evaluations (0 for the limit sentinel), and
    E[sigma^2 | y] or None."""

    t_mean: np.ndarray
    log_bf_null: float
    method: str
    error_estimate: float
    n_evals: int
    sigma2_mean: float | None


@dataclass(frozen=True)
class LaplacePoint:
    """Interior maximizer of h(t), its Hessian, and h at the maximum."""

    t_star: np.ndarray
    hessian: np.ndarray
    log_height: float


def _require_block_orthogonal(fit: FitSummary) -> None:
    if not fit.block_orthogonal:
        raise NotBlockOrthogonal(
            "design is not block orthogonal; apply block_orthogonalize "
            "first")


def _check_partition(prior: BlockHyperGPrior, fit: FitSummary) -> None:
    if tuple(prior.partition.sizes) != tuple(fit.p_i):
        raise DomainError(
            f"prior partition sizes {prior.partition.sizes} do not match "
            f"fit blocks {fit.p_i}")


def bf_block_hyper_g(prior: BlockHyperGPrior, fit: FitSummary, *,
                     rtol: float = 1e-7) -> ShrinkagePosterior:
    """The block posterior: log BF(model : null) = k log((a-2)/2) + log of
    the t-integral, and every block's shrinkage E[t_i | y] from the same
    gamma-mixture integrals; the limit sentinel when the integral diverges
    at unit R^2. The same E[s_i | y] give E[sigma^2 | y] (`_sigma2_mean`).

    Block i of the posterior mean of beta is block i of the LS estimate
    times t_mean[i] (`scale_blocks`). This is a one-row call of
    `_posteriors`, after the checks on the fit and the partition.
    """
    _, rss, _, q = _sigma2_pieces(prior, fit)  # checks fit, partition
    log_bf, t_mean, s_mean, error, n_evals, method = _posteriors(
        prior.a, np.array([prior.partition.sizes]), np.array([fit.n]),
        np.asarray(fit.r2_blocks, dtype=float)[None],
        np.array([fit.one_minus_r2], dtype=float), rtol=rtol)
    method = str(method[0])
    return ShrinkagePosterior(
        t_mean=t_mean[0], log_bf_null=float(log_bf[0]), method=method,
        error_estimate=float(error[0]), n_evals=int(n_evals[0]),
        sigma2_mean=None if method == "limit" else _sigma2_mean(
            rss, q, s_mean[0], 0.5 * (fit.n - 1)))


def _posteriors(a: float, sizes: np.ndarray, n: np.ndarray, rho: np.ndarray,
                delta: np.ndarray, *, rtol: float = 1e-7):
    """`bf_block_hyper_g`'s values for M block-orthogonal fits: block sizes
    and R^2 (M, K), n and 1-R^2 (M). A model of fewer blocks is padded with
    size 0 and R^2 0, and padded entries of the results are undefined.
    Returns the log BFs (M), t_mean (M, K), the integrals' E[s_i | y]
    (M, K; NaN for the limit sentinel), and per model the error estimate,
    n_evals and method. A model that raises raises for the call; at the
    exact boundary, the first such model names its own.
    """
    if not 2.0 < a <= 4.0:
        raise DomainError(f"need 2 < a <= 4, got a={a}")
    rho = np.minimum(np.maximum(rho, 0.0), 1.0)
    delta = np.maximum(delta, 0.0)
    active = rho > 0.0
    limit = delta <= 0.0
    if limit.any():
        # at unit R^2 the integral is proper iff n < k(a-2) + p + 1, over
        # the blocks with R_i^2 > 0 only: the others separate
        thresh = (active.sum(axis=1) * (a - 2.0)
                  + np.where(active, sizes, 0).sum(axis=1) + 1.0)
        edge = np.flatnonzero(limit & (n == thresh))
        if edge.size:
            raise IntegralDiverges(
                "unit R^2 at the exact propriety boundary n = k(a-2)+p+1 "
                f"= {thresh[edge[0]]} over the blocks with R_i^2 > 0")
        limit &= n > thresh
    # a limit row goes to the batch with every block inactive, which
    # integrates nothing and reports 0 evaluations and error
    real, lim = sizes > 0, limit[:, None]
    res = integrate.block_integrals_gamma1d_batch(
        np.where(real, 0.5 * (a + sizes) - 2.0, 0.0),
        np.where(lim, 0.0, rho), delta, 0.5 * (n - 1), rtol=rtol)
    s_mean = res.s_mean
    t = 1.0 - s_mean
    floor = 2.0 / (a + sizes)
    if (real & ~lim & ((t < floor - 1e-6) | (t > 1.0))).any():
        raise NoConvergence(
            "integrated shrinkage means violate the analytic bounds; "
            "integration failed")
    # the divergent integral's sentinel: the posterior piles up at t_i = 1
    # for every block carrying signal; no-signal blocks sit at their floor
    return (np.where(limit, math.inf, real.sum(axis=1)
                     * math.log(0.5 * (a - 2.0)) + res.log_i0),
            np.where(lim, np.where(active, 1.0, floor),
                     np.minimum(np.maximum(t, floor), 1.0)),
            np.where(lim, np.nan, s_mean), res.error, res.n_evals,
            np.where(limit, "limit", "gamma1d"))


def scale_blocks(beta: np.ndarray, partition: BlockPartition,
                 t: np.ndarray) -> np.ndarray:
    """A copy of beta with block i's coefficients scaled by t[i]."""
    out = np.array(beta, dtype=float, copy=True)
    for i, cols in enumerate(partition.blocks):
        out[list(cols)] *= t[i]
    return out


def laplace_t_star(b: np.ndarray, r: np.ndarray, m: float) -> LaplacePoint:
    """Interior maximizer t_i* = 1 - b_i (1-r) / (r_i (m-b)) of

        h(t) = sum_i b_i log(1-t_i) - m log(1 - sum_i t_i r_i),

    with the closed-form Hessian at t*. Requires every b_i > 0, sum r < 1,
    m > sum b; raises OutOfInterior when any t_i* leaves (0,1) so callers
    can fall back to full integration.
    """
    b = np.asarray(b, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(b <= 0.0):
        raise DomainError("Laplace point requires every b_i > 0")
    if np.any(r < 0.0) or float(r.sum()) >= 1.0:
        raise DomainError("need r_i >= 0 with sum r_i < 1")
    bsum = float(b.sum())
    rsum = float(r.sum())
    if m <= bsum:
        raise DomainError(f"need m > sum b_i, got m={m}, sum={bsum}")
    with np.errstate(divide="ignore"):
        t_star = 1.0 - b * (1.0 - rsum) / np.where(r > 0.0, r * (m - bsum),
                                                   np.inf)
    if np.any(r == 0.0) or np.any(t_star <= 0.0) or np.any(t_star >= 1.0):
        raise OutOfInterior(
            f"maximizer not interior: t*={np.array2string(t_star, precision=4)}")
    c = (m - bsum) ** 2 / (1.0 - rsum) ** 2
    hess = np.outer(c * r, r) / m
    # float_power takes pow per entry, as a scalar r_i ** 2 does; an
    # array's r ** 2 multiplies instead, which can differ in the last bit
    np.fill_diagonal(hess, -c * np.float_power(r, 2) * (1.0 / b - 1.0 / m))
    log_height = float(b @ np.log1p(-t_star)
                       - m * math.log1p(-float(t_star @ r)))
    return LaplacePoint(t_star=t_star, hessian=hess, log_height=log_height)


def _laplace_log_integral(a: float, p_i: np.ndarray, r: np.ndarray,
                          m: float) -> float:
    """Laplace value of log int prod (1-t_i)^(b_i) (1-t.r)^(-m) dt.

    For 2 < a < 3 any p_i = 1 block has b_i < 0; the integral is rewritten
    with p_i* = p_i + 1 and an extra (1-t_i)^(-1/2) factor evaluated at the
    adjusted maximizer. a = 3 with p_i = 1 gives b_i = 0 exactly and is
    refused (full integration handles it).
    """
    p_i = np.asarray(p_i, dtype=float)
    b = 0.5 * (a + p_i) - 2.0
    adj = np.zeros(len(b), dtype=bool)
    if a <= 3.0:
        single = p_i == 1.0
        if np.any(single) and a == 3.0:
            raise OutOfInterior(
                "a = 3 with a single-predictor block (b_i = 0): no interior "
                "Laplace point, use full integration")
        adj = single & (b <= 0.0)
        b = np.where(adj, 0.5 * (a + p_i + 1.0) - 2.0, b)
    point = laplace_t_star(b, r, m)
    sign, logdet = np.linalg.slogdet(-point.hessian)
    if sign <= 0:
        raise OutOfInterior("negated Hessian not positive definite")
    val = (point.log_height + 0.5 * len(b) * math.log(2.0 * math.pi)
           - 0.5 * float(logdet))
    if np.any(adj):
        val += float(-0.5 * np.log1p(-point.t_star[adj]).sum())
    return val


def log_bf_laplace(prior: BlockHyperGPrior, fit_gamma: FitSummary,
                   fit_T: FitSummary,
                   partition_T: BlockPartition | None = None) -> float:
    """Laplace approximation of log BF(M_gamma : M_T).

    prior.partition describes the gamma model; partition_T (default: the
    same) describes the reference model. Both fits must be block orthogonal
    on the same response.
    """
    _require_block_orthogonal(fit_gamma)
    _require_block_orthogonal(fit_T)
    part_T = prior.partition if partition_T is None else partition_T
    a = prior.a
    m_g = 0.5 * (fit_gamma.n - 1)
    m_t = 0.5 * (fit_T.n - 1)
    val_g = _laplace_log_integral(
        a, np.asarray(fit_gamma.p_i, dtype=float),
        np.clip(fit_gamma.r2_blocks, 0.0, 1.0), m_g)
    val_t = _laplace_log_integral(
        a, np.asarray(fit_T.p_i, dtype=float),
        np.clip(fit_T.r2_blocks, 0.0, 1.0), m_t)
    k_g, k_t = len(fit_gamma.p_i), len(part_T.sizes)
    return (k_g - k_t) * math.log(0.5 * (a - 2.0)) + val_g - val_t


def bf_laplace(prior: BlockHyperGPrior, fit_gamma: FitSummary,
               fit_T: FitSummary,
               partition_T: BlockPartition | None = None) -> float:
    return math.exp(log_bf_laplace(prior, fit_gamma, fit_T, partition_T))


def laplace_applicable(prior: BlockHyperGPrior, fit: FitSummary) -> bool:
    """Large-n gate: n >= 200 and every t_i* inside (0.02, 0.98).

    No library code consults it: it does not say that the t-posterior is
    concentrated enough for Laplace to be accurate, so bf_block_hyper_g
    always integrates. It stays because perfbench's tracer patches it.
    """
    if fit.n < 200:
        return False
    try:
        point = laplace_t_star(prior.b_powers(),
                               np.clip(fit.r2_blocks, 0.0, 1.0),
                               0.5 * (fit.n - 1))
    except (OutOfInterior, DomainError):
        return False
    return bool(np.all((point.t_star > 0.02) & (point.t_star < 0.98)))


def _sigma2_mean(rss: float, q: np.ndarray, s_mean: np.ndarray,
                 m: float) -> float | None:
    """E[s2] = (rss + sum_j q_j E[s_j]) / (2(M-1)) in Sigma2Density's terms,
    with M = m; None unless rss > 0 and M > 1."""
    if rss <= 0.0 or m <= 1.0:
        return None
    return (rss + float(q @ s_mean)) / (2.0 * (m - 1.0))


class Sigma2Density:
    """Normalized sigma^2 density of the family

        (s2)^(-(alpha+1)) exp(-rss/(2 s2)) prod_j gamma(nu_j, q_j/(2 s2)).

    Both the exact finite-scale posteriors and their large-sample limits
    live here; they differ only in which incomplete-gamma factors survive.
    Proper iff M = alpha + sum nu_j > 0 (the gamma factors decay like
    (1/s2)^nu_j for large s2). With lam = 1/(2 s2) and S = rss + sum q_j
    the normalizer is 2^alpha Gamma(M) prod_j q_j^nu_j S^(-M) J(0), J the
    block integral of integrate.py at b_j = nu_j - 1, rho_j = q_j/S,
    delta = rss/S and m = M, whose E[s_j] give the mean (`_sigma2_mean`).
    """

    def __init__(self, alpha: float, rss: float, nu: np.ndarray,
                 q: np.ndarray) -> None:
        self.alpha = float(alpha)
        self.rss = float(rss)
        self.nu = np.asarray(nu, dtype=float)
        self.q = np.asarray(q, dtype=float)
        m = self.alpha + float(self.nu.sum())
        if m <= 0.0:
            raise DomainError("sigma^2 density is improper for these "
                              "(n, a, p) values")
        if self.rss <= 0.0:
            raise DomainError("requires a positive residual sum of squares")
        if np.any(self.q <= 0.0) or np.any(self.nu <= 0.0):
            raise DomainError("incomplete gamma factors need q_j, nu_j > 0")
        s = self.rss + float(self.q.sum())
        res = integrate.block_integrals_gamma1d(self.nu - 1.0, self.q / s,
                                                self.rss / s, m)
        self._log_norm = (self.alpha * math.log(2.0) + math.lgamma(m)
                          + float(self.nu @ np.log(self.q))
                          - m * math.log(s) + res.log_i0)
        self._mean = _sigma2_mean(self.rss, self.q, res.s_mean, m)

    def _log_unnorm(self, s2: np.ndarray) -> np.ndarray:
        s2 = np.asarray(s2, dtype=float)
        out = -(self.alpha + 1.0) * np.log(s2) - 0.5 * self.rss / s2
        # log gamma(nu_j, y_j) with y_j = q_j / (2 s2)
        y = 0.5 * self.q / s2[..., None]
        with np.errstate(divide="ignore"):
            return out + (log_inc_gamma_ratio(self.nu, y)
                          + self.nu * np.log(y)).sum(axis=-1)

    def logpdf(self, s2: np.ndarray) -> np.ndarray:
        return self._log_unnorm(s2) - self._log_norm

    def pdf(self, s2: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(s2))

    def mean(self) -> float:
        if self._mean is None:
            raise DomainError("mean does not exist for this density")
        return self._mean

    def mean_bound(self, a: float, p1: int, n: int) -> float:
        """Closed-form upper bound on the limit mean, for n > a + p1 + 1."""
        if n <= a + p1 + 1.0:
            raise DomainError("bound requires n > a + p1 + 1")
        return (self.rss + float(self.q.sum())) / (n - 1.0 - a - p1)


def _sigma2_pieces(prior: BlockHyperGPrior,
                   fit: FitSummary) -> tuple[float, float, np.ndarray,
                                             np.ndarray]:
    _require_block_orthogonal(fit)
    _check_partition(prior, fit)
    a, n, p, k = prior.a, fit.n, fit.p, prior.k
    rss = (n - p - 1) * fit.sigma2_hat
    alpha = 0.5 * (n - 1.0 - k * (a - 2.0) - p)
    nu = 0.5 * (a + np.asarray(fit.p_i, dtype=float)) - 1.0
    q = np.asarray(fit.r2_blocks, dtype=float) * fit.yty
    return alpha, rss, nu, q


def sigma2_density_limit_block(prior: BlockHyperGPrior,
                               fit: FitSummary) -> Sigma2Density:
    """Large-sample sigma^2 posterior under the block prior.

    The first block's incomplete-gamma factor has saturated to a constant
    (its argument diverges along the drifting sequence); the others keep
    q_i equal to that block's squared fitted norm. Requires
    n > k(a-2) + p + 1. For k = 1 this is exactly inverse gamma.
    """
    alpha, rss, nu, q = _sigma2_pieces(prior, fit)
    if alpha <= 0.0:
        raise DomainError("density limit requires n > k(a-2) + p + 1")
    return Sigma2Density(alpha, rss, nu[1:], q[1:])


def sigma2_density_exact_block(prior: BlockHyperGPrior,
                               fit: FitSummary) -> Sigma2Density:
    """Finite-scale sigma^2 posterior: every block keeps its gamma factor."""
    alpha, rss, nu, q = _sigma2_pieces(prior, fit)
    keep = q > 0.0
    return Sigma2Density(alpha + float(nu[~keep].sum()), rss, nu[keep],
                         q[keep])


def clp_lower_bound(a: float, p2: int) -> float:
    """(a-2)/(a+p2-2): the floor under the two-block paradox ratio."""
    if not (2.0 < a <= 4.0):
        raise DomainError(f"need 2 < a <= 4, got a={a}")
    if p2 < 1:
        raise DomainError(f"need p2 >= 1, got {p2}")
    return (a - 2.0) / (a + p2 - 2.0)
