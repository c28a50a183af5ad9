"""Fixed-g and hyper-g priors: Bayes factors against the null model,
shrinkage factors, posterior means, and the large-sample sigma^2 posterior.

All Bayes factors are computed and stored as logs; linear values are exposed
on demand. Drifting-sequence experiments overflow doubles otherwise.

The hyper-g Bayes factor and shrinkage have one evaluator,
`hyper_g_scores`, over any number of models. `log_bf_hyper_g_stats` and
`shrinkage_hyper_g_stats` are one-model calls of its route table
(`_route_table`), so a model scores the same through every entry point.
Every row of the table is vectorized over its models: the closed form
through the incomplete beta function, the Gauss series, the limits at
unit R^2, and, near R^2 = 1 where the series would be long, one batch of
k = 1 block integrals (`integrate.block_integrals_gamma1d_batch`), since
the hyper-g prior is the block hyper-g prior with one block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincc, betaln

from .design import FitSummary
from .errors import DomainError
from .integrate import block_integrals_gamma1d_batch
from .special import log_series_2f1, takes_series


@dataclass(frozen=True)
class FixedGPrior:
    """Conventional g prior with a fixed scale g > 0 (g = 0 collapses to
    the null model and is allowed for boundary checks)."""

    g: float

    def __post_init__(self) -> None:
        if not (self.g >= 0.0 and math.isfinite(self.g)):
            raise DomainError(f"need finite g >= 0, got g={self.g}")


@dataclass(frozen=True)
class HyperGPrior:
    """Shrinkage-mixing prior with density ((a-2)/2)(1+g)^(-a/2), 2 < a <= 4."""

    a: float = 3.0

    def __post_init__(self) -> None:
        if not (2.0 < self.a <= 4.0):
            raise DomainError(f"need 2 < a <= 4, got a={self.a}")


@dataclass(frozen=True)
class InverseGammaParams:
    """Inverse gamma with density x^(-shape-1) exp(-1/(scale x)) / (Gamma(shape) scale^shape).

    In this parameterization the mean is 1/(scale (shape - 1)). A degenerate
    distribution at 0 is encoded by scale = +inf.
    """

    shape: float
    scale: float

    @property
    def mean(self) -> float:
        if self.shape <= 1.0:
            raise DomainError("mean undefined for shape <= 1")
        if math.isinf(self.scale):
            return 0.0
        return 1.0 / (self.scale * (self.shape - 1.0))

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (-(self.shape + 1.0) * np.log(x) - 1.0 / (self.scale * x)
                - math.lgamma(self.shape)
                - self.shape * math.log(self.scale))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))


def _resolve_r2(r2: float, one_minus_r2: float | None) -> tuple[float, float]:
    if not (0.0 <= r2 <= 1.0):
        raise DomainError(f"need 0 <= R^2 <= 1, got {r2}")
    omr2 = (1.0 - r2) if one_minus_r2 is None else float(one_minus_r2)
    if not 0.0 <= omr2 <= 1.0:
        raise DomainError(f"need 0 <= 1 - R^2 <= 1, got {omr2}")
    return float(r2), omr2


def log_bf_fixed_g_stats(g: float, n: int, p: int, r2: float,
                         one_minus_r2: float | None = None) -> float:
    """log of (1+g)^((n-p-1)/2) / [1 + g(1-R^2)]^((n-1)/2)."""
    if n <= p + 1:
        raise DomainError(f"need n > p + 1, got n={n}, p={p}")
    r2, omr2 = _resolve_r2(r2, one_minus_r2)
    if g == 0.0:
        return 0.0
    return (0.5 * (n - p - 1) * math.log1p(g)
            - 0.5 * (n - 1) * math.log1p(g * omr2))


def bf_fixed_g(prior: FixedGPrior, fit: FitSummary) -> float:
    return math.exp(log_bf_fixed_g_stats(prior.g, fit.n, fit.p, fit.r2,
                                         fit.one_minus_r2))


def _closed_form(a, n, p, omr2) -> tuple[np.ndarray, np.ndarray]:
    """Hyper-g log Bayes factor and shrinkage E[g/(1+g) | y], elementwise.

    With m = (n-1)/2, c = (a+p)/2, q = m-c+1 and z = R^2,

        2F1(m, 1; c; z) = (c-1) z^(1-c) (1-z)^(-q) B(c-1, q) I_z(c-1, q),

    and the shrinkage needs only b = 1 in the second parameter:
    1 - ((c-1)/c) 2F1(m,1;c+1;z) / 2F1(m,1;c;z), whose beta functions
    cancel to 1 - (c-1)(1-z) I_z(c, q-1) / (z (q-1) I_z(c-1, q)).
    I_z(s, t) is evaluated as betaincc(t, s, 1-z), so 1-R^2 enters
    exactly and never as 1 minus a rounded R^2.

    Both values are NaN where an incomplete-beta factor is below the
    smallest normal double, which happens for blocks of thousands of
    predictors with n near p; `_route_table` scores those entries as it
    scores the band n <= p+a+1.
    """
    m = 0.5 * (n - 1.0)
    c = 0.5 * (a + p)
    q = m - c + 1.0
    i_lo = betaincc(q, c - 1.0, omr2)
    i_hi = betaincc(q - 1.0, c, omr2)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_bf = (np.log(0.5 * (a - 2.0)) + (1.0 - c) * np.log1p(-omr2)
                  - q * np.log(omr2) + betaln(c - 1.0, q) + np.log(i_lo))
        shrink = 1.0 - ((c - 1.0) * omr2 * i_hi
                        / ((1.0 - omr2) * (q - 1.0) * i_lo))
    underflow = np.minimum(i_lo, i_hi) < np.finfo(float).tiny
    return (np.where(underflow, np.nan, log_bf),
            np.where(underflow, np.nan, shrink))


def _series_form(a, n, p, omr2) -> tuple[np.ndarray, np.ndarray]:
    """Hyper-g log Bayes factor and shrinkage through the Gauss series,
    elementwise, at R^2 = 1 - (1-R^2)."""
    m = 0.5 * (n - 1.0)
    c = 0.5 * (a + p)
    log_den = log_series_2f1(m, 1.0, c, 1.0 - omr2)
    log_num = log_series_2f1(m, 2.0, c + 1.0, 1.0 - omr2)
    return (np.log(a - 2.0) - np.log(p + a - 2.0) + log_den,
            (2.0 / (p + a)) * np.exp(log_num - log_den))


def _route_table(a: float, n, p, r2, omr2) -> tuple[np.ndarray, ...]:
    """Hyper-g log BF and shrinkage over flat arrays of (n, p, R^2, 1-R^2)
    with n >= 1, unchecked; the log BF is meaningful for n > p+1 only.
    Then, per model, whether the k = 1 integral scored it, and that
    integral's error estimate and n_evals (0 where it did not).
    Every row is vectorized over its models, and each forms R^2 as
    1 - (1-R^2), so the R^2 array itself is not read:

    - 0 < 1-R^2 <= 1/2 and n > p+a+1: the closed form. Below R^2 = 1/2
      it loses digits to cancellation between its beta function and its
      incomplete-beta factor;
    - every other entry where `special.takes_series` holds (R^2 <= 0.95,
      or at most 60,000 terms): the series. That is all of R^2 < 1/2, and
      the band n <= p+a+1 and closed-form underflow while the series is
      short;
    - unit R^2: the shrinkage limits, and the log BF: +inf for
      n >= p+a-1 and Gauss's summation log((a-2)/(a+p-n-1)) below;
    - n = 1: shrinkage 2/(p+a);
    - the rest, where the series is long (the band near R^2 = 1): one
      batch of k = 1 block integrals, the hyper-g prior being the block
      prior with one block. There b = (a+p)/2 - 2, rho = R^2,
      delta = 1-R^2 and m = (n-1)/2, so log BF = log((a-2)/2) + log J(0)
      and the shrinkage is t_mean[0].
    """
    log_bf = np.full(omr2.shape, np.nan)
    shrink = np.empty(omr2.shape)
    closed = (omr2 > 0.0) & (omr2 <= 0.5) & (n > p + a + 1.0)
    if closed.any():
        log_bf[closed], shrink[closed] = _closed_form(a, n[closed], p[closed],
                                                      omr2[closed])
    closed &= np.isfinite(log_bf)
    unit = omr2 == 0.0
    series = ~(closed | unit) & takes_series(0.5 * (n - 1.0), 1.0,
                                             0.5 * (a + p), 1.0 - omr2)
    if series.any():
        log_bf[series], shrink[series] = _series_form(
            a, n[series], p[series], omr2[series])
    shrink[unit] = np.where(n[unit] >= p[unit] + a - 1.0, 1.0,
                            2.0 / (p[unit] + a - n[unit] + 1.0))
    log_bf[unit] = math.inf
    finite = unit & (n < a + p - 1.0)
    log_bf[finite] = np.log((a - 2.0) / (a + p[finite] - n[finite] - 1.0))
    single = (n == 1) & ~unit
    shrink[single] = 2.0 / (p[single] + a)
    near = ~(closed | unit | series | single)
    error = np.zeros(omr2.shape)
    n_evals = np.zeros(omr2.shape, dtype=np.int64)
    if near.any():
        om = omr2[near]
        ints = block_integrals_gamma1d_batch(
            (0.5 * (a + p[near]) - 2.0)[:, None], (1.0 - om)[:, None], om,
            0.5 * (n[near] - 1.0))
        log_bf[near] = math.log(0.5 * (a - 2.0)) + ints.log_i0
        shrink[near] = ints.t_mean[:, 0]
        error[near], n_evals[near] = ints.error, ints.n_evals
    return log_bf, shrink, near, error, n_evals


def hyper_g_scores(a: float, n, p, r2, one_minus_r2,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """log BF against the null and shrinkage E[g/(1+g) | y], elementwise
    over broadcast arrays of (n, p, R^2, 1-R^2), from `_route_table`.

    Raises DomainError for n <= p+1, or an R^2 or 1-R^2 outside [0, 1],
    before any model is scored, and warns at exact unit R^2 with n in
    [p+a-1, p+a+1], where the +inf log BF is the divergent limit.
    """
    return _routed_scores(a, n, p, r2, one_minus_r2)[:2]


def _routed_scores(a: float, n, p, r2, one_minus_r2,
                   ) -> tuple[np.ndarray, ...]:
    """`hyper_g_scores` with the route table's diagnostics: per model,
    whether the k = 1 integral scored it, its error estimate and n_evals.
    """
    args = np.broadcast_arrays(np.asarray(n), np.asarray(p),
                               np.asarray(r2, dtype=float),
                               np.asarray(one_minus_r2, dtype=float))
    n, p, r2, omr2 = (v.ravel() for v in args)
    bad = n <= p + 1
    if bad.any():
        i = np.argmax(bad)
        raise DomainError(f"need n > p + 1, got n={n[i]}, p={p[i]}")
    bad = ~((r2 >= 0.0) & (r2 <= 1.0) & (omr2 >= 0.0) & (omr2 <= 1.0))
    if bad.any():
        _resolve_r2(float(r2[bad][0]), float(omr2[bad][0]))
    if np.any((omr2 == 0.0) & (n >= a + p - 1.0) & (n <= p + a + 1.0)):
        warnings.warn(
            "exact unit R^2 with n in [p+a-1, p+a+1]: reporting the "
            "divergent limit", RuntimeWarning, stacklevel=3)
    return tuple(v.reshape(args[0].shape)
                 for v in _route_table(a, n, p, r2, omr2))


def log_bf_hyper_g_stats(a: float, n: int, p: int, r2: float,
                         one_minus_r2: float | None = None) -> float:
    """log of (a-2)/(p+a-2) * 2F1((n-1)/2, 1; (a+p)/2; R^2): one model of
    `hyper_g_scores`.

    At R^2 = 1 exactly: finite closed-form limit when n < a+p-1, otherwise
    a +inf sentinel (with a warning in the narrow band n <= p+a+1 where the
    large-sample divergence argument does not directly apply).
    """
    omr2 = 1.0 - r2 if one_minus_r2 is None else one_minus_r2
    return float(hyper_g_scores(a, n, p, r2, omr2)[0])


def bf_hyper_g(prior: HyperGPrior, fit: FitSummary) -> float:
    return math.exp(log_bf_hyper_g_stats(prior.a, fit.n, fit.p, fit.r2,
                                         fit.one_minus_r2))


def shrinkage_hyper_g_stats(a: float, n: int, p: int, r2: float,
                            one_minus_r2: float | None = None) -> float:
    """Posterior mean of g/(1+g): 2/(p+a) times a ratio of two 2F1 values,
    from the route table of `hyper_g_scores`.

    At R^2 = 1 exactly the limits are 1 when n >= p+a-1 and 2/(p+a-n+1)
    otherwise (minimum 2/(p+a) at n = 1). Accepts any n >= 1: the formula
    is well defined below the fitting threshold and the boundary cases
    matter for the small-n limit analysis.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    r2, omr2 = _resolve_r2(r2, one_minus_r2)
    return float(_route_table(a, np.array([n]), np.array([p]),
                              np.array([r2]), np.array([omr2]))[1][0])


def shrinkage_hyper_g(prior: HyperGPrior, fit: FitSummary) -> float:
    return shrinkage_hyper_g_stats(prior.a, fit.n, fit.p, fit.r2,
                                   fit.one_minus_r2)


def posterior_mean_hyper_g(prior: HyperGPrior, fit: FitSummary) -> np.ndarray:
    return shrinkage_hyper_g(prior, fit) * fit.beta_hat_ls


def sigma2_limit_hyper_g(prior: HyperGPrior, n: int, p: int,
                         sigma2_hat: float) -> InverseGammaParams:
    """Large-sample sigma^2 posterior: IG((n+1-a-p)/2, 2/((n-p-1) sigma2_hat)).

    The mean, (n-p-1) sigma2_hat / (n-p-a-1), exists when n > a+p+1.
    """
    a = prior.a
    if n <= a + p - 1.0:
        raise DomainError(
            f"sigma^2 limit requires n > a+p-1, got n={n}, a={a}, p={p}")
    if sigma2_hat < 0.0:
        raise DomainError("sigma2_hat must be nonnegative")
    shape = 0.5 * (n + 1.0 - a - p)
    if sigma2_hat == 0.0:
        return InverseGammaParams(shape=shape, scale=math.inf)
    return InverseGammaParams(shape=shape,
                              scale=2.0 / ((n - p - 1) * sigma2_hat))


def _check_same_data(fit_big: FitSummary, fit_small: FitSummary) -> None:
    if fit_big.n != fit_small.n:
        raise DomainError("fits come from different sample sizes")
    scale = max(fit_big.yty, fit_small.yty, 1e-300)
    if abs(fit_big.yty - fit_small.yty) > 1e-8 * scale:
        raise DomainError("fits appear to use different responses")
    if fit_big.p < fit_small.p:
        raise DomainError("fit_big must be the larger model")


def log_bf_ratio_hyper_g(prior: HyperGPrior, fit_big: FitSummary,
                         fit_small: FitSummary) -> float:
    """log BF(big : small) = log BF(big : null) - log BF(small : null).

    When both models sit at exact unit R^2: the finite limiting ratio
    (a+p_small-n-1)/(a+p_big-n-1) applies for n < a+p_small-1; once n
    reaches a+p_small-1 the ratio collapses to 0 (the smaller model wins).
    """
    _check_same_data(fit_big, fit_small)
    a = prior.a
    fits = (fit_big, fit_small)
    lb, ls = hyper_g_scores(a, [f.n for f in fits], [f.p for f in fits],
                            [f.r2 for f in fits],
                            [f.one_minus_r2 for f in fits])[0].tolist()
    if math.isinf(lb) and math.isinf(ls):
        n, p1, p2 = fit_small.n, fit_small.p, fit_big.p
        if n < a + p1 - 1.0:
            return (math.log(a + p1 - n - 1.0) - math.log(a + p2 - n - 1.0))
        return -math.inf
    return lb - ls


def bf_ratio_hyper_g(prior: HyperGPrior, fit_big: FitSummary,
                     fit_small: FitSummary) -> float:
    return math.exp(log_bf_ratio_hyper_g(prior, fit_big, fit_small))
