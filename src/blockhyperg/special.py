"""Gaussian hypergeometric 2F1, and the log incomplete-gamma ratio of the
gamma-mixture block integrals.

Regime: 2F1(a, b; c; z) with a > 0, c > b > 0 and 0 <= z < 1, which keeps the
Gauss series all-positive and the Euler integral

    2F1(a,b;c;z) = [1/B(b, c-b)] * int_0^1 t^{b-1} (1-t)^{c-b-1} (1-t z)^{-a} dt

finite. `log_series_2f1` sums the scaled power series (Kahan-compensated)
elementwise over arrays, and each entry stops at the first span of terms
whose bounded tail is negligible. `hyp2f1_log` takes the series where
`takes_series` holds and otherwise integrates the Euler integral in log
space, so values far beyond double range remain usable. The quadrature
runs in the logistic coordinate t = 1/(1+e^-u), where the integrand
t^b (1-t)^(c-b) ((1-t) + t(1-z))^-a has straight exponential tails at both
ends and takes 1-z exactly. Its interval comes from
`_quadlog.peak_bracket`, the one bracket of every 1-D integral here.

The hyper-g Bayes factor and shrinkage take neither `hyp2f1_log` nor the
Euler quadrature. `hyperg` evaluates them in closed form through the
incomplete beta function at R^2 >= 1/2 when n > p+a+1, sums the series
where `takes_series` holds, and takes the k = 1 block integral of
`integrate` elsewhere. No library code calls `hyp2f1_log`; perfbench's
trace wraps it, and the tests check it against mpmath and against the
dual-route forms in `tests/gquad.py`.

The incomplete-gamma ratio has one routing table,
`log_inc_gamma_ratio_pair`'s, which gives the ratio at beta and at beta+1
for one incomplete gamma; `log_inc_gamma_ratio` is its first value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln

from ._quadlog import adaptive_log_integral, peak_bracket
from .errors import DomainError, NoConvergence

_SERIES_BUDGET = 2_000_000
# the lower side of the ratio takes scipy's gammainc up to this shape and
# down to this value; beyond either the series is the more accurate route
_GAMMAINC_MAX_SHAPE = 30.0
_GAMMAINC_FLOOR = 1e-30


def _validate(a: float, b: float, c: float, z: float) -> None:
    if not (a > 0 and b > 0 and c > b):
        raise DomainError(f"need a > 0 and c > b > 0, got a={a}, b={b}, c={c}")
    if not (0.0 <= z < 1.0):
        raise DomainError(f"need 0 <= z < 1, got z={z}")


def _series_terms_estimate(a, b, c, z):
    """Terms the Gauss series needs, elementwise for 0 <= z <= 1: they
    behave like k^(a+b-c-1) z^k, so a peak plus a decay length."""
    lam = np.maximum(-np.log(np.where(z > 0.0, z, 1.0)), 1e-18)
    return np.where(z > 0.0, (np.maximum(0.0, a + b - c) + 60.0) / lam
                    + 60.0, 1.0)


def takes_series(a, b, c, z):
    """Whether the Gauss series is the route for 2F1(a, b; c; z),
    elementwise: at z <= 0.95, and where it needs at most 60,000 terms.
    `hyperg` sums it there, and so does `hyp2f1_log`, which integrates the
    Euler integral elsewhere."""
    return (z <= 0.95) | (_series_terms_estimate(a, b, c, z) <= 60_000)


def log_series_2f1(a, b, c, z):
    """log of the Gauss series, scaled accumulation, Kahan-compensated.

    Elementwise over broadcast arrays; a float for scalar arguments. All
    terms are positive in the supported regime. The terms are summed in
    spans short enough for each cumprod to stay inside double range, and
    each entry stops after the first span whose tail is negligible. The
    tail after term t_K is at most t_K R / (1 - R) for any bound R < 1 on
    the ratios r_j = t_(j+1) / t_j, j >= K. Writing r_j = z (1 + (alpha j
    + beta) / ((c+j)(1+j))) with alpha = a+b-c-1 and beta = ab-c gives

        R = z (1 + max(alpha, 0) / (1+K) + max(beta, 0) / ((c+K)(1+K))),

    which holds whether the ratios fall toward their limit z or rise toward
    it. Raises NoConvergence if _SERIES_BUDGET terms are summed before the
    tail is negligible.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in (a, b, c, z)))
    a, b, c, z = (v.ravel() for v in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a, b, c, z))))
    out = np.zeros(z.shape)
    # the state of the entries still summing; finished ones leave it
    idx = np.flatnonzero(z != 0.0)
    a, b, c, z = a[idx], b[idx], c[idx], z[idx]
    alpha = np.maximum(a + b - c - 1.0, 0.0)
    beta = np.maximum(a * b - c, 0.0)
    logscale = np.zeros(idx.shape)
    total = np.ones(idx.shape)
    comp = np.zeros(idx.shape)  # Kahan compensation across span sums
    term = np.ones(idx.shape)
    k = 0
    while idx.size:
        if k >= _SERIES_BUDGET:
            raise NoConvergence(
                f"2F1 series exceeded {_SERIES_BUDGET} terms (a={a[0]}, "
                f"b={b[0]}, c={c[0]}, z={z[0]})")
        r0 = max(float(np.max((a + k) * (b + k) * z
                              / ((c + k) * (1.0 + k)))), 1.0)
        # keep each cumprod inside double range
        span = int(max(8, 200.0 / max(1.0, math.log10(r0) * 1.2)))
        ks = np.arange(k, k + span, dtype=float)
        terms = term[:, None] * np.cumprod(
            (a[:, None] + ks) * (b[:, None] + ks) * z[:, None]
            / ((c[:, None] + ks) * (1.0 + ks)), axis=1)
        y = terms.sum(axis=1) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        term = terms[:, -1]
        k += span
        # rescale early: the next span may grow by ~200 decades
        scale = np.where((total > 1e60) | (term > 1e60), total, 1.0)
        logscale += np.log(scale)
        term /= scale
        comp /= scale
        total /= scale
        r_sup = z * (1.0 + alpha / (1.0 + k) + beta / ((c + k) * (1.0 + k)))
        done = (r_sup < 1.0) & (term < total * 1e-18 * (1.0 - r_sup))
        if done.any():
            out[idx[done]] = np.log(total[done]) + logscale[done]
            keep = ~done
            idx, a, b, c, z, alpha, beta, logscale, total, comp, term = (
                v[keep] for v in (idx, a, b, c, z, alpha, beta, logscale,
                                  total, comp, term))
    return float(out[0]) if shape == () else out.reshape(shape)


def _log_euler_quad(a: float, b: float, c: float, one_minus_z: float, *,
                    rtol: float = 1e-12) -> float:
    """log of the (unnormalized) Euler integral, in the logistic coordinate
    t = 1/(1+e^-u).

    The integrand becomes t^b (1-t)^(c-b) ((1-t) + t(1-z))^-a over the real
    line, with log t = -log(1+e^-u) and log(1-t) = -log(1+e^u), so both
    endpoint power laws are straight tails and 1-z enters exactly, however
    small. One `peak_bracket` finds the peak and walks each end out, also
    along the slow slope of rate |c-b-a| that a barely convergent 2F1 has
    between u = 0 and log(1/(1-z)); one adaptive pass seeded at the peak
    integrates it. The scan starts where the peak is expected: near
    u = log(1/(1-z)) when a > c-b, where the factor ((1-t) + t(1-z))^-a
    still rises, and near u = 0 otherwise.
    """
    log_delta = math.log(one_minus_z)

    def logf(u):
        log_t = -np.logaddexp(0.0, -u)
        log_1mt = -np.logaddexp(0.0, u)
        return (b * log_t + (c - b) * log_1mt
                - a * np.logaddexp(log_1mt, log_t + log_delta))

    lo, hi, u_pk = peak_bracket(logf, -log_delta if a > c - b else 0.0)
    return adaptive_log_integral(logf, lo, hi, rtol=rtol,
                                 seed_points=(u_pk,))[0]


def _log_beta(b: float, cb: float) -> float:
    return math.lgamma(b) + math.lgamma(cb) - math.lgamma(b + cb)


def hyp2f1_log(a: float, b: float, c: float, z: float,
               one_minus_z: float | None = None) -> float:
    """log 2F1(a,b;c;z) for the supported regime; overflow-safe.

    one_minus_z may be passed when 1-z is known to more precision than the
    rounded z (extreme R-squared sweeps). z may equal 1 when c-a-b > 0, in
    which case the Gauss summation value is returned.
    """
    delta = 1.0 - z if one_minus_z is None else one_minus_z
    if one_minus_z is not None:
        z = 1.0 - one_minus_z if one_minus_z > 1e-14 else z
    if delta <= 0.0:
        if c - a - b > 0.0:
            return (math.lgamma(c) + math.lgamma(c - a - b)
                    - math.lgamma(c - a) - math.lgamma(c - b))
        raise DomainError("2F1 diverges at z=1 when a+b-c >= 0")
    _validate(a, b, c, min(z, 1.0 - 1e-16) if z >= 1.0 else z)
    if z == 0.0:
        return 0.0
    if takes_series(a, b, c, z):
        return log_series_2f1(a, b, c, z)
    return _log_euler_quad(a, b, c, delta) - _log_beta(b, c - b)


def _series_log_ratio(beta, y) -> np.ndarray:
    """log_inc_gamma_ratio by the series sum_k y^k / (beta (beta+1) ...
    (beta+k)), summed directly, over 1-D arrays. Its terms fall from the
    first one on, so nothing underflows however large beta is, and
    log e^(-y) is added in log space."""
    total = 1.0 / beta
    term = total.copy()
    live = np.arange(len(beta))
    for k in range(1, 100_000):
        if not live.size:
            break
        term = term * y[live] / (beta[live] + k)
        total[live] += term
        going = term > total[live] * 1e-17
        live, term = live[going], term[going]
    else:
        raise NoConvergence("incomplete gamma series stalled")
    return np.log(total) - y


def _lower_log_ratio(beta, y, log_y, lg) -> np.ndarray:
    """log_inc_gamma_ratio over 1-D arrays of entries with y < beta + 1,
    given log y and gammaln(beta): lg + log gammainc(beta, y) - beta log y
    where beta <= 30 and gammainc is above 1e-30, the series elsewhere.
    The subtraction in the gammainc form loses digits in proportion to
    |log gammainc| and to beta: about 1e-14 absolute at the two limits,
    against 1e-12 at beta = 650. Below the floor (y = 0 included) the
    series needs at most about a dozen terms."""
    out = np.empty(beta.shape)
    idx = (beta <= _GAMMAINC_MAX_SHAPE).nonzero()[0]
    bg = beta.take(idx)
    p = gammainc(bg, y.take(idx))
    ok = p > _GAMMAINC_FLOOR
    g = idx[ok]
    out[g] = lg.take(g) + np.log(p[ok]) - bg[ok] * log_y.take(g)
    if len(g) < len(beta):
        ser = np.ones(beta.shape, dtype=bool)
        ser[g] = False
        out[ser] = _series_log_ratio(beta[ser], y[ser])
    return out


def log_inc_gamma_ratio_pair(beta, y, log_y, lg0, lg1,
                             ) -> tuple[np.ndarray, np.ndarray]:
    """log_inc_gamma_ratio at beta and at beta+1, over 1-D arrays with
    beta > 0 and y >= 0, given log y and gammaln at both shapes, for one
    incomplete-gamma evaluation per entry.

    Each side evaluates one shape and derives the other by a recurrence
    whose terms are all positive (DLMF 8.8):
    - y >= beta+1: Q = gammaincc(beta, y), and Q(beta+1, y) = Q +
      y^beta e^-y / Gamma(beta+1); both go through log1p(-Q);
    - y < beta+1: `_lower_log_ratio` at beta+1 (gammainc, or the series),
      and the ratio at beta from F(beta) = (e^-y + y F(beta+1)) / beta,
      where F = e^ratio.
    y = inf with a finite log y gives the limit gammaln - shape log y on
    both shapes, and y = 0 with log y = -inf gives -log of each shape.
    """
    r0, r1 = np.empty(beta.shape), np.empty(beta.shape)
    up = y >= beta + 1.0
    iu = up.nonzero()[0]
    b, yu, lyu = beta.take(iu), y.take(iu), log_y.take(iu)
    lg1u = lg1.take(iu)
    q0 = gammaincc(b, yu)
    e = b * lyu
    q1 = q0 + np.exp(e - yu - lg1u)
    r0[iu] = lg0.take(iu) + np.log1p(-q0) - e
    r1[iu] = lg1u + np.log1p(-q1) - e - lyu
    il = (~up).nonzero()[0]
    b, yl, lyl = beta.take(il), y.take(il), log_y.take(il)
    r1l = _lower_log_ratio(b + 1.0, yl, lyl, lg1.take(il))
    r1[il] = r1l
    # log(e^-y + y F(beta+1)): y F(beta+1) e^y grows with y to less than
    # 2 + sqrt(2 beta) at y = beta+1, so the exp cannot overflow
    r0[il] = np.log1p(np.exp(lyl + r1l + yl)) - yl - np.log(b)
    return r0, r1


def log_inc_gamma_ratio(beta, x) -> np.ndarray:
    """log[gamma(beta, x) / x^beta] = log int_0^1 s^(beta-1) e^(-x s) ds,
    elementwise over broadcast arrays with beta > 0 and x >= 0: the first
    value of log_inc_gamma_ratio_pair, for callers that hold no log x or
    gammaln of their own."""
    beta, x = np.broadcast_arrays(np.asarray(beta, dtype=float),
                                  np.asarray(x, dtype=float))
    shape = beta.shape
    beta, x = beta.ravel(), x.ravel()
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    return log_inc_gamma_ratio_pair(beta, x, log_x, gammaln(beta),
                                    gammaln(beta + 1.0))[0].reshape(shape)
