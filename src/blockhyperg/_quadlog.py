"""Log-space composite Gauss-Legendre quadrature helpers.

All integrands handled here are strictly positive and are supplied as
vectorized callables returning log f(x), either one value per point or a
row of K values per point for K integrals that share the bracket and the
panels. Integrals are accumulated with log-sum-exp so that values far
outside double range are representable.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_PANELS = 2048
_N_NODES = 12  # GL nodes per panel; the error estimate uses twice as many


def gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = _GL_CACHE.get(n)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = rule
    return rule


def panel_nodes(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log-weights for composite GL on the given panel edges.

    Returns arrays of shape (npanels, n).
    """
    x, w = gl_rule(n)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo) + half * x[None, :]
    logw = np.log(w)[None, :] + np.log(half)
    return nodes, logw


def logsumexp(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """log sum exp(v) along one axis, shifted by the maximum.

    A row of all -inf gives -inf, a +inf entry gives +inf and a NaN gives
    NaN, as in scipy.special.logsumexp, without its per-call dispatch cost.
    """
    top = np.max(v, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(v - top), axis=axis, keepdims=True))
    return np.squeeze(out + top, axis=axis)


def _panel_log_integrals(logf, edges: np.ndarray, n: int) -> np.ndarray:
    """log integral over each panel: shape (npanels,), or (npanels, K)
    when logf returns K columns."""
    nodes, logw = panel_nodes(edges, n)
    vals = logf(nodes.ravel())
    vals = vals.reshape(nodes.shape + vals.shape[1:])
    if vals.ndim == 3:
        logw = logw[..., None]
    return logsumexp(vals + logw, axis=1)


def adaptive_log_integral(
    logf,
    lo: float,
    hi: float,
    *,
    rtol: float = 1e-12,
    seed_points: tuple[float, ...] = (),
):
    """log of integral of exp(logf) over [lo, hi], with an error estimate.

    logf maps N points to N values, or to an (N, K) array of K integrands
    that share one panel set; the result is then a pair of length-K arrays
    (log integrals and relative error estimates), and a pair of floats for
    the scalar form. Panels are split where low- and high-order GL rules
    disagree, on the largest of a panel's K relative discrepancies, until
    every column's estimate is within rtol. seed_points are inserted as
    initial panel edges (peak/kink locations known a priori).
    """
    if not hi > lo:
        raise ValueError("empty interval")
    pts = [lo, hi]
    for s in seed_points:
        if lo < s < hi:
            pts.append(s)
    pts = np.unique(np.asarray(pts, dtype=float))
    edges = []
    for i in range(len(pts) - 1):
        edges.append(np.linspace(pts[i], pts[i + 1], 9)[:-1])
    edges = np.concatenate(edges + [pts[-1:]])

    for _ in range(60):
        lo_est = _panel_log_integrals(logf, edges, _N_NODES)
        hi_est = _panel_log_integrals(logf, edges, 2 * _N_NODES)
        scalar = lo_est.ndim == 1
        lo_est = lo_est.reshape(len(lo_est), -1)
        hi_est = hi_est.reshape(len(hi_est), -1)
        total = logsumexp(hi_est, axis=0)
        # per-panel discrepancy relative to each column's total
        err_p = np.abs(np.exp(lo_est - total) - np.exp(hi_est - total))
        err = err_p.sum(axis=0)
        if np.all(err <= rtol):
            if scalar:
                return float(total[0]), float(err[0])
            return total, err
        if len(edges) - 1 >= _MAX_PANELS:
            break
        err_p = err_p.max(axis=1)
        bad = err_p > max(rtol / max(len(err_p), 1), 1e-17)
        order = np.argsort(err_p)[::-1]
        split = [i for i in order if bad[i]][: max(1, len(err_p) // 3)]
        mids = 0.5 * (edges[:-1] + edges[1:])
        edges = np.sort(np.concatenate([edges, mids[split]]))
    raise NoConvergence(
        f"1-D quadrature did not reach rtol={rtol:g} (err={err.max():g}, "
        f"panels={len(edges) - 1})"
    )


def peak_bracket(logf, x_c: float) -> tuple[float, float, float]:
    """Interval outside which exp(logf) is below e^-60 of its peak, for a
    unimodal log-integrand, and the highest point of a unit-step scan as a
    seed point for the panels.

    logf may return an (N, K) array of K integrands, as for
    adaptive_log_integral. The interval then covers them all, and the seed
    point is the first column's peak.

    The scan covers x_c +- 30 and moves by 30 while column 0's highest
    point is at an edge. It follows column 0 only: another column may peak
    hundreds of units away (J(0) near log(1/delta), a J(e_i) far below),
    and a window that waits for every peak swings between them. A column's
    cut is its highest scanned value - 60, at or below its true peak - 60,
    and the ends walk out until every column is below its cut, so by
    unimodality every column is negligible outside the interval. A NaN
    value counts as not negligible. Raises NoConvergence when 40 moves do
    not find column 0's peak, or 80 steps of 20 (a tail as slow as
    e^(-0.04 |x|)) do not reach a negligible end.
    """
    for _ in range(40):
        grid = np.linspace(x_c - 30.0, x_c + 30.0, 61)
        vals = logf(grid).reshape(61, -1)
        i_pk = np.argmax(np.where(np.isnan(vals), -np.inf, vals), axis=0)
        if 0 < i_pk[0] < 60:
            break
        x_c += 30.0 if i_pk[0] == 60 else -30.0
    else:
        raise NoConvergence(f"integrand still rising at x = {x_c:g}")
    x_pk = float(grid[i_pk[0]])
    f_cut = vals[i_pk, np.arange(vals.shape[1])] - 60.0

    def negligible(v: np.ndarray) -> np.ndarray:
        return np.all(v.reshape(len(v), -1) < f_cut, axis=1)

    # the scan's last negligible points on each side, where it has them
    neg = negligible(vals)
    i_lo, i_hi = int(i_pk.min()), int(i_pk.max())
    low = np.flatnonzero(neg[:i_lo])
    high = np.flatnonzero(neg[i_hi:])
    lo = float(grid[low[-1]]) if low.size else x_c - 30.0
    hi = float(grid[i_hi + high[0]]) if high.size else x_c + 30.0
    for _ in range(80):
        done = negligible(logf(np.array([lo, hi])))
        if done.all():
            return lo, hi, x_pk
        if not done[0]:
            lo -= 20.0
        if not done[1]:
            hi += 20.0
    raise NoConvergence(
        f"integrand still above its peak - 60 at x in [{lo:g}, {hi:g}]")
