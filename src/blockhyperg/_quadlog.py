"""Log-space adaptive Gauss-Kronrod quadrature and its peak bracket.

All integrands handled here are strictly positive and are supplied as
vectorized callables returning log f(x), either one value per point or a
row of K values per point for K integrals that share the bracket and the
panels. Integrals are accumulated with log-sum-exp so that values far
outside double range are representable.

Each panel takes the nested Gauss-Kronrod 10/21 pair of QUADPACK (Piessens
et al. 1983): the 21 Kronrod nodes give the high-order value, and the ten
Gauss nodes among them give the low-order value that estimates its error,
so the estimate costs no extra evaluation. A converged panel is kept;
refinement evaluates only the halves of the panels it splits.

peak_bracket and adaptive_log_integral also take M independent integrals
at once, through an integrand logf(x, idx) that is told each node's
integral. What a batch shares is the integrand call: each scan move,
end-walk step and refinement pass evaluates the nodes of every integral
still open in one call. Everything else is per integral: its scan window,
cut and ends, its panels, split rule and convergence test. So an integral
gets the same nodes and values in a batch as alone, and the one-integral
forms are batches of one.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_PANELS = 2048
_FIRST_PANELS = 4  # per interval between the ends and the seed points

# Gauss-Kronrod 10/21 on [-1, 1], the non-negative nodes from 1 down to 0
# (QUADPACK qk21); the odd entries are the 10-point Gauss nodes
_XK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980029535, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG_HALF = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# the 21 nodes in ascending order; the Gauss nodes sit at odd indices
KRONROD_NODES = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
GAUSS_WEIGHTS = np.concatenate([_WG_HALF, _WG_HALF[::-1]])


def gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = _GL_CACHE.get(n)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = rule
    return rule


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


def _kronrod_panels(logf, a: np.ndarray, b: np.ndarray, idx: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """log Kronrod and log Gauss integrals over the panels [a_j, b_j], from
    one call of logf on their 21 nodes each, idx naming each node's
    integral: two arrays of shape (npanels, K)."""
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * KRONROD_NODES
    vals = logf(nodes.ravel(), idx)
    vals = vals.reshape(len(a), len(KRONROD_NODES), -1)
    top = np.max(vals, axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    scaled = np.exp(vals - top[:, None, :])
    shift = top + np.log(half)[:, None]
    with np.errstate(divide="ignore"):
        kron = np.log(np.einsum("pnc,n->pc", scaled, KRONROD_WEIGHTS))
        gauss = np.log(np.einsum("pnc,n->pc", scaled[:, 1::2],
                                 GAUSS_WEIGHTS))
    return kron + shift, gauss + shift


def _integrals(logf, lo, hi, rtol: float, seed_points) -> list:
    """The batched form of adaptive_log_integral: a (log integrals, error
    estimates) pair of length-K arrays per integral."""
    new = []  # per integral still open: the panels to evaluate next
    for j in range(len(lo)):
        if not hi[j] > lo[j]:
            raise ValueError("empty interval")
        pts = [lo[j], hi[j]]
        for s in seed_points:
            s = s[j] if np.ndim(s) else s
            if lo[j] < s < hi[j]:
                pts.append(s)
        pts = np.unique(np.asarray(pts, dtype=float))
        edges = np.concatenate(
            [np.linspace(pts[i], pts[i + 1], _FIRST_PANELS + 1)[:-1]
             for i in range(len(pts) - 1)] + [pts[-1:]])
        new.append((j, edges[:-1], edges[1:]))
    kept = {}  # per integral still open: the panels it keeps, with values
    out = [None] * len(lo)
    for n_pass in range(61):
        # the new panels of every open integral, from one call of logf
        sizes = [len(a) for _, a, _ in new]
        kron, gauss = _kronrod_panels(
            logf, np.concatenate([a for _, a, _ in new]),
            np.concatenate([b for _, _, b in new]),
            np.array([j for j, _, _ in new]).repeat(
                [len(KRONROD_NODES) * n for n in sizes]))
        start = 0
        for (j, a, b), size in zip(new, sizes):
            k, g = kron[start:start + size], gauss[start:start + size]
            start += size
            if j in kept:
                old_a, old_b, old_k, old_g = kept[j]
                a, b = np.concatenate([old_a, a]), np.concatenate([old_b, b])
                k, g = np.concatenate([old_k, k]), np.concatenate([old_g, g])
            kept[j] = a, b, k, g
        if n_pass == 60:
            break
        new = []
        for j, (a, b, k, g) in list(kept.items()):
            total = logsumexp(k, axis=0)
            err_p = np.abs(np.exp(k - total) - np.exp(g - total))
            err = err_p.sum(axis=0)
            if np.all(err <= rtol):
                out[j] = total, err
                del kept[j]
                continue
            # a panel with a NaN error is never split, and only NaN leaves
            # nothing to split while the sum is above rtol
            split = err_p.max(axis=1) > rtol / len(a)
            n_split = np.count_nonzero(split)
            if n_split == 0 or len(a) + n_split > _MAX_PANELS:
                raise NoConvergence(
                    f"1-D quadrature did not reach rtol={rtol:g} "
                    f"(err={np.max(err):g}, panels={len(a)})")
            mid = 0.5 * (a[split] + b[split])
            new.append((j, np.concatenate([a[split], mid]),
                        np.concatenate([mid, b[split]])))
            keep = ~split
            kept[j] = a[keep], b[keep], k[keep], g[keep]
            last = err, len(a) + n_split
        if not new:
            return out
    raise NoConvergence(
        f"1-D quadrature did not reach rtol={rtol:g} "
        f"(err={np.max(last[0]):g}, panels={last[1]})")


def adaptive_log_integral(
    logf,
    lo,
    hi,
    *,
    rtol: float = 1e-12,
    seed_points: tuple = (),
):
    """log of integral of exp(logf) over [lo, hi], with an error estimate.

    One integral: lo and hi are floats and logf maps N points to N values,
    or to an (N, K) array of K integrands that share one panel set; the
    result is then a pair of length-K arrays (log integrals and relative
    error estimates), and a pair of floats for the scalar form.

    M integrals: lo and hi are arrays of length M, each seed point is a
    float or an array of length M, and logf(x, idx) maps N points and the
    index of each point's integral to an (N, K) array. The result is a
    pair of (M, K) arrays. Every pass evaluates the new nodes of all open
    integrals in one call of logf; everything else is per integral (its
    panels, split rule and convergence test), so each integral gets the
    nodes and the values it gets alone.

    The first pass puts 4 equal panels in each interval between lo, hi and
    the seed_points (peak or kink locations known a priori): 168 nodes for
    one seed point. A panel's error is |Kronrod - Gauss| relative to each
    column's total, and the estimate is its sum over the panels. Until
    every column's estimate is within rtol, each pass halves every panel
    whose largest error exceeds rtol / (number of panels), evaluates only
    the halves, and keeps every other panel as it is.
    """
    if np.ndim(lo) > 0:
        out = _integrals(logf, lo, hi, rtol, seed_points)
        return (np.array([v for v, _ in out]), np.array([e for _, e in out]))
    shape = []

    def one(x, _):
        vals = logf(x)
        shape[:] = vals.shape[1:]
        return vals
    val, err = _integrals(one, [lo], [hi], rtol, seed_points)[0]
    if shape:
        return val, err
    return float(val[0]), float(err[0])


def peak_bracket(logf, x_c):
    """Interval outside which exp(logf) is below e^-60 of its peak, for a
    unimodal log-integrand, and the highest point of a unit-step scan as a
    seed point for the panels.

    logf may return an (N, K) array of K integrands, as for
    adaptive_log_integral. The interval then covers them all, and the seed
    point is the first column's peak. With an array of M centers x_c, logf
    takes the index of each point's integral too, as for
    adaptive_log_integral, and the result is three arrays of length M:
    every scan move and every end-walk step evaluates the points of all
    integrals still moving or walking in one call of logf.

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
    if np.ndim(x_c) > 0:
        return tuple(np.array(v) for v in zip(*_brackets(logf, list(x_c))))
    return _brackets(lambda x, _: logf(x), [x_c])[0]


def _brackets(logf, x_c: list) -> list[tuple[float, float, float]]:
    """The batched form of peak_bracket: (lo, hi, peak) per integral."""
    scans = [None] * len(x_c)
    moving = list(range(len(x_c)))
    for _ in range(40):
        grids = [np.linspace(x_c[j] - 30.0, x_c[j] + 30.0, 61)
                 for j in moving]
        vals = logf(np.concatenate(grids), np.array(moving).repeat(61))
        vals = vals.reshape(len(moving), 61, -1)
        still = []
        for j, grid, v in zip(moving, grids, vals):
            i_pk = np.argmax(np.where(np.isnan(v), -np.inf, v), axis=0)
            if 0 < i_pk[0] < 60:
                scans[j] = grid, v, i_pk
            else:
                x_c[j] += 30.0 if i_pk[0] == 60 else -30.0
                still.append(j)
        moving = still
        if not moving:
            break
    else:
        raise NoConvergence(
            f"integrand still rising at x = {x_c[moving[0]]:g}")

    ends, cuts, done = [], [], []
    for j, (grid, v, i_pk) in enumerate(scans):
        cut = v[i_pk, np.arange(v.shape[1])] - 60.0
        # the scan's last negligible points on each side, where it has
        # them; an end that falls back to the scan's edge is not
        # negligible there
        neg = np.all(v < cut, axis=1)
        i_lo, i_hi = int(i_pk.min()), int(i_pk.max())
        low = np.flatnonzero(neg[:i_lo])
        high = np.flatnonzero(neg[i_hi:])
        ends.append([float(grid[low[-1]]) if low.size else x_c[j] - 30.0,
                     float(grid[i_hi + high[0]]) if high.size
                     else x_c[j] + 30.0, float(grid[i_pk[0]])])
        cuts.append(cut)
        done.append([low.size > 0, high.size > 0])
    walking = [j for j in range(len(x_c)) if not all(done[j])]
    at = np.array(walking, dtype=np.intp).repeat(2)
    for _ in range(80):
        if not walking:
            break
        for j in walking:
            if not done[j][0]:
                ends[j][0] -= 20.0
            if not done[j][1]:
                ends[j][1] += 20.0
        vals = logf(np.array([ends[j][i] for j in walking for i in (0, 1)]),
                    at).reshape(len(walking), 2, -1)
        for j, v in zip(walking, vals):
            done[j] = np.all(v < cuts[j], axis=1).tolist()
        if any(all(done[j]) for j in walking):
            walking = [j for j in walking if not all(done[j])]
            at = np.array(walking, dtype=np.intp).repeat(2)
    if walking:
        lo, hi, _ = ends[walking[0]]
        raise NoConvergence(
            f"integrand still above its peak - 60 at x in [{lo:g}, {hi:g}]")
    return [tuple(e) for e in ends]
