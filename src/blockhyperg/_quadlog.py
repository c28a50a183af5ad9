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
integral. A batch shares the integrand call: each scan move, end-walk step
and refinement pass evaluates the nodes of every integral still open in
one call. Its bookkeeping is array operations over the batch, a fixed
number of numpy calls per scan move, walk step or pass whatever the batch
size: the scans are one (M, 61, K) array, the walking ends one (W, 2, K)
array, and the open integrals' panels one table, a row per integral. Each
integral keeps its own scan window, cut and ends, panels, split rule and
convergence test, and every reduction runs along its own row in the order
the integral would meet alone. So an integral gets the same nodes and
values in a batch as alone, and the one-integral forms are batches of one.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_PANELS = 2048
_FIRST_PANELS = 4  # per interval between the ends and the seed points
_FIRST = np.arange(_FIRST_PANELS + 1.0)
_SCAN = np.arange(61.0)  # the bracket's scan points, one unit apart
_SCAN_I = np.arange(61)
# the two sides of a scan, low and high, for the bracket's ends: a point i
# lies on a side where _SIDE (i - bound) <= _INSIDE, _KEY ranks the side's
# points from its edge inwards, and _EDGE + _SIDE key maps a key back to i
_SIDE = np.array([[1], [-1]])
_INSIDE = np.array([[-1], [0]])
_KEY = np.array([_SCAN_I, 60 - _SCAN_I])
_EDGE = np.array([0, 60])
_WALK = np.array([-20.0, 20.0])  # an end-walk step at each end

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
    integral: two arrays of shape (npanels, K). Call under
    np.errstate(divide="ignore"): a panel where the integrand underflows
    gives -inf."""
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * KRONROD_NODES
    vals = logf(nodes.ravel(), idx)
    vals = vals.reshape(len(a), len(KRONROD_NODES), -1)
    top = vals.max(axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    scaled = np.exp(vals - top[:, None, :])
    shift = top + np.log(half)[:, None]
    kron = np.log(np.einsum("pnc,n->pc", scaled, KRONROD_WEIGHTS))
    gauss = np.log(np.einsum("pnc,n->pc", scaled[:, 1::2], GAUSS_WEIGHTS))
    return kron + shift, gauss + shift


def _table(n: int, width: int, k: int) -> tuple[np.ndarray, ...]:
    """An empty panel table: edges a and b of shape (n, width), and the
    Kronrod and Gauss values of shape (n, width, k), all -inf."""
    vals = np.full((n, width, k), -np.inf)
    return np.empty((n, width)), np.empty((n, width)), vals, vals.copy()


def _integrals(logf, lo, hi, rtol: float, seed_points,
               ) -> tuple[np.ndarray, np.ndarray]:
    """The batched form of adaptive_log_integral: (M, K) arrays of log
    integrals and error estimates.

    The open integrals' panels are one table: a row per integral, a slot
    per panel, and -inf values after a row's last panel, which add exact
    zeros to its sums. A row holds its kept panels in their former order,
    then the left and then the right halves of the panels it split: the
    order of one integral's panel lists alone, so each sum along a row
    meets the same terms in the same order.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not (hi > lo).all():
        raise ValueError("empty interval")
    n = len(lo)
    # the first pass: _FIRST_PANELS equal panels in each interval between
    # the ends and the seed points strictly inside them; a seed point
    # elsewhere is moved onto lo, where it bounds an empty interval
    pts = [lo]
    for s in seed_points:
        s = np.asarray(s, dtype=float)
        pts.append(np.where((lo < s) & (s < hi), s, lo))
    pts.append(hi)
    pts = np.array(pts)
    pts.sort(axis=0)
    start, stop = pts[:-1].T, pts[1:].T
    # np.linspace(start, stop, _FIRST_PANELS + 1), interval by interval
    edges = (_FIRST * ((stop - start) / _FIRST_PANELS)[..., None]
             + start[..., None])
    edges[..., -1] = stop
    live = stop > start
    if live.all():  # the same panel count in every row
        new_a = edges[..., :-1].reshape(n, -1)
        new_b = edges[..., 1:].reshape(n, -1)
        n_alive = np.full(n, new_a.shape[1])
        new_row = new_slot = None
    else:
        new_a = edges[..., :-1][live].ravel()
        new_b = edges[..., 1:][live].ravel()
        n_alive = _FIRST_PANELS * live.sum(axis=1)
        new_row = np.repeat(np.arange(n), n_alive)
        new_slot = np.arange(len(new_a)) - np.repeat(np.cumsum(n_alive)
                                                     - n_alive, n_alive)
    rows = np.arange(n)  # the integral of each table row
    values = errors = tab_k = None
    with np.errstate(divide="ignore"):
        for n_pass in range(61):
            # the new panels of every open integral, from one call of logf
            owner = (rows.repeat(new_a.shape[1]) if new_row is None
                     else rows[new_row])
            kron, gauss = _kronrod_panels(logf, new_a.ravel(), new_b.ravel(),
                                          owner.repeat(len(KRONROD_NODES)))
            if new_slot is None:
                tab_a, tab_b = new_a, new_b
                tab_k = kron.reshape(n, -1, kron.shape[1])
                tab_g = gauss.reshape(tab_k.shape)
            else:
                if tab_k is None:
                    tab_a, tab_b, tab_k, tab_g = _table(
                        n, int(n_alive.max()), kron.shape[1])
                tab_a[new_row, new_slot] = new_a
                tab_b[new_row, new_slot] = new_b
                tab_k[new_row, new_slot] = kron
                tab_g[new_row, new_slot] = gauss
            if n_pass == 60:
                break
            top = tab_k.max(axis=1, keepdims=True)
            top = np.where(np.isfinite(top), top, 0.0)
            total = np.log(np.exp(tab_k - top).sum(axis=1, keepdims=True))
            total += top
            err_p = np.abs(np.exp(tab_k - total) - np.exp(tab_g - total))
            err = err_p.sum(axis=1)
            done = (err <= rtol).all(axis=1)
            if done.any():
                if values is None:
                    if done.all():  # rows is every integral, in order
                        return total[:, 0], err
                    values, errors = np.empty(err.shape), np.empty(err.shape)
                values[rows[done]] = total[done, 0]
                errors[rows[done]] = err[done]
                if done.all():
                    return values, errors
                keep = ~done
                rows, n_alive, err, err_p = (rows[keep], n_alive[keep],
                                             err[keep], err_p[keep])
                tab_a, tab_b, tab_k, tab_g = (tab_a[keep], tab_b[keep],
                                              tab_k[keep], tab_g[keep])
            # a panel with a NaN error is never split, and only NaN leaves
            # nothing to split while the sum is above rtol
            split = err_p.max(axis=2) > (rtol / n_alive)[:, None]
            n_split = split.sum(axis=1)
            bad = (n_split == 0) | (n_alive + n_split > _MAX_PANELS)
            if bad.any():
                j = int(bad.argmax())
                raise NoConvergence(
                    f"1-D quadrature did not reach rtol={rtol:g} "
                    f"(err={err[j].max():g}, panels={n_alive[j]})")
            last = err
            # split ranks along each row: a kept panel moves left by the
            # splits before it, and a split one's halves go to the end
            ranks = split.cumsum(axis=1)
            kept = ~split & (np.arange(split.shape[1]) < n_alive[:, None])
            r_k, c_k = np.nonzero(kept)
            r_s, c_s = np.nonzero(split)
            n_keep = n_alive - n_split
            n_alive = n_alive + n_split
            moved = _table(len(rows), int(n_alive.max()), tab_k.shape[2])
            to_k = c_k - ranks[r_k, c_k]
            for new, old in zip(moved, (tab_a, tab_b, tab_k, tab_g)):
                new[r_k, to_k] = old[r_k, c_k]
            a_s, b_s = tab_a[r_s, c_s], tab_b[r_s, c_s]
            tab_a, tab_b, tab_k, tab_g = moved
            mid = 0.5 * (a_s + b_s)
            slot_l = n_keep[r_s] + ranks[r_s, c_s] - 1
            new_a = np.concatenate([a_s, mid])
            new_b = np.concatenate([mid, b_s])
            new_row = np.concatenate([r_s, r_s])
            new_slot = np.concatenate([slot_l, slot_l + n_split[r_s]])
    # the first integral still open names its own error and panel count
    raise NoConvergence(
        f"1-D quadrature did not reach rtol={rtol:g} "
        f"(err={last[0].max():g}, panels={n_alive[0]})")


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
        return _integrals(logf, lo, hi, rtol, seed_points)
    shape = []

    def one(x, _):
        vals = logf(x)
        shape[:] = vals.shape[1:]
        return vals.reshape(len(x), -1)
    val, err = _integrals(one, [lo], [hi], rtol, seed_points)
    if shape:
        return val[0], err[0]
    return float(val[0, 0]), float(err[0, 0])


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
        return _brackets(logf, x_c)
    lo, hi, peak = _brackets(lambda x, _: logf(x), [x_c])
    return float(lo[0]), float(hi[0]), float(peak[0])


def _brackets(logf, x_c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batched form of peak_bracket: arrays of lo, hi and the peak.

    Each scan move evaluates the 61 points of every integral still moving,
    and each end-walk step both ends of every integral still walking, as
    one (integrals, points, K) array of values."""
    x_c = np.array(x_c, dtype=float)
    n = len(x_c)
    moving = np.arange(n)
    grids = None
    for _ in range(40):
        # np.linspace(x_c - 30, x_c + 30, 61) for each integral moving
        lo, hi = x_c[moving] - 30.0, x_c[moving] + 30.0
        grid = _SCAN * ((hi - lo) / 60.0)[:, None] + lo[:, None]
        grid[:, -1] = hi
        vals = logf(grid.ravel(), moving.repeat(61)).reshape(
            len(moving), 61, -1)
        i_pk = np.where(np.isnan(vals), -np.inf, vals).argmax(axis=1)
        found = i_pk[:, 0] % 60 != 0  # column 0 peaks inside the window
        if grids is None:
            if found.all():
                grids, scans, peaks = grid, vals, i_pk
                break
            grids, scans = np.empty(grid.shape), np.empty(vals.shape)
            peaks = np.empty(i_pk.shape, dtype=np.intp)
        on = moving[found]
        grids[on], scans[on], peaks[on] = grid[found], vals[found], i_pk[found]
        up = i_pk[~found, 0] == 60
        moving = moving[~found]
        if not moving.size:
            break
        x_c[moving] += np.where(up, 30.0, -30.0)
    else:
        raise NoConvergence(
            f"integrand still rising at x = {x_c[moving[0]]:g}")

    every = np.arange(n)[:, None]
    cut = scans[every, peaks, np.arange(scans.shape[2])] - 60.0
    # each side's scan point nearest the peaks where every column is below
    # its cut: the last one below every column's peak and the first one
    # above them all. An end without one falls back to the scan's edge,
    # where it is not negligible, and walks.
    neg = (scans < cut[:, None, :]).all(axis=2)[:, None, :]
    bound = np.array([peaks.min(axis=1), peaks.max(axis=1)]).T[..., None]
    side = neg & (_SIDE * (_SCAN_I - bound) <= _INSIDE)
    key = np.where(side, _KEY, -1).max(axis=2)
    done = key >= 0
    ends = grids[every, _EDGE + _SIDE[..., 0] * np.maximum(key, 0)]
    peak = grids[every[:, 0], peaks[:, 0]]
    walking = np.flatnonzero(~done.all(axis=1))
    for _ in range(80):
        if not walking.size:
            break
        e = ends[walking]
        e = np.where(done[walking], e, e + _WALK)
        ends[walking] = e
        vals = logf(e.ravel(), walking.repeat(2)).reshape(len(walking), 2,
                                                          -1)
        step = np.all(vals < cut[walking][:, None, :], axis=2)
        done[walking] = step
        walking = walking[~step.all(axis=1)]
    if walking.size:
        lo, hi = ends[walking[0]]
        raise NoConvergence(
            f"integrand still above its peak - 60 at x in [{lo:g}, {hi:g}]")
    return ends[:, 0], ends[:, 1], peak
