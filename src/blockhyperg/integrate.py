"""k-dimensional shrinkage-posterior integrals.

Everything here evaluates members of the family

    J(e) = int over (0,1)^k of  prod_i s_i^(b_i + e_i) * (delta + sum_i rho_i s_i)^(-m) ds

in log space, where s_i = 1 - t_i, rho_i is the block R_i^2, and
delta = 1 - sum_i rho_i. e = 0 gives the Bayes-factor integral; e = unit
vector i gives the numerator of E[s_i | y] (so the block shrinkage is
t_mean[i] = 1 - J(e_i)/J(0)). Working in the s coordinates keeps the coupling
term delta + rho.s exact even when individual R_i^2 round to 1. The sigma^2
posteriors of blockprior.Sigma2Density are members too: their normalizer
is J(0) with b_j = nu_j - 1, and their mean is linear in the J(e_j)/J(0).

The library computes them with block_integrals_gamma1d for every k: a
gamma mixture over a radial scale lam reduces each J(e) to one integral
over log lam, whose integrand is a product of lower incomplete gammas.
J(0) and the k integrals J(e_i) differ only in one shape each, beta_i or
beta_i + 1, so all k+1 are one vector-valued integral on one bracket and
one panel set, and each node's axis takes both of its shapes from one
incomplete gamma (special.log_inc_gamma_ratio_pair).
block_integrals_gamma1d_batch takes many models, of mixed k, at once, as
(M, K) arrays of b_i and rho_i and (M,) arrays of delta and m; a model of
fewer axes is padded with b_i = rho_i = 0, and an axis with rho_i = 0 is
inactive. The models share every call of the integrand (one
incomplete-gamma call for all their nodes per bracket scan, end-walk step
and quadrature pass) and the array bookkeeping of `_quadlog`; the
propriety test and the fold of the inactive axes are array steps too.
Each model keeps its own centre, bracket, panels, convergence test and
node count, so it gets the values it gets alone, and the results come
back as arrays. block_integrals_gamma1d is its batch of one.
Graded-panel tensor Gauss-Legendre (block_integrals_quadrature, k <= 3)
and randomized scrambled-Sobol QMC (block_integrals_qmc) stay as
references for the tests. The tensor one is independent of the gamma
mixture; the QMC one shares its incomplete-gamma evaluator
(special.log_inc_gamma_ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from . import kernels
from ._quadlog import adaptive_log_integral, gl_rule, peak_bracket
from .errors import DomainError, IntegralDiverges, NoConvergence
from .special import log_inc_gamma_ratio, log_inc_gamma_ratio_pair

_TENSOR_BUDGET = 10**6  # the tensor reference escalates below this many evals
_QMC_POINTS = 2**16  # Sobol points per randomization of the QMC reference
_QMC_RANDOMIZATIONS = 32


@dataclass(frozen=True)
class BlockIntegrals:
    """log J(0), per-axis log J(e_i), and bookkeeping: of one model, or
    from a batch of M, as (M,) arrays and an (M, K) log_i_axis."""

    log_i0: float | np.ndarray
    log_i_axis: np.ndarray
    error: float | np.ndarray
    n_evals: int | np.ndarray
    method: str

    @property
    def s_mean(self) -> np.ndarray:
        return np.exp(self.log_i_axis - np.asarray(self.log_i0)[..., None])

    @property
    def t_mean(self) -> np.ndarray:
        return 1.0 - self.s_mean


def _char_scales(bpow: np.ndarray, rho: np.ndarray, delta: np.ndarray,
                 m: np.ndarray) -> list[np.ndarray]:
    """Characteristic s scale per axis (conditional Beta-prime mean), for
    each row of the (M, K) arrays bpow and rho, with that row's delta and
    m: one array per model, over its axes with rho > 0.

    Gauss-Seidel sweeps of s_i = min(1, (b_i+1) (delta + sum_(j != i)
    rho_j s_j) / (rho_i max(m-b_i-1, b_i+1))) until a sweep moves no s_i
    by more than 1e-3 relative; each model stops at its own last sweep.
    The sweeps are scalar arithmetic, model by model. Sweeping all models
    as arrays costs some ten numpy calls per axis step and sweep, whatever
    the batch: measured on the CLI block fits, a model alone took about
    76 us that way against 19 us here, while a batch of 256 saved about
    15 us per model.
    """
    out = []
    for b, r, d, mm in zip(bpow, rho, delta.tolist(), m.tolist()):
        act = r > 0.0
        r, b = r[act], b[act]
        num = (b + 1.0).tolist()
        den = (r * np.maximum(mm - b - 1.0, num)).tolist()
        r_f = r.tolist()
        s = np.ones(len(r))
        # iterate to convergence: at tiny delta the fixed point is O(delta),
        # so a capped iteration count would leave the grids orders of
        # magnitude above the ridge that carries the mass
        for _ in range(400):
            settled = True
            for i in range(len(r)):
                old = float(s[i])
                de = d + float(r @ s) - r_f[i] * old
                s[i] = new = min(1.0, num[i] * max(de, 1e-300) / den[i])
                settled &= abs(new - old) <= 1e-3 * abs(new)
            if settled:
                break
        out.append(s)
    return out


def _axis_edges(q: float, rho_i: float, de_i: float, m: float,
                refine: float) -> np.ndarray:
    """Panel edges in x = log s for one axis.

    The 1-D profile is exp((q+1) x - m log(de_i + rho_i e^x)): exponential
    rise at rate q+1 below the kick scale, fall at up to rate m-(q+1) above.
    Panel lengths track the local rate so fixed-order GL stays accurate.
    """
    beta = q + 1.0
    drop = 46.0
    plen = min(6.0 / beta, 9.0 / math.sqrt(beta)) / refine
    if m > beta and rho_i > 0:
        s_pk = min(1.0, beta * max(de_i, 1e-300) / (rho_i * (m - beta)))
    else:
        s_pk = 1.0
    x_pk = math.log(s_pk) if s_pk < 1.0 else 0.0
    x_lo = x_pk - drop / beta
    n_below = max(2, math.ceil((x_pk - x_lo) / plen))
    edges = list(np.linspace(x_lo, x_pk, n_below + 1))
    if x_pk < 0.0:
        def g(x: float) -> float:
            return beta * x - m * math.log(de_i + rho_i * math.exp(x))

        def local_rate(x: float) -> float:
            es = rho_i * math.exp(x)
            frac = es / (de_i + es)
            return max(m * frac - beta, math.sqrt(beta), 1.0)

        g_pk = g(x_pk)
        x = x_pk
        while x < 0.0:
            # rate grows through the transition region; correct the step
            # against the rate at its own endpoint
            step = min(6.0 / local_rate(x), 9.0 / math.sqrt(beta))
            for _ in range(3):
                step = min(step, 6.0 / local_rate(x + step))
            x = min(0.0, x + step / refine)
            edges.append(x)
            if g(x) < g_pk - drop - 6.0:
                break
    return np.asarray(edges)


def _axis_nodes(edges: np.ndarray, n_gl: int) -> tuple[np.ndarray, np.ndarray]:
    xg, wg = gl_rule(n_gl)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * xg[None, :]).ravel()
    logw = (np.log(wg)[None, :] + np.log(half)).ravel()
    return nodes, logw


def _tensor_pass(bpow: np.ndarray, rho: np.ndarray, delta: float, m: float,
                 refine: float, n_gl: int) -> tuple[float, np.ndarray, int]:
    k = len(bpow)
    s_char = _char_scales(bpow[None], rho[None], np.array([delta]),
                          np.array([m]))[0]
    nodes_list, logw_list = [], []
    for i in range(k):
        de_i = delta + float(rho @ s_char) - rho[i] * s_char[i]
        edges = _axis_edges(bpow[i], rho[i], de_i, m, refine)
        nd, lw = _axis_nodes(edges, n_gl)
        nodes_list.append(nd)
        logw_list.append(lw)
    sizes = [len(nd) for nd in nodes_list]
    total = int(np.prod(sizes))
    beta = bpow + 1.0

    rest = total // sizes[0]
    batch0 = max(1, 2_000_000 // max(rest, 1))
    part0: list[float] = []
    part_ax: list[list[float]] = [[] for _ in range(k)]
    # grid over axes 1..k-1, built once
    rest_nodes = np.empty((rest, k - 1)) if k > 1 else np.empty((1, 0))
    rest_logw = np.zeros(rest if k > 1 else 1)
    if k > 1:
        grids = np.meshgrid(*nodes_list[1:], indexing="ij")
        wgrids = np.meshgrid(*logw_list[1:], indexing="ij")
        for j in range(k - 1):
            rest_nodes[:, j] = grids[j].ravel()
            rest_logw += wgrids[j].ravel()
    for start in range(0, sizes[0], batch0):
        nb = nodes_list[0][start:start + batch0]
        wb = logw_list[0][start:start + batch0]
        nbatch = len(nb) * rest
        x = np.empty((nbatch, k))
        x[:, 0] = np.repeat(nb, rest)
        if k > 1:
            x[:, 1:] = np.tile(rest_nodes, (len(nb), 1))
        lw = np.repeat(wb, rest) + np.tile(rest_logw, len(nb))
        vals = kernels.log_integrand_logs(
            np.ascontiguousarray(x), beta, rho, delta, m) + lw
        part0.append(float(logsumexp(vals)))
        for i in range(k):
            part_ax[i].append(float(logsumexp(vals + x[:, i])))
    log_i0 = float(logsumexp(part0))
    log_ax = np.array([float(logsumexp(p)) for p in part_ax])
    return log_i0, log_ax, total


def _fold_inactive(bpow: np.ndarray, active: np.ndarray, log_i0: np.ndarray,
                   log_ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reattach the axes with rho_i = 0, which separate into Beta-type
    constants, to integrals over the active axes: over the last axis of
    bpow, active and log_ax, whose active entries hold those integrals'
    log J(e_i)."""
    if active.all():
        return log_i0 + 0.0, log_ax + 0.0
    fold = np.where(active, 0.0, -np.log(bpow + 1.0)).sum(axis=-1)
    log_i0 = log_i0 + fold
    return log_i0, np.where(active, log_ax + fold[..., None],
                            log_i0[..., None] - np.log(bpow + 2.0)
                            + np.log(bpow + 1.0))


def _check_propriety(bpow: np.ndarray, rho: np.ndarray, delta, m) -> None:
    """At delta = 0 the integral is proper iff m < sum(b_i + 1) over the
    axes with rho_i > 0; the others separate (`_fold_inactive`). Over the
    last axis of bpow and rho; raises when any model diverges."""
    active = rho > 0.0
    unit = np.asarray(delta <= 0.0)
    if unit.any() and (unit & active.any(axis=-1) & (
            m >= np.where(active, bpow + 1.0, 0.0).sum(axis=-1))).any():
        raise IntegralDiverges(
            "integral diverges at sum R_i^2 = 1 for this (n, a, p)")


def block_integrals_quadrature(bpow: np.ndarray, rho: np.ndarray,
                               delta: float, m: float, *,
                               rtol: float = 1e-7,
                               ) -> BlockIntegrals:
    """Tensor-product graded quadrature: a test reference for k <= 3 and
    small b_i only. With a large block it can be wrong without raising
    (b = (200.5, 0.5) misses log J(0) by 5e-3). At delta = 0 its grids
    miss mass even where the integral is proper (log J(0) = log 2.5 at
    b = 0.9, rho = 1, m = 1.5 came out 6e-5 low), so it raises DomainError
    there, after IntegralDiverges for the improper case.

    rtol sets the escalation target for the two-pass error estimate;
    loosening it coarsens the starting grid accordingly (replicated
    experiments run thousands of these and do not need 1e-7).
    """
    bpow = np.asarray(bpow, dtype=float)
    rho = np.asarray(rho, dtype=float)
    delta = max(float(delta), 0.0)
    _check_propriety(bpow, rho, delta, m)
    if delta == 0.0:
        raise DomainError("the tensor reference does not serve delta = 0")
    active = rho > 0.0
    k_act = int(active.sum())
    if k_act == 0:
        log_i0, log_ax = _fold_inactive(bpow, active, 0.0,
                                        np.zeros(len(bpow)))
        return BlockIntegrals(float(log_i0), log_ax, 0.0, 0, "quadrature")
    ba, ra = bpow[active], rho[active]
    refine = {1: 3.0, 2: 1.4, 3: 0.8}.get(k_act, 0.8)
    if rtol > 1e-7:
        # observed convergence: coarsening by f costs ~f^15 in accuracy
        refine *= (1e-7 / rtol) ** (1.0 / 15.0)
    n_gl = 10
    fail_at = max(1e-4, rtol)
    # two resolutions; the coarse/fine gap is the error estimate
    for _ in range(3):
        lo0, loax, n1 = _tensor_pass(ba, ra, delta, m, refine / 1.45, n_gl)
        hi0, hiax, n2 = _tensor_pass(ba, ra, delta, m, refine, n_gl)
        err = max(abs(hi0 - lo0), float(np.max(np.abs(hiax - loax))))
        # escalate only if the finer pass would stay inside the budget
        projected = int((n1 + n2) * 1.6 ** k_act)
        if err < rtol or projected > _TENSOR_BUDGET:
            break
        refine *= 1.6
    if err > fail_at:
        raise NoConvergence(
            f"tensor quadrature error estimate {err:.2e} above {fail_at:g} "
            f"after {n1 + n2} evaluations")
    log_ax = np.zeros(len(bpow))
    log_ax[active] = hiax
    log_i0, log_ax = _fold_inactive(bpow, active, hi0, log_ax)
    return BlockIntegrals(float(log_i0), log_ax, err, n1 + n2, "quadrature")


class _AxisProposal:
    """Piecewise-exponential importance proposal on x = log s for one axis.

    Built from the same graded panel edges as the tensor route, with the
    1-D conditional profile exp(beta x - m log(de + rho e^x)) linearly
    interpolated in log space between edge points.
    """

    def __init__(self, edges: np.ndarray, logf: np.ndarray) -> None:
        self.x0 = edges[:-1]
        self.dx = np.diff(edges)
        self.f0 = logf[:-1]
        self.slope = np.diff(logf) / self.dx
        # log mass of each segment: f0 + log((exp(s dx) - 1) / s)
        sdx = self.slope * self.dx
        with np.errstate(divide="ignore", invalid="ignore"):
            logg = np.where(np.abs(sdx) > 1e-8,
                            np.log(np.abs(np.expm1(sdx))
                                   / np.abs(self.slope)),
                            np.log(self.dx) + 0.5 * sdx)
        seg_logmass = self.f0 + logg
        self.log_total = float(logsumexp(seg_logmass))
        w = np.exp(seg_logmass - self.log_total)
        self.cum = np.cumsum(w)
        self.cum[-1] = 1.0
        self.cum_lo = self.cum - w
        self.w = w

    def sample(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map uniforms to x values; also return log q(x) (normalized)."""
        idx = np.clip(np.searchsorted(self.cum, u, side="right"),
                      0, len(self.w) - 1)
        v = (u - self.cum_lo[idx]) / np.maximum(self.w[idx], 1e-300)
        v = np.clip(v, 0.0, 1.0)
        s, dx, x0, f0 = (self.slope[idx], self.dx[idx], self.x0[idx],
                         self.f0[idx])
        sdx = s * dx
        small = np.abs(sdx) <= 1e-8
        with np.errstate(divide="ignore", invalid="ignore"):
            x_off = np.where(small, v * dx,
                             np.log1p(v * np.expm1(sdx)) / np.where(
                                 small, 1.0, s))
        x = x0 + x_off
        logq = f0 + s * x_off - self.log_total
        return x, logq


def block_integrals_qmc(bpow: np.ndarray, rho: np.ndarray, delta: float,
                        m: float, *, seed: int = 0) -> BlockIntegrals:
    """Randomized scrambled-Sobol integration via the gamma-mixture form;
    a test reference.

    (delta + rho.s)^(-m) is written as a gamma mixture over a radial scale
    lam; one Sobol coordinate drives lam through a piecewise-exponential
    proposal fitted to the exact radial profile, and given lam the axes are
    exactly independent truncated gammas. The importance weight then depends
    on lam only, so its variance reflects just the 1-D proposal fit. The
    spread of the _QMC_RANDOMIZATIONS per-randomization means, of
    _QMC_POINTS points each, is the error estimate.
    """
    from scipy.special import gammainc, gammaincinv
    from scipy.stats import qmc
    bpow = np.asarray(bpow, dtype=float)
    rho = np.asarray(rho, dtype=float)
    delta = max(float(delta), 0.0)
    _check_propriety(bpow, rho, delta, m)
    active = rho > 0.0
    ba, ra = bpow[active], rho[active]
    k = len(ba)
    if k == 0:
        log_i0, log_ax = _fold_inactive(bpow, active, 0.0,
                                        np.zeros(len(bpow)))
        return BlockIntegrals(float(log_i0), log_ax, 0.0, 0, "monte-carlo")
    beta = ba + 1.0

    radial_logf = _radial_logf(beta, ra, delta, m)
    lo, hi, _ = peak_bracket(radial_logf, _radial_center(
        ba[None], ra[None], np.array([delta]), np.array([m]))[0])
    grid = np.linspace(lo, hi, 400)
    prop = _AxisProposal(grid, radial_logf(grid))

    means0 = np.empty(_QMC_RANDOMIZATIONS)
    means_ax = np.empty((_QMC_RANDOMIZATIONS, k))
    rng = np.random.default_rng(seed)
    logn = math.log(_QMC_POINTS)
    for r in range(_QMC_RANDOMIZATIONS):
        eng = qmc.Sobol(d=k + 1, scramble=True, rng=rng)
        u = eng.random(_QMC_POINTS)
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        y, logq = prop.sample(u[:, 0])
        logw = radial_logf(y) - logq
        means0[r] = logsumexp(logw) - logn
        lam = np.exp(y)
        for i in range(k):
            arg = lam * ra[i]
            # s | lam is a gamma(beta_i) truncated to lam*rho_i, in s units
            ui = u[:, i + 1]
            tiny = arg < 1e-6
            logs = np.empty(_QMC_POINTS)
            if np.any(tiny):
                logs[tiny] = np.log(ui[tiny]) / beta[i]
            big = ~tiny
            if np.any(big):
                t = gammaincinv(beta[i],
                                ui[big] * gammainc(beta[i], arg[big]))
                logs[big] = np.log(np.maximum(t, 1e-300)) - np.log(arg[big])
            means_ax[r, i] = logsumexp(logw + logs) - logn
    log_i0a = float(logsumexp(means0) - math.log(_QMC_RANDOMIZATIONS))
    log_axa = logsumexp(means_ax, axis=0) - math.log(_QMC_RANDOMIZATIONS)
    scaled = np.exp(means0 - means0.max())
    rel0 = float(np.std(scaled, ddof=1) / np.mean(scaled)
                 / math.sqrt(_QMC_RANDOMIZATIONS))
    log_ax = np.zeros(len(bpow))
    log_ax[active] = log_axa
    log_i0, log_ax = _fold_inactive(bpow, active, log_i0a, log_ax)
    return BlockIntegrals(float(log_i0), log_ax, rel0,
                          _QMC_POINTS * _QMC_RANDOMIZATIONS, "monte-carlo")


def _radial_logf(beta: np.ndarray, rho: np.ndarray, delta: float, m: float):
    """log of the gamma-mixture integrand over x = log lam,

        lam^m exp(-lam delta) / Gamma(m) prod_i gamma(beta_i, lam rho_i)
        / (lam rho_i)^beta_i,

    whose integral is J(e) for beta = b + e + 1.
    """
    lgm = math.lgamma(m)

    def logf(x: np.ndarray) -> np.ndarray:
        # lam overflows far out in the tail: at delta = 0 that gives NaN,
        # which peak_bracket treats as not negligible
        with np.errstate(over="ignore", invalid="ignore"):
            lam = np.exp(x)
            return (m * x - lam * delta - lgm + log_inc_gamma_ratio(
                beta, lam[:, None] * rho).sum(axis=1))
    return logf


def _radial_logf_columns(beta: np.ndarray, rho: np.ndarray,
                         delta: np.ndarray, m: np.ndarray):
    """The integrands of _radial_logf for J(0) and every J(e_i), as K+1
    columns, for M models at once: logf(x, idx) takes each node's model.

    beta and rho are (M, K). An axis with rho = 0, inactive or padding, is
    not evaluated: its log ratio counts as 0 at both shapes, so the column
    it bumps repeats column 0.
    One call of log_inc_gamma_ratio_pair, whatever the batch, gives every
    node's own axes their ratio at beta and at beta + 1: one incomplete
    gamma per active (node, axis). gammaln of both shapes is taken once
    per batch, and log y = x + log rho_i comes from the node. Every ratio
    is finite, so the column that bumps axis i is the base sum plus the
    difference of its two ratios.

    Beyond x = log(max double), about 709.8, lam overflows. With delta > 0
    the tilt lam delta is then inf and the integrand -inf, which is
    negligible. At delta = 0 the tail decays only as lam^(m - sum beta_i);
    there the tilt is 0, and each ratio at lam = inf is its limit
    gammaln(beta) - beta (x + log rho_i).
    """
    k = beta.shape[1]
    real = rho > 0.0
    # per flat (model, axis): shape, rho_i, log rho_i and gammaln of both
    # shapes
    table = np.stack([beta, rho, np.log(np.where(real, rho, 1.0)),
                      gammaln(beta), gammaln(beta + 1.0)]).reshape(5, -1)
    lgm = np.array([math.lgamma(v) for v in m])

    def logf(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # the active entries of the (node, axis) grid, and their node
        n = len(x)
        pos = real[idx].ravel().nonzero()[0]
        node = pos // k
        b, y, log_y, lg0, lg1 = table.take(pos + (idx[node] - node) * k,
                                           axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            lam = np.exp(x)
            d = delta[idx]
            tilt = np.where(d > 0.0, lam * d, 0.0)  # inf * 0 at delta = 0
            y *= lam[node]
        log_y += x[node]
        r0, r1 = log_inc_gamma_ratio_pair(b, y, log_y, lg0, lg1)
        base, bump = np.zeros(n * k), np.zeros(n * k)
        base[pos], bump[pos] = r0, r1 - r0
        sums = base.reshape(n, k).sum(axis=1)[:, None]
        return (m[idx] * x - tilt - lgm[idx])[:, None] + np.concatenate(
            [sums, sums + bump.reshape(n, k)], axis=1)
    return logf


def _radial_center(bpow: np.ndarray, rho: np.ndarray, delta: np.ndarray,
                   m: np.ndarray) -> list[float]:
    """Expected peak of the radial profile in x = log lam, per row of the
    (M, K) arrays: lam ~ m over delta + a typical rho.s."""
    return [math.log(max(mm, 1.0) / max(d + float(r[r > 0.0] @ s), 1e-300))
            for r, d, mm, s in zip(rho, delta.tolist(), m.tolist(),
                                   _char_scales(bpow, rho, delta, m))]


def block_integrals_gamma1d(bpow: np.ndarray, rho: np.ndarray, delta: float,
                            m: float, *, rtol: float = 1e-10,
                            ) -> BlockIntegrals:
    """The production route: a 1-D reduction through a gamma mixture.

    (delta + rho.s)^(-m) = 1/Gamma(m) int lam^(m-1) exp(-lam (delta + rho.s))
    turns each axis into gamma(b_i+1, lam rho_i) / (lam rho_i)^(b_i+1), so
    J(0) and each J(e_i) is one integral over x = log lam, for any k. All
    k+1 share one bracket and one panel set: one vector-valued adaptive
    Gauss-Kronrod integral at rtol/10, whose integrand evaluates the 2k
    incomplete-gamma ratios (k shapes, each also bumped by one) from k
    incomplete gammas per node. At the rtol of a block posterior
    (1e-7) that is usually two calls of the integrand: the bracket's
    61-point scan and one pass of 8 panels of 21 nodes. A panel that has
    converged is kept, so a further pass evaluates only the halves of the
    panels it splits. The reported error (the largest of the k+1
    |Kronrod - Gauss| estimates) bounds the actual error; n_evals counts
    nodes times k+1 integrands.

    This is a batch of one of block_integrals_gamma1d_batch.
    """
    res = block_integrals_gamma1d_batch(
        np.asarray(bpow, dtype=float)[None],
        np.asarray(rho, dtype=float)[None], np.array([delta], dtype=float),
        np.array([m], dtype=float), rtol=rtol)
    return BlockIntegrals(float(res.log_i0[0]), res.log_i_axis[0],
                          float(res.error[0]), int(res.n_evals[0]), res.method)


def block_integrals_gamma1d_batch(bpow: np.ndarray, rho: np.ndarray,
                                  delta: np.ndarray, m: np.ndarray, *,
                                  rtol: float = 1e-10) -> BlockIntegrals:
    """block_integrals_gamma1d for the M models of the (M, K) arrays bpow
    and rho and the (M,) arrays delta and m, in one pass, as a
    BlockIntegrals of arrays: log_i0, error and n_evals (M), log_i_axis
    (M, K). An axis with rho_i = 0 is inactive and separates into a
    constant; a model of fewer axes is padded with bpow = rho = 0, an
    inactive axis whose constant 1/(b_i+1) is 1, so it changes nothing and
    its log_i_axis entry is to be ignored.

    The models' integrals share every call of the integrand, in the
    bracket scan, its end walk and each quadrature pass, and nothing else.
    Each model keeps its own bracket, panels, convergence test and node
    count n_evals (its own nodes times its own active axes plus one), so
    it gets the values it gets alone. The propriety test and the fold of
    the inactive axes are array steps. Raises when any model does.
    """
    delta = np.maximum(delta, 0.0)
    _check_propriety(bpow, rho, delta, m)
    active = rho > 0.0
    n_act = active.sum(axis=1)
    log_i0 = np.zeros(len(m))
    log_ax = np.zeros(bpow.shape)
    error = np.zeros(len(m))
    n_evals = np.zeros(len(m), dtype=np.int64)
    live = n_act > 0
    if live.any():
        live = slice(None) if live.all() else live  # a view if every row
        b, r, d, mm = bpow[live], rho[live], delta[live], m[live]
        nodes = np.zeros(len(mm), dtype=np.int64)
        radial = _radial_logf_columns(b + 1.0, r, d, mm)

        def logf(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
            nodes[:] += np.bincount(idx, minlength=len(nodes))
            return radial(x, idx)

        lo, hi, x_pk = peak_bracket(logf, _radial_center(b, r, d, mm))
        vals, errs = adaptive_log_integral(logf, lo, hi, rtol=0.1 * rtol,
                                           seed_points=(x_pk,))
        log_i0[live], log_ax[live] = vals[:, 0], vals[:, 1:]
        error[live] = errs.max(axis=1)  # an inactive column repeats column 0
        n_evals[live] = nodes * (n_act[live] + 1)
    log_i0, log_ax = _fold_inactive(bpow, active, log_i0, log_ax)
    return BlockIntegrals(log_i0, log_ax, error, n_evals, "gamma1d")
