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
J(0) and the k integrals J(e_i) differ only in one shape each, so all k+1
are one vector-valued integral on one bracket and one panel set.
Graded-panel tensor Gauss-Legendre (block_integrals_quadrature, k <= 3)
and randomized scrambled-Sobol QMC (block_integrals_qmc) stay as
independent references for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import kernels
from ._quadlog import adaptive_log_integral, gl_rule, peak_bracket
from .errors import DomainError, IntegralDiverges, NoConvergence
from .special import log_inc_gamma_ratio

_TENSOR_BUDGET = 10**6  # the tensor reference escalates below this many evals
_QMC_POINTS = 2**16  # Sobol points per randomization of the QMC reference
_QMC_RANDOMIZATIONS = 32


@dataclass(frozen=True)
class BlockIntegrals:
    """log J(0), per-axis log J(e_i), and bookkeeping."""

    log_i0: float
    log_i_axis: np.ndarray
    error: float
    n_evals: int
    method: str

    @property
    def s_mean(self) -> np.ndarray:
        return np.exp(self.log_i_axis - self.log_i0)

    @property
    def t_mean(self) -> np.ndarray:
        return 1.0 - self.s_mean


def _char_scales(bpow: np.ndarray, rho: np.ndarray, delta: float,
                 m: float) -> np.ndarray:
    """Characteristic s scale per axis (conditional Beta-prime mean)."""
    k = len(bpow)
    s = np.ones(k)
    # iterate to convergence: at tiny delta the fixed point is O(delta),
    # so a capped iteration count would leave the grids orders of
    # magnitude above the ridge that carries the mass
    for _ in range(400):
        prev = s.copy()
        for i in range(k):
            de = delta + float(rho @ s) - rho[i] * s[i]
            denom = rho[i] * max(m - bpow[i] - 1.0, bpow[i] + 1.0)
            s[i] = min(1.0, (bpow[i] + 1.0) * max(de, 1e-300) / denom)
        if np.all(np.abs(s - prev) <= 1e-3 * np.abs(s)):
            break
    return s


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
    s_char = _char_scales(bpow, rho, delta, m)
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


def _fold_inactive(bpow_all: np.ndarray, active: np.ndarray,
                   log_i0_act: float, log_ax_act: np.ndarray,
                   ) -> tuple[float, np.ndarray]:
    """Reattach axes with rho_i = 0, which separate into Beta-type constants."""
    k = len(bpow_all)
    log_c = np.where(active, 0.0, -np.log(bpow_all + 1.0))
    base = log_i0_act + float(log_c.sum())
    log_ax = np.empty(k)
    ia = 0
    for i in range(k):
        if active[i]:
            log_ax[i] = log_ax_act[ia] + float(log_c.sum())
            ia += 1
        else:
            log_ax[i] = base - math.log(bpow_all[i] + 2.0) + math.log(
                bpow_all[i] + 1.0)
    return base, log_ax


def _check_propriety(bpow: np.ndarray, rho: np.ndarray, delta: float,
                     m: float) -> None:
    if delta <= 0.0 and m >= float((bpow + 1.0).sum()) and rho.sum() > 0:
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
        log_i0, log_ax = _fold_inactive(bpow, active, 0.0, np.empty(0))
        return BlockIntegrals(log_i0, log_ax, 0.0, 0, "quadrature")
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
    log_i0, log_ax = _fold_inactive(bpow, active, hi0, hiax)
    return BlockIntegrals(log_i0, log_ax, err, n1 + n2, "quadrature")


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
        log_i0, log_ax = _fold_inactive(bpow, active, 0.0, np.empty(0))
        return BlockIntegrals(log_i0, log_ax, 0.0, 0, "monte-carlo")
    beta = ba + 1.0

    radial_logf = _radial_logf(beta, ra, delta, m)
    lo, hi, _ = peak_bracket(radial_logf, _radial_center(ba, ra, delta, m))
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
    log_i0, log_ax = _fold_inactive(bpow, active, log_i0a,
                                    np.atleast_1d(log_axa))
    return BlockIntegrals(log_i0, np.asarray(log_ax), rel0,
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


def _radial_logf_columns(beta: np.ndarray, rho: np.ndarray, delta: float,
                         m: float):
    """The integrands of _radial_logf for J(0) and every J(e_i), as k+1
    columns, from the 2k incomplete-gamma ratios at beta and beta + 1."""
    k = len(beta)
    shapes = np.concatenate([beta, beta + 1.0])
    lgm = math.lgamma(m)
    diag = np.arange(k)

    def logf(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            lam = np.exp(x)
            arg = lam[:, None] * rho
            ratio = log_inc_gamma_ratio(shapes, np.concatenate([arg, arg],
                                                               axis=1))
            base, bumped = ratio[:, :k], ratio[:, k:]
            # each bumped column is its own sum with entry i swapped, not
            # the base sum minus one term: far out both are -inf
            swap = np.repeat(base[:, None, :], k, axis=1)
            swap[:, diag, diag] = bumped
            sums = np.concatenate([base.sum(axis=1)[:, None],
                                   swap.sum(axis=2)], axis=1)
            return (m * x - lam * delta - lgm)[:, None] + sums
    return logf


def _radial_center(bpow: np.ndarray, rho: np.ndarray, delta: float,
                   m: float) -> float:
    """Expected peak of the radial profile in x = log lam: lam ~ m over
    delta + a typical rho.s."""
    s_char = _char_scales(bpow, rho, delta, m)
    return math.log(max(m, 1.0) / max(delta + float(rho @ s_char), 1e-300))


def block_integrals_gamma1d(bpow: np.ndarray, rho: np.ndarray, delta: float,
                            m: float, *, rtol: float = 1e-10,
                            ) -> BlockIntegrals:
    """The production route: a 1-D reduction through a gamma mixture.

    (delta + rho.s)^(-m) = 1/Gamma(m) int lam^(m-1) exp(-lam (delta + rho.s))
    turns each axis into gamma(b_i+1, lam rho_i) / (lam rho_i)^(b_i+1), so
    J(0) and each J(e_i) is one integral over x = log lam, for any k. All
    k+1 share one bracket and one panel set: one vector-valued adaptive
    Gauss-Kronrod integral at rtol/10, whose integrand evaluates the 2k
    incomplete-gamma ratios once per node. At the rtol of a block posterior
    (1e-7) that is usually two calls of the integrand: the bracket's
    61-point scan and one pass of 8 panels of 21 nodes. A panel that has
    converged is kept, so a further pass evaluates only the halves of the
    panels it splits. The reported error (the largest of the k+1
    |Kronrod - Gauss| estimates) bounds the actual error; n_evals counts
    nodes times k+1 integrands.
    """
    bpow = np.asarray(bpow, dtype=float)
    rho = np.asarray(rho, dtype=float)
    delta = max(float(delta), 0.0)
    _check_propriety(bpow, rho, delta, m)
    active = rho > 0.0
    ba, ra = bpow[active], rho[active]
    if len(ba) == 0:
        log_i0, log_ax = _fold_inactive(bpow, active, 0.0, np.empty(0))
        return BlockIntegrals(log_i0, log_ax, 0.0, 0, "gamma1d")
    n_evals = 0
    radial = _radial_logf_columns(ba + 1.0, ra, delta, m)

    def logf(x: np.ndarray) -> np.ndarray:
        nonlocal n_evals
        n_evals += x.size * (len(ba) + 1)
        return radial(x)

    lo, hi, x_pk = peak_bracket(logf, _radial_center(ba, ra, delta, m))
    vals, errs = adaptive_log_integral(logf, lo, hi, rtol=0.1 * rtol,
                                       seed_points=(x_pk,))
    log_i0, log_ax = _fold_inactive(bpow, active, float(vals[0]), vals[1:])
    return BlockIntegrals(log_i0, log_ax, float(errs.max()), n_evals,
                          "gamma1d")
