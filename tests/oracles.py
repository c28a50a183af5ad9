"""Reference values from mpmath alone, for the library's 1-D integrals.

Nothing here shares a step with `blockhyperg._quadlog` or with the gamma
mixture of `blockhyperg.integrate`: the single-block values are mpmath's
own 2F1, and the two-block integral is mpmath's quadrature over one axis
with the other axis in closed form.

- k = 1: the hyper-g Bayes factor and shrinkage (Liang et al. 2008) as
  2F1 values at z = R^2, with 1-R^2 entering exactly (`log_hyp2f1`).
- k = 2: J(0) and each J(e_i) of the block posterior (see
  `blockhyperg.integrate`), the s_2 axis exactly and the s_1 axis by
  `mpmath.quad`.
"""

from __future__ import annotations

import math

import mpmath


def log_hyp2f1(a: float, b: float, c: float, one_minus_z: float) -> float:
    """log 2F1(a, b; c; z) at z = 1 - one_minus_z, 0 < one_minus_z <= 1,
    through Pfaff's transformation

        2F1(a, b; c; z) = (1-z)^-b 2F1(b, c-a; c; z/(z-1)),

    at 30 digits. With d = 1-z the new argument is (d-1)/d, so 1-z enters
    exactly, however small. mpmath's 2F1 at z itself would need z
    to carry 1-z: 60 + 1.1 log10(1/(1-z)) digits, since at a fixed 80
    digits z = 1 - 1e-300 rounds to 1. That gives the same doubles, but
    takes up to 12 s for one value at 1-z = 1e-300 when c-a-b is an
    integer, as at the hyper-g band's edge.
    """
    with mpmath.workdps(30):
        d = mpmath.mpf(one_minus_z)
        return float(-b * mpmath.log(d)
                     + mpmath.log(mpmath.hyp2f1(b, c - a, c, (d - 1) / d)))


def hyper_g(a: float, n: int, p: int,
            one_minus_r2: float) -> tuple[float, float]:
    """Hyper-g log BF against the null and shrinkage E[g/(1+g) | y]:

        log[(a-2)/(p+a-2)] + log 2F1(m, 1; c; R^2),
        (2/(p+a)) 2F1(m, 2; c+1; R^2) / 2F1(m, 1; c; R^2),

    with m = (n-1)/2 and c = (a+p)/2. They are also the k = 1 block
    posterior: its log BF and t_mean[0].
    """
    m, c = 0.5 * (n - 1), 0.5 * (a + p)
    log_den = log_hyp2f1(m, 1.0, c, one_minus_r2)
    log_num = log_hyp2f1(m, 2.0, c + 1.0, one_minus_r2)
    return (math.log((a - 2.0) / (p + a - 2.0)) + log_den,
            2.0 / (p + a) * math.exp(log_num - log_den))


def _inner_axis(d, rho, b, m):
    """int_0^1 s^b (d + rho s)^-m ds = d^-m/(b+1) 2F1(m, b+1; b+2; -rho/d).

    Evaluated as rho^-(b+1) d^(b+1-m) int_u0^1 u^(m-b-2) (1-u)^b du with
    u0 = d/(d+rho) (substitute u = d/(d + rho s)), an incomplete beta that
    mpmath sums as a short series. Its 2F1 at -rho/d, out to -1e300, takes
    ten to a hundred times as long when the parameters differ by integers.
    """
    return (rho ** (-(b + 1)) * d ** (b + 1 - m)
            * mpmath.betainc(m - b - 1, b + 1, d / (d + rho), 1))


def block_k2(a: float, n: int, sizes: tuple[int, int], rho, delta: float,
             ) -> tuple[float, list[float]]:
    """Two-block log BF against the null and E[s_i | y] = J(e_i)/J(0),

        J(e) = int_0^1 int_0^1 s_1^(b_1+e_1) s_2^(b_2+e_2)
               (delta + rho_1 s_1 + rho_2 s_2)^-m ds_2 ds_1,

    with b_i = (a+p_i)/2 - 2 and m = (n-1)/2, so log BF = 2 log((a-2)/2)
    + log J(0). The outer axis is s_1 = e^v, integrated by `mpmath.quad`
    over v <= 0 and split at v = log(delta/rho_1) < 0, where the coupling
    term turns from delta to rho_1 s_1. J(0) and J(e_1) share the inner
    axis at every node, which is computed once.
    """
    with mpmath.workdps(15):
        b1, b2 = (mpmath.mpf(0.5 * (a + p) - 2.0) for p in sizes)
        r1, r2 = (mpmath.mpf(r) for r in rho)
        d, m = mpmath.mpf(delta), mpmath.mpf(0.5 * (n - 1))
        v0 = mpmath.log(d / r1)
        cache = {}

        def inner(v, e2):
            if (v, e2) not in cache:
                cache[v, e2] = _inner_axis(d + r1 * mpmath.exp(v), r2,
                                           b2 + e2, m)
            return cache[v, e2]

        def j(e1, e2):
            return mpmath.quad(
                lambda v: mpmath.exp((b1 + e1 + 1) * v) * inner(v, e2),
                [-mpmath.inf, v0, 0])

        j0 = j(0, 0)
        return (2.0 * math.log(0.5 * (a - 2.0)) + float(mpmath.log(j0)),
                [float(j(1, 0) / j0), float(j(0, 1) / j0)])
