"""Second routes built on the library's 1-D quadrature
(`blockhyperg._quadlog`), for the tests to check the library against:

- the hyper-g Bayes factor as a direct quadrature over g, a cross-check
  for the route table (`blockhyperg.hyperg.hyper_g_scores`);
- the dual-route 2F1 (`hyp2f1`), which checks the Gauss series of
  `blockhyperg.special` against the Euler quadrature, and the scaled form
  near z = 1 (`hyp2f1_near1_scaled`). The library calls neither.

They share the library's quadrature, so they are second routes, not
independent oracles: `tests/oracles.py` holds the mpmath-only references.
"""

from __future__ import annotations

import math

import numpy as np

from blockhyperg._quadlog import adaptive_log_integral, peak_bracket
from blockhyperg.errors import DomainError, NoConvergence
from blockhyperg.hyperg import _resolve_r2
from blockhyperg.special import (_log_beta, _log_euler_quad,
                                 _series_terms_estimate, _validate,
                                 hyp2f1_log, log_series_2f1)

_LOG_HUGE = 700.0


def log_bf_hyper_g_gquad(a: float, n: int, p: int, r2: float,
                         one_minus_r2: float | None = None,
                         rtol: float = 1e-11) -> float:
    """Same Bayes factor through direct quadrature over g (cross-check form).

    Integrates (1+g)^((n-p-1-a)/2) [1+g(1-R^2)]^(-(n-1)/2) (a-2)/2 dg in
    x = log g coordinates.
    """
    if n <= p + 1:
        raise DomainError(f"need n > p + 1, got n={n}, p={p}")
    r2, omr2 = _resolve_r2(r2, one_minus_r2)
    if omr2 <= 0.0:
        raise DomainError("g-space quadrature form requires R^2 < 1")
    c1 = 0.5 * (n - p - 1 - a)
    c2 = 0.5 * (n - 1)

    def logf(x: np.ndarray) -> np.ndarray:
        g = np.exp(x)
        return x + c1 * np.log1p(g) - c2 * np.log1p(g * omr2)

    # integrand ~ g below 1, ~ g^(1 + c1 - c2) above max(1, 1/(1-R^2))
    if c2 - c1 - 1.0 <= 0.0:
        raise DomainError("g integral diverges for these (n, p, a)")
    lo, hi, x_pk = peak_bracket(logf, 0.0)
    val, _ = adaptive_log_integral(logf, lo, hi, rtol=rtol,
                                   seed_points=(x_pk,))
    return math.log(0.5 * (a - 2.0)) + val


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Dual-route 2F1: power series cross-checked against Euler quadrature.

    Raises NoConvergence when the two routes disagree beyond 1e-8 relative,
    when z > 1-1e-12 in the divergent regime a+b-c > 0, or when the value
    overflows doubles (use hyp2f1_log there).
    """
    _validate(a, b, c, z)
    if a + b - c > 0 and z > 1.0 - 1e-12:
        raise NoConvergence(
            "z too close to 1 in the divergent regime; use hyp2f1_near1_scaled "
            "or hyp2f1_log")
    if z == 0.0:
        return 1.0
    delta = 1.0 - z
    log_quad = _log_euler_quad(a, b, c, delta) - _log_beta(b, c - b)
    if _series_terms_estimate(a, b, c, z) <= 500_000:
        log_primary = log_series_2f1(a, b, c, z)
    else:
        # series infeasible: check against the quadrature at rtol 1e-13
        log_primary = (_log_euler_quad(a, b, c, delta, rtol=1e-13)
                       - _log_beta(b, c - b))
    if abs(log_primary - log_quad) > 1e-8:
        raise NoConvergence(
            f"2F1 routes disagree: series={log_primary}, quad={log_quad}")
    log_val = log_primary if z <= 0.95 else log_quad
    if log_val > _LOG_HUGE:
        raise NoConvergence("2F1 value overflows double range; use hyp2f1_log")
    return math.exp(log_val)


def hyp2f1_near1_scaled(a: float, b: float, c: float, z: float,
                        one_minus_z: float | None = None) -> float:
    """(1-z)^(a+b-c) * 2F1(a,b;c;z); finite as z -> 1 when a+b-c > 0."""
    if a + b - c <= 0:
        raise DomainError("scaled form requires a + b - c > 0")
    delta = 1.0 - z if one_minus_z is None else one_minus_z
    if delta <= 0:
        raise DomainError("need z < 1")
    return math.exp((a + b - c) * math.log(delta)
                    + hyp2f1_log(a, b, c, z, one_minus_z=delta))
