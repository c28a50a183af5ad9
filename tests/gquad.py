"""The hyper-g Bayes factor as a direct quadrature over g, a cross-check
for the library's route table (`blockhyperg.hyperg.hyper_g_scores`).

It integrates in x = log g with the library's own 1-D quadrature
(`blockhyperg._quadlog`), so it is a second route, not an independent
oracle: `tests/oracles.py` holds the mpmath-only references.
"""

from __future__ import annotations

import math

import numpy as np

from blockhyperg._quadlog import adaptive_log_integral, peak_bracket
from blockhyperg.errors import DomainError
from blockhyperg.hyperg import _resolve_r2


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
