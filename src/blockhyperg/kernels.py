"""Integrand kernel of the tensor-quadrature reference route."""

from __future__ import annotations

import numpy as np

# the kernel is plain numpy; the name stays for code that reports it
BACKEND = "python"


def log_integrand_logs(x: np.ndarray, beta: np.ndarray, rho: np.ndarray,
                       delta: float, m: float) -> np.ndarray:
    """out[j] = beta.x[j] - m log(delta + rho.exp(x[j])) on log s nodes;
    beta already includes the +1 Jacobian of the s = exp(x) substitution."""
    s = np.exp(x)
    return x @ beta - m * np.log(delta + s @ rho)
