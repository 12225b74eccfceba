"""Test-only oracles: adaptive quadrature and the exponential-mixture density.

They give the closed forms an independent route to compare against, and
live here so that importing the package never loads ``scipy.integrate``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import quad

from impulsewf.numerics import ConvergenceError


def integrate_semi_infinite(f: Callable[[float], float], lower: float,
                            rel_tol: float = 1e-10) -> float:
    """Adaptive quadrature of f over [lower, inf).

    Intended for smooth, absolutely integrable, exponentially decaying
    integrands. Delegates to QUADPACK and verifies the reported error
    estimate.
    """
    if lower < 0.0:
        raise ValueError(f"lower limit must be >= 0, got {lower}")
    out = quad(f, lower, math.inf, epsabs=1e-14, epsrel=rel_tol,
               limit=400, full_output=1)
    value, abserr = out[0], out[1]
    if abserr > max(1e-9 * abs(value), 1e-12):
        raise ConvergenceError("semi-infinite quadrature did not converge",
                               error_estimate=abserr)
    return value


def density_at(weights, means, gamma):
    """Density of the exponential mixture with these component ``weights``
    and ``means`` (one row of ``cutoff_rows``) at ``gamma``, scalar or array."""
    g = np.asarray(gamma, dtype=float)
    out = np.zeros_like(g)
    for weight, mean in zip(weights, means):
        if weight > 0.0:
            out = out + (weight / mean) * np.exp(-g / mean)
    out = np.where(g < 0.0, 0.0, out)
    return out.item() if out.ndim == 0 else out
