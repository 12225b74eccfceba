"""Test-only oracles: adaptive quadrature, the exponential-mixture density
and the physical SINR of a symbol.

They give the closed forms and the simulator an independent route to
compare against, and live here so that importing the package never loads
``scipy.integrate``.
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


def sinr_of(params, h, impulse, tx_power):
    """Post-fading SINR at transmit power fraction ``tx_power``.

    The physical reference: received power h * tx_power over the thermal
    noise 1/SNR, and burst-hit symbols see exactly that divided by
    (1 + INR). Accepts scalars or equal-shaped arrays for ``h``,
    ``impulse`` and ``tx_power``.
    """
    noise_power = 1.0 / params.snr_linear
    clean = np.asarray(h, dtype=float) * tx_power / noise_power
    out = np.where(impulse, clean / (1.0 + params.inr_linear), clean)
    return out.item() if out.ndim == 0 else out
