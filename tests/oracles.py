"""Test-only oracles and helpers.

Reference implementations: adaptive quadrature, the exponential-mixture
density and its power budget, the physical SINR of a symbol, the M-QAM BER
curve and the scalar water-filling power and rate. They give the closed
forms and the simulator an independent route to compare against, and live
here so that importing the package never loads ``scipy.integrate``.

Helpers: the closed-form rate of one (scheme, link) pair and the crossover
burst probability, each a single package call, and a reader for the CLI's
CSV output.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import exp1

from impulsewf.adaptation import Scheme, crossover, make_policy, policy_law
from impulsewf.cli import CSV_HEADER
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


def budget_rows(t, weights, means) -> np.ndarray:
    """B(t) per row: the average spend (1/t - 1/gamma)+ of each mixture,
    sum_j w_j * (exp(-t/m_j) - (t/m_j) * E1(t/m_j)) / t.

    ``weights`` and ``means`` have one row per mixture and one column per
    exponential component; ``t`` has one entry per row.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float)
    z = t[:, None] / np.asarray(means, dtype=float)
    spend = weights * np.exp(-z) - weights * z * exp1(z)
    return spend.sum(axis=1) / t


def qam_ber(gamma: float, m: float, ber_coeff: float = 0.2) -> float:
    """Bit error rate of continuous-rate M-QAM at SINR ``gamma``.

    ``ber_coeff * exp(-1.5 * gamma / (m - 1))`` clamped to [0, 1]; the
    clamp matters because the curve exceeds one for tiny gamma. A zero-rate
    symbol (m == 1) carries no bits; by convention the curve value at zero
    SINR, ``ber_coeff``, is returned for it.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if m < 1.0:
        raise ValueError(f"m must be >= 1, got {m}")
    if m == 1.0:
        return min(ber_coeff, 1.0)
    return min(ber_coeff * math.exp(-1.5 * gamma / (m - 1.0)), 1.0)


def wf_power_fraction(gamma, policy, k):
    """Transmit power, as a fraction of the average budget, at full-power
    SINR ``gamma``, for a policy solved at budget constant ``k``.

    (1/k) * (1/threshold - 1/gamma) above the cutoff, zero at and below it.
    Scalar or array.
    """
    g = np.maximum(np.asarray(gamma, dtype=float), policy.threshold)
    out = (1.0 / policy.threshold - 1.0 / g) / k
    return out.item() if out.ndim == 0 else out


def wf_rate_bits(gamma, policy):
    """Bits per symbol at ``gamma``: log2(gamma/threshold) above the cutoff.

    Equals log2 of the constellation size M = 1 + k * gamma * P, P the
    water-filling power fraction. Scalar or array.
    """
    g = np.maximum(np.asarray(gamma, dtype=float), policy.threshold)
    out = np.log2(g / policy.threshold)
    return out.item() if out.ndim == 0 else out


def rate_for(scheme, params, em) -> float:
    """Closed-form average spectral efficiency of ``scheme`` on this link:
    ``policy_law`` at the cutoff solved for it."""
    return policy_law(make_policy(scheme, params, em), params, em)[0]


def rate_conventional(params, em) -> float:
    return rate_for(Scheme.CONVENTIONAL, params, em)


def rate_aggressive(params, em) -> float:
    return rate_for(Scheme.AGGRESSIVE, params, em)


def rate_conservative(params, em) -> float:
    return rate_for(Scheme.CONSERVATIVE, params, em)


def crossover_pth(params, em) -> float:
    """Burst probability where aggressive and conservative rates meet."""
    return crossover(params, em)[2]


class CsvRow(NamedTuple):
    """One parsed CSV row; simulation cells are None in theory-only rows.
    A tuple, so ``rows_to_csv`` writes it back unchanged."""

    p: float
    scheme: str
    rate_theory: float
    rate_sim: float | None
    outage_theory: float
    outage_sim: float | None
    mean_power_sim: float | None
    seed: int | None


def parse_csv(text: str) -> list[CsvRow]:
    """Parse a CSV stream emitted by the CLI back into rows."""
    lines = text.strip("\n").split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognised CSV header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 8:
            raise ValueError(f"expected 8 cells, got {len(cells)}: {line!r}")
        opt = lambda s: None if s == "" else float(s)
        rows.append(CsvRow(
            p=float(cells[0]), scheme=cells[1], rate_theory=float(cells[2]),
            rate_sim=opt(cells[3]), outage_theory=float(cells[4]),
            outage_sim=opt(cells[5]), mean_power_sim=opt(cells[6]),
            seed=None if cells[7] == "" else int(cells[7])))
    return rows
