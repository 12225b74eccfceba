"""Vectorised solve of the water-filling cutoff equation.

Every cutoff in the package solves the power budget of an exponential
mixture,

    B(t) = sum_j w_j * (exp(-t/m_j)/t - E1(t/m_j)/m_j) = k,

the average of (1/t - 1/gamma)+ over a SINR with P(gamma > g) =
sum_j w_j exp(-g/m_j). ``solve_cutoffs`` solves many of these equations
at once, one row per cutoff. Everything here is a pure function of its
inputs, so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import numpy as np
from scipy.special import exp1

__all__ = [
    "ConvergenceError",
    "solve_cutoffs",
]

# A Newton step below this (in log t, so relative in t) ends the iteration.
STEP_TOL = 1e-13
MAX_ITER = 200
# Floor on t/m at the start. z (1 + z) > 1 for z >= 0.62, so
# exp(-z) / (z (1 + z)) <= c at z = max(log(1/c), 0.62) for every c > 0.
Z_FLOOR = 0.62


class ConvergenceError(RuntimeError):
    """An iterative routine ran out of iterations or accuracy budget."""

    def __init__(self, message: str, iterations: int | None = None):
        if iterations is not None:
            message += f" (after {iterations} iterations)"
        super().__init__(message)
        self.iterations = iterations


def _scaled_budget_and_tail(t, weights, means):
    """t * B(t) and P(gamma > t) per row, for a column of cutoffs ``t``."""
    z = t[:, None] / means
    tail = weights * np.exp(-z)
    spend = tail - weights * z * exp1(z)
    return spend.sum(axis=1), tail.sum(axis=1)


def _validate(weights, means, k):
    w = np.asarray(weights, dtype=float)
    m = np.asarray(means, dtype=float)
    k = np.asarray(k, dtype=float).reshape(-1)
    if w.ndim != 2 or w.shape != m.shape or w.shape[0] != k.size:
        raise ValueError(
            f"weights {w.shape} and means {m.shape} must be (rows, components) "
            f"with one budget constant per row, got {k.size}")
    if not np.all(np.isfinite(k) & (k > 0.0)):
        raise ValueError(f"budget constants k must be positive and finite, got {k}")
    if not np.all(np.isfinite(w) & (w >= 0.0)) or not np.all(w.sum(axis=1) > 0.0):
        raise ValueError("weights must be finite, non-negative and not all zero in a row")
    if not np.all(np.isfinite(m) & (m > 0.0)):
        raise ValueError("component means must be positive and finite")
    return w, m, k


def _start_above_root(w, m, k):
    """A cutoff above each row's root, near it when one component dominates.

    E2(z) < exp(-z)/(1 + z) bounds component j's share of B(t) by
    w_j exp(-z)/(z (1 + z) m_j) with z = t/m_j. At z = max(log(1/c), Z_FLOOR),
    c = k m_j / (C w_j), that bound is at most k / C, so with C the number
    of weighted components B(t) <= k once t reaches the largest such m_j z.
    """
    components = np.count_nonzero(w > 0.0, axis=1)[:, None]
    c = k[:, None] * m / (components * w)
    z = np.maximum(-np.log(c), Z_FLOOR)
    return np.max(np.where(w > 0.0, m * z, 0.0), axis=1)


def solve_cutoffs(weights, means, k) -> np.ndarray:
    """Cutoff t of every row, where B(t) = k for that row's mixture.

    Safeguarded Newton iteration on log B(t) = log k in log t, so one
    relative tolerance serves every scale and no fixed bracket is needed.
    B decreases from +inf to 0 and B(t) < 1/t, so t = 1/k lies above the
    root; so does the point from ``_start_above_root``, and the iteration
    starts at the lower of the two. The derivative is cheap:
    dB/dt = -P(gamma > t)/t^2. Each row keeps the tightest bracket its
    iterates have shown; as in Numerical Recipes' ``rtsafe``, a Newton
    step that leaves the bracket, or is not under half the step before
    last, becomes a bisection in log t, so the bracket keeps shrinking
    where B bends the wrong way (mixtures with far-apart means). Rows stop
    independently once a step moves t by less than STEP_TOL relative, so
    a row's result does not depend on the other rows it is solved with.

    Parameters
    ----------
    weights, means : array_like, shape (rows, components)
        Exponential-mixture weights (>= 0) and means (> 0) per row.
        Zero-weight components are allowed, for padding.
    k : array_like, shape (rows,)
        Positive budget constant per row.
    """
    w, m, k = _validate(weights, means, k)
    log_k = np.log(k)
    n = k.size
    out = np.empty(n)
    hi = 1.0 / k
    lo = np.zeros(n)
    # Sizes (in log t) of the last step and the one before it.
    last = np.full(n, np.inf)
    before = np.full(n, np.inf)
    rows = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.minimum(hi, _start_above_root(w, m, k))
        for _ in range(MAX_ITER):
            if not rows.size:
                return out
            spend, tail = _scaled_budget_and_tail(t, w, m)
            # log(B/k): positive left of the root, negative right of it.
            gap = np.log(spend) - np.log(t) - log_k
            lo = np.where(gap > 0.0, t, lo)
            hi = np.where(gap < 0.0, t, hi)
            # Newton in log t, with d log B / d log t = -P(gamma > t) / (t B).
            step = gap * spend / tail
            newton = t * np.exp(step)
            accept = (np.abs(step) <= STEP_TOL) | (
                (newton > lo) & (newton < hi) & (np.abs(step) <= 0.5 * before))
            bisect = np.where(lo > 0.0, np.sqrt(lo) * np.sqrt(hi), t / np.e)
            t_next = np.where(accept, newton, bisect)
            moved = np.abs(np.log(t_next / t))
            done = moved <= STEP_TOL
            t, before, last = t_next, last, moved
            if done.any():
                out[rows[done]] = t[done]
                keep = ~done
                rows, t, lo, hi = rows[keep], t[keep], lo[keep], hi[keep]
                before, last = before[keep], last[keep]
                w, m, log_k = w[keep], m[keep], log_k[keep]
    raise ConvergenceError(
        f"cutoff solve did not settle for {rows.size} of {n} rows",
        iterations=MAX_ITER)
