"""BER-targeted rate/power adaptation policies and their average-rate closed forms.

Continuous-rate M-QAM over the fading channel of :mod:`impulsewf.channel`:
the transmitter picks a power fraction and constellation size from the
quantity fed back at the start of each coherence block, holding the
instantaneous bit error rate at a target while spending the average power
budget exactly. Three policies differ only in what that fed-back quantity
is assumed to mean:

* ``conventional`` adapts on the first symbol's SINR and prices the budget
  against the full clean/hit SINR mixture;
* ``aggressive`` adapts on the fading power H as if bursts never happen;
* ``conservative`` adapts on H as if every symbol were hit.

Average spectral efficiencies reduce to exponential-integral closed forms
evaluated at a water-filling cutoff. The schemes differ in one decision
only: which exponential SINR mixture and which budget constant their
cutoff is priced on. ``cutoff_rows`` makes it for (scheme, link) pairs,
``make_policies`` solves the rows in one call of
:func:`impulsewf.numerics.solve_cutoffs`, and the ``policy_*`` closed forms
consume the solved policies, so a sweep solves each cutoff once. The
scalar ``rate_*`` functions wrap the same path for one link. All
functions are pure and all records immutable.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.special import exp1

from .channel import ChannelParams
from .numerics import solve_cutoffs

__all__ = [
    "LOG2_E",
    "Scheme",
    "ErrorModel",
    "Policy",
    "NoCrossoverError",
    "qam_ber",
    "wf_power_fraction",
    "wf_rate_bits",
    "cutoff_rows",
    "make_policies",
    "make_policy",
    "policy_rate",
    "rate_conventional",
    "rate_aggressive",
    "rate_conservative",
    "rate_for",
    "outage_prob_conventional",
    "impulse_ber_under_conventional",
    "bursts_lost",
    "crossover_rates",
    "crossover_pth",
    "crossover_from_rates",
]

LOG2_E = math.log2(math.e)
# Slack on the BER test, so that a BER equal to the target is not a miss.
OUTAGE_GUARD = 1e-12


class Scheme(Enum):
    CONVENTIONAL = "conventional"
    AGGRESSIVE = "aggressive"
    CONSERVATIVE = "conservative"


class NoCrossoverError(ValueError):
    """Aggressive never beats conservative: no crossover in (0, 1)."""


@dataclass(frozen=True)
class ErrorModel:
    """Instantaneous BER constraint for continuous-rate M-QAM.

    The BER curve is ``ber_coeff * exp(-1.5 * sinr / (M - 1))``; holding it
    at ``target_ber`` ties constellation size to received SINR. Requires
    0 < target_ber < ber_coeff, else the tie-in constant is non-positive
    and no cutoff exists.
    """

    target_ber: float
    ber_coeff: float = 0.2

    def __post_init__(self) -> None:
        if not self.ber_coeff > 0.0:
            raise ValueError(f"ber_coeff must be positive, got {self.ber_coeff}")
        if not 0.0 < self.target_ber < self.ber_coeff:
            raise ValueError(
                f"target_ber must lie in (0, ber_coeff={self.ber_coeff}), "
                f"got {self.target_ber}")

    @property
    def k_sinr(self) -> float:
        """Constant k = -1.5 / ln(target/coeff) tying M - 1 to sinr * power."""
        return -1.5 / math.log(self.target_ber / self.ber_coeff)


@dataclass(frozen=True)
class Policy:
    """A solved water-filling policy: scheme, cutoff and budget constant.

    The cutoff lives on the fed-back SINR for conventional and on the
    fading power H for aggressive and conservative.
    """

    scheme: Scheme
    threshold: float
    k_used: float

    def __post_init__(self) -> None:
        if not self.threshold > 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


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


def wf_power_fraction(gamma, policy: Policy):
    """Transmit power fraction P/avg_power at ``gamma``, on the policy's basis.

    (1/k) * (1/threshold - 1/gamma) above the cutoff, zero at and below it.
    Scalar or array.
    """
    g = np.maximum(np.asarray(gamma, dtype=float), policy.threshold)
    out = (1.0 / policy.threshold - 1.0 / g) / policy.k_used
    return out.item() if out.ndim == 0 else out


def wf_rate_bits(gamma, policy: Policy):
    """Bits per symbol at ``gamma``: log2(gamma/threshold) above the cutoff.

    Equals log2 of the constellation size M = 1 + k * gamma * P/avg_power
    with the water-filling power substituted. Scalar or array.
    """
    g = np.maximum(np.asarray(gamma, dtype=float), policy.threshold)
    out = np.log2(g / policy.threshold)
    return out.item() if out.ndim == 0 else out


def cutoff_rows(requests: Sequence[tuple[Scheme, ChannelParams]],
                em: ErrorModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of :func:`impulsewf.numerics.solve_cutoffs`, one per (scheme, link).

    Mixture ``weights`` and ``means`` of shape (rows, 2), zero-weight
    padded, and a budget constant ``k`` per row. Conventional prices its
    cutoff on the fed-back SINR, the clean/hit exponential mixture with
    weights 1-p and p, at k_sinr. Aggressive and conservative price theirs
    on the unit-mean fading power H, at k_sinr * SNR as if no symbol were
    hit and at that over (1 + INR) as if every symbol were.
    """
    weights = np.zeros((len(requests), 2))
    means = np.ones((len(requests), 2))
    k = np.empty(len(requests))
    for row, (scheme, params) in enumerate(requests):
        if scheme is Scheme.CONVENTIONAL:
            p = params.impulse_prob
            weights[row] = (1.0 - p, p)
            means[row] = (params.mean_sinr_clean, params.mean_sinr_impulse)
            k[row] = em.k_sinr
            continue
        weights[row, 0] = 1.0
        k_clean = em.k_sinr * params.snr_linear
        k[row] = (k_clean if scheme is Scheme.AGGRESSIVE
                  else k_clean / (1.0 + params.inr_linear))
    return weights, means, k


def make_policies(requests: Sequence[tuple[Scheme, ChannelParams]],
                  em: ErrorModel) -> list[Policy]:
    """Solve the cutoff of every (scheme, link) pair in one vectorised call.

    Each cutoff is solved independently of the others in the call, so
    the result for a pair equals ``make_policy`` on that pair alone.
    """
    weights, means, k = cutoff_rows(requests, em)
    thresholds = solve_cutoffs(weights, means, k)
    return [Policy(scheme=scheme, threshold=float(t), k_used=float(k_row))
            for (scheme, _), t, k_row in zip(requests, thresholds, k)]


def make_policy(scheme: Scheme, params: ChannelParams, em: ErrorModel) -> Policy:
    """Solve the cutoff for ``scheme`` on this link."""
    return make_policies([(scheme, params)], em)[0]


def policy_rate(policy: Policy, params: ChannelParams, em: ErrorModel) -> float:
    """Closed-form average spectral efficiency of a solved policy on ``params``.

    ``policy`` must have been solved for this link and ``em``; the
    aggressive and conservative cutoffs do not depend on the burst
    probability, so one such policy serves every p. Each rate is log2(e)
    times a weighted sum of E1(t / mean) over the SINR components the
    policy earns on. When bursts are lost (see :func:`bursts_lost`):

    * conventional: (1-p)^2 * E1(t/mean_clean) + p * E1(t/mean_hit). Symbols
      in a block whose burst state is worse than the fed-back first
      symbol's miss the BER target and earn nothing, which is what turns
      the burst-free weight into (1 - p)^2;
    * aggressive: (1 - p) * E1(t), as every burst-hit symbol misses the
      target;
    * conservative: E1(t) for every p, as the target is always met.

    When they are not, no symbol misses the target: conventional earns
    (1-p) * E1(t/mean_clean) + p * E1(t/mean_hit) and aggressive E1(t).

    At the cutoff E1(t) equals exp(-t)/t - k, the budget equation, but
    without the cancellation that form suffers when k is large.
    """
    t = policy.threshold
    p = params.impulse_prob
    lost = bursts_lost(params, em)
    if policy.scheme is Scheme.CONVENTIONAL:
        clean_weight = (1.0 - p) ** 2 if lost else 1.0 - p
        clean_part = exp1(t / params.mean_sinr_clean)
        hit_part = exp1(t / params.mean_sinr_impulse)
        return float(LOG2_E * (clean_weight * clean_part + p * hit_part))
    burst_free_rate = float(LOG2_E * exp1(t))
    if policy.scheme is Scheme.AGGRESSIVE and lost:
        # Scaling the p = 0 rate keeps the linearity in p exact in floats.
        return (1.0 - p) * burst_free_rate
    return burst_free_rate


def rate_conventional(params: ChannelParams, em: ErrorModel) -> float:
    """Average spectral efficiency of SINR-feedback water-filling."""
    return rate_for(Scheme.CONVENTIONAL, params, em)


def rate_aggressive(params: ChannelParams, em: ErrorModel) -> float:
    """Average spectral efficiency of burst-blind water-filling on H."""
    return rate_for(Scheme.AGGRESSIVE, params, em)


def rate_conservative(params: ChannelParams, em: ErrorModel) -> float:
    """Average spectral efficiency of worst-case water-filling on H."""
    return rate_for(Scheme.CONSERVATIVE, params, em)


def rate_for(scheme: Scheme, params: ChannelParams, em: ErrorModel) -> float:
    """Closed-form average spectral efficiency of ``scheme`` on this link:
    :func:`policy_rate` at the cutoff solved for it."""
    return policy_rate(make_policy(scheme, params, em), params, em)


def outage_prob_conventional(p: float) -> float:
    """Probability a symbol's burst state is worse than its block's feedback.

    Clean feedback (prob 1-p) combined with a hit symbol (prob p): p(1-p).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return p * (1.0 - p)


def impulse_ber_under_conventional(em: ErrorModel, inr_linear: float) -> float:
    """BER of a burst-hit symbol whose power and rate assumed a clean SINR.

    The water-filling terms cancel, leaving
    ber_coeff * exp(-1.5 / (k_sinr * (1 + INR))), algebraically equal to
    ber_coeff^(INR/(1+INR)) * target^(1/(1+INR)). Exceeds the target for
    every INR > 0; equals it at INR = 0.
    """
    if inr_linear < 0.0:
        raise ValueError(f"inr_linear must be >= 0, got {inr_linear}")
    if inr_linear == 0.0:
        return em.target_ber
    log_ratio = math.log(em.target_ber / em.ber_coeff)
    return em.ber_coeff * math.exp(log_ratio / (1.0 + inr_linear))


def bursts_lost(params: ChannelParams, em: ErrorModel) -> bool:
    """Whether a burst on a symbol adapted to a clean SINR misses the target.

    True at every INR above about -97 dB for the default target; false at
    zero interference (INR = -inf), where no burst costs a symbol. The
    closed-form rates, the outage law and the simulator all ask this one
    question, so they agree on which symbols earn nothing.
    """
    hit_ber = impulse_ber_under_conventional(em, params.inr_linear)
    return hit_ber > em.target_ber + OUTAGE_GUARD


def crossover_rates(params: ChannelParams, em: ErrorModel) -> tuple[float, float]:
    """Aggressive rate at p = 0 and conservative rate on this link, the two
    rates that fix the crossover, from one solve call."""
    at_p0 = replace(params, impulse_prob=0.0)
    aggressive, conservative = make_policies(
        [(Scheme.AGGRESSIVE, at_p0), (Scheme.CONSERVATIVE, at_p0)], em)
    return (policy_rate(aggressive, at_p0, em),
            policy_rate(conservative, at_p0, em))


def crossover_pth(params: ChannelParams, em: ErrorModel) -> float:
    """Burst probability where aggressive and conservative rates intersect.

    Aggressive falls linearly from its p = 0 rate while conservative is
    flat, so the crossing is 1 - rate_conservative / rate_aggressive(0).
    """
    return crossover_from_rates(*crossover_rates(params, em))


def crossover_from_rates(aggressive_at_p0: float, conservative: float) -> float:
    """Crossover 1 - conservative / aggressive_at_p0 of two solved rates."""
    if conservative > aggressive_at_p0:
        raise NoCrossoverError(
            f"conservative rate {conservative:.6g} is never below the "
            f"aggressive p=0 rate {aggressive_at_p0:.6g}")
    return 1.0 - conservative / aggressive_at_p0
