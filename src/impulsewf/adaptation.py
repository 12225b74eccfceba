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
evaluated at a water-filling cutoff. Cutoffs come from one vectorised
solve of the power budget (:func:`impulsewf.numerics.solve_cutoffs`):
``make_policies`` solves any number of (scheme, link) pairs in one call,
and the ``policy_*`` closed forms consume the solved policies, so a sweep
solves each cutoff once. The scalar ``rate_*`` functions wrap the same
path for one link. All functions are pure and all records immutable.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.special import exp1

from .channel import ChannelParams, DensityKind, SinrDensity
from .numerics import budget_rows, solve_cutoffs

__all__ = [
    "LOG2_E",
    "Scheme",
    "PolicyDomain",
    "ErrorModel",
    "WaterfillConstants",
    "Policy",
    "NoCrossoverError",
    "qam_ber",
    "wf_power_fraction",
    "wf_rate_bits",
    "solve_threshold",
    "make_policies",
    "make_policy",
    "policy_rate",
    "rate_conventional",
    "rate_aggressive",
    "rate_conservative",
    "rate_for",
    "outage_prob_conventional",
    "impulse_ber_under_conventional",
    "crossover_pth",
    "crossover_from_rates",
]

LOG2_E = math.log2(math.e)


class Scheme(Enum):
    CONVENTIONAL = "conventional"
    AGGRESSIVE = "aggressive"
    CONSERVATIVE = "conservative"


class PolicyDomain(Enum):
    """Variable the water-filling cutoff lives on."""

    SINR = "sinr"
    CHANNEL_GAIN = "channel_gain"


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
class WaterfillConstants:
    """Budget constants k for each adaptation domain.

    ``k_sinr`` prices power in the SINR domain; ``k_clean`` and
    ``k_impulse`` are its images in the fading-power domain under the
    burst-free and burst-hit noise levels.
    """

    k_sinr: float
    k_clean: float
    k_impulse: float

    @classmethod
    def for_link(cls, params: ChannelParams, em: ErrorModel) -> "WaterfillConstants":
        k_sinr = em.k_sinr
        k_clean = k_sinr * params.snr_linear
        return cls(k_sinr=k_sinr, k_clean=k_clean,
                   k_impulse=k_clean / (1.0 + params.inr_linear))


@dataclass(frozen=True)
class Policy:
    """A solved water-filling policy: scheme, cutoff and budget constant."""

    scheme: Scheme
    threshold: float
    k_used: float
    domain: PolicyDomain

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
    """Transmit power fraction P/avg_power at ``gamma`` in the policy domain.

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


def _component_table(densities: Sequence[SinrDensity]) -> tuple[np.ndarray, np.ndarray]:
    """Weights and means, one row per density, padded with zero weights."""
    weights = np.zeros((len(densities), 2))
    means = np.ones((len(densities), 2))
    for row, density in enumerate(densities):
        for col, (weight, mean) in enumerate(density.components):
            weights[row, col] = weight
            means[row, col] = mean
    return weights, means


def budget_lhs(density: SinrDensity, threshold: float) -> float:
    """Average of (1/threshold - 1/gamma)+ under ``density``, in closed form.

    Per exponential component of mean m this is
    exp(-t/m)/t - E1(t/m)/m, summed with the component weights.
    """
    weights, means = _component_table([density])
    return float(budget_rows([threshold], weights, means)[0])


def solve_threshold(density: SinrDensity, k: float) -> float:
    """Cutoff at which the average water-filling spend equals the budget.

    Solves budget_lhs(density, t) = k for t. The left side decreases from
    +inf to 0, so a root always exists for k > 0.
    """
    weights, means = _component_table([density])
    return float(solve_cutoffs(weights, means, [k])[0])


def _budget_setup(scheme: Scheme, params: ChannelParams,
                  em: ErrorModel) -> tuple[SinrDensity, float, PolicyDomain]:
    """Density the cutoff of ``scheme`` is priced on, its budget constant
    and the domain the cutoff lives on."""
    consts = WaterfillConstants.for_link(params, em)
    if scheme is Scheme.CONVENTIONAL:
        return (SinrDensity.for_params(params, DensityKind.MIXTURE),
                consts.k_sinr, PolicyDomain.SINR)
    k = consts.k_clean if scheme is Scheme.AGGRESSIVE else consts.k_impulse
    return SinrDensity.unit_exponential(), k, PolicyDomain.CHANNEL_GAIN


def make_policies(requests: Sequence[tuple[Scheme, ChannelParams]],
                  em: ErrorModel) -> list[Policy]:
    """Solve the cutoff of every (scheme, link) pair in one vectorised call.

    Each cutoff is solved independently of the others in the call, so
    the result for a pair equals ``make_policy`` on that pair alone.
    """
    setups = [_budget_setup(scheme, params, em) for scheme, params in requests]
    weights, means = _component_table([density for density, _, _ in setups])
    thresholds = solve_cutoffs(weights, means, [k for _, k, _ in setups])
    return [Policy(scheme=scheme, threshold=float(t), k_used=k, domain=domain)
            for (scheme, _), (_, k, domain), t in zip(requests, setups, thresholds)]


def make_policy(scheme: Scheme, params: ChannelParams, em: ErrorModel) -> Policy:
    """Solve the cutoff for ``scheme`` on this link."""
    return make_policies([(scheme, params)], em)[0]


def policy_rate(policy: Policy, params: ChannelParams) -> float:
    """Closed-form average spectral efficiency of a solved policy on ``params``.

    ``policy`` must have been solved for this link; the aggressive and
    conservative cutoffs do not depend on the burst probability, so one
    such policy serves every p. Each rate is log2(e) times a weighted sum
    of E1(t / mean) over the SINR components the policy earns on:

    * conventional: (1-p)^2 * E1(t/mean_clean) + p * E1(t/mean_hit). Symbols
      in a block whose burst state is worse than the fed-back first
      symbol's miss the BER target and earn nothing, which is what turns
      the burst-free weight into (1 - p)^2;
    * aggressive: (1 - p) * E1(t), as every burst-hit symbol misses the
      target;
    * conservative: E1(t) for every p, as the target is always met.

    At the cutoff E1(t) equals exp(-t)/t - k, the budget equation, but
    without the cancellation that form suffers when k is large.
    """
    t = policy.threshold
    p = params.impulse_prob
    if policy.scheme is Scheme.CONVENTIONAL:
        clean_part = exp1(t / params.mean_sinr_clean)
        hit_part = exp1(t / params.mean_sinr_impulse)
        return float(LOG2_E * ((1.0 - p) ** 2 * clean_part + p * hit_part))
    burst_free_rate = float(LOG2_E * exp1(t))
    if policy.scheme is Scheme.AGGRESSIVE:
        # Scaling the p = 0 rate keeps the linearity in p exact in floats.
        return (1.0 - p) * burst_free_rate
    return burst_free_rate


def rate_conventional(params: ChannelParams, em: ErrorModel) -> float:
    """Average spectral efficiency of SINR-feedback water-filling.

    The cutoff is priced on the clean/hit mixture; see :func:`policy_rate`:

        (1-p)^2 * log2(e) * E1(t/mean_clean) + p * log2(e) * E1(t/mean_hit)
    """
    return policy_rate(make_policy(Scheme.CONVENTIONAL, params, em), params)


def rate_aggressive(params: ChannelParams, em: ErrorModel) -> float:
    """Average spectral efficiency of burst-blind water-filling on H.

    Every burst-hit symbol misses the BER target and earns nothing, leaving
    (1 - p) * log2(e) * E1(t) with t the clean-priced cutoff.
    """
    return policy_rate(make_policy(Scheme.AGGRESSIVE, params, em), params)


def rate_conservative(params: ChannelParams, em: ErrorModel) -> float:
    """Average spectral efficiency of worst-case water-filling on H.

    Pricing for the burst-hit noise level means the target is always met,
    so the rate log2(e) * E1(t) holds for every burst probability.
    """
    return policy_rate(make_policy(Scheme.CONSERVATIVE, params, em), params)


def rate_for(scheme: Scheme, params: ChannelParams, em: ErrorModel) -> float:
    """Closed-form average spectral efficiency of ``scheme``."""
    return policy_rate(make_policy(scheme, params, em), params)


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


def crossover_pth(params: ChannelParams, em: ErrorModel) -> float:
    """Burst probability where aggressive and conservative rates intersect.

    Aggressive falls linearly from its p = 0 rate while conservative is
    flat, so the crossing is 1 - rate_conservative / rate_aggressive(0).
    """
    at_p0 = replace(params, impulse_prob=0.0)
    aggressive, conservative = make_policies(
        [(Scheme.AGGRESSIVE, at_p0), (Scheme.CONSERVATIVE, at_p0)], em)
    return crossover_from_rates(policy_rate(aggressive, at_p0),
                                policy_rate(conservative, at_p0))


def crossover_from_rates(aggressive_at_p0: float, conservative: float) -> float:
    """Crossover 1 - conservative / aggressive_at_p0 of two solved rates."""
    if conservative > aggressive_at_p0:
        raise NoCrossoverError(
            f"conservative rate {conservative:.6g} is never below the "
            f"aggressive p=0 rate {aggressive_at_p0:.6g}")
    return 1.0 - conservative / aggressive_at_p0
