"""BER-targeted rate/power adaptation policies and their average-rate closed forms.

Continuous-rate M-QAM over the fading channel of :mod:`impulsewf.channel`:
the transmitter picks a power fraction and constellation size from the
SINR it believes a symbol has, holding the instantaneous bit error rate at
a target while spending the average power budget exactly. The three
policies are one rule, water-filling on the SINR, under three beliefs
about the burst state, and :func:`assumption_weights` gives each belief:

* ``conventional`` believes the burst state fed back at the start of each
  coherence block, clean with probability 1-p and hit with probability p;
* ``aggressive`` believes every symbol is clean;
* ``conservative`` believes every symbol is hit.

A belief is a pair of weights (w_clean, w_hit) on the link's two-state
SINR table, the means (mean_sinr_clean, mean_sinr_impulse). Every cutoff
is priced on that table at the budget constant ``k_sinr``, so every
threshold is on the SINR scale: ``cutoff_rows`` lays out the rows,
``make_policies`` solves each distinct row once in one call of
:func:`impulsewf.numerics.solve_cutoffs`, into policies that carry the
link and error model they were solved for, and :func:`policy_law`, the
one place that prices what a burst costs a symbol believed clean, reads
the same weights to give the rate, log2(e) times a weighted sum of
E1(t / mean), and the outage. All functions are pure and all records
immutable.
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
    "assumption_weights",
    "adaptation_key",
    "cutoff_rows",
    "make_policies",
    "policy_law",
    "bursts_lost",
    "crossover",
]

LOG2_E = math.log2(math.e)


class Scheme(Enum):
    CONVENTIONAL = "conventional"
    AGGRESSIVE = "aggressive"
    CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class ErrorModel:
    """Instantaneous BER constraint for continuous-rate M-QAM.

    The BER curve is ``ber_coeff * exp(-1.5 * sinr / (M - 1))``; holding it
    at ``target_ber`` ties constellation size to received SINR. Requires
    0 < target_ber < ber_coeff < inf with a ratio that does not underflow
    to 0, else the tie-in constant is not finite and positive and no
    cutoff exists.
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
        if not self.target_ber / self.ber_coeff > 0.0:
            raise ValueError(
                f"ber_coeff must be finite and target_ber / ber_coeff above "
                f"0, got target_ber={self.target_ber}, "
                f"ber_coeff={self.ber_coeff}")

    @property
    def k_sinr(self) -> float:
        """Constant k = -1.5 / ln(target/coeff) tying M - 1 to sinr * power."""
        return -1.5 / math.log(self.target_ber / self.ber_coeff)


@dataclass(frozen=True)
class Policy:
    """A water-filling policy solved by :func:`make_policies`: the scheme,
    the link and error model it was solved for, and its cutoff on the SINR
    it believes a symbol has, priced at ``em.k_sinr``."""

    scheme: Scheme
    params: ChannelParams
    em: ErrorModel
    threshold: float

    def __post_init__(self) -> None:
        if not self.threshold > 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


def assumption_weights(scheme: Scheme, p: float) -> tuple[float, float]:
    """(w_clean, w_hit): the probabilities that ``scheme`` adapts a symbol
    as if it is burst-free and as if it is hit, at burst probability p.

    Conventional believes the fed-back burst state, whose law is (1-p, p);
    aggressive always believes clean and conservative always believes hit.
    """
    if scheme is Scheme.CONVENTIONAL:
        return 1.0 - p, p
    return (1.0, 0.0) if scheme is Scheme.AGGRESSIVE else (0.0, 1.0)


def adaptation_key(scheme: Scheme, params: ChannelParams) -> tuple:
    """What a (scheme, link) pair adapts on under one error model: the
    scheme's :func:`assumption_weights`, which carry p only for a belief
    read from feedback, and the link's SNR and INR. Pairs with one key
    solve to one cutoff and adapt every block alike."""
    return (assumption_weights(scheme, params.impulse_prob), params.snr_db,
            params.inr_db)


def cutoff_rows(requests: Sequence[tuple[Scheme, ChannelParams]]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Mixture rows of :func:`impulsewf.numerics.solve_cutoffs`, one per
    (scheme, link): the scheme's :func:`assumption_weights` on the link's
    SINR means (mean_sinr_clean, mean_sinr_impulse), both of shape
    (rows, 2). Every row is solved at the budget constant ``k_sinr``.
    """
    weights = np.array([assumption_weights(scheme, params.impulse_prob)
                        for scheme, params in requests]).reshape(-1, 2)
    means = np.array([(params.mean_sinr_clean, params.mean_sinr_impulse)
                      for _, params in requests]).reshape(-1, 2)
    return weights, means


def make_policies(requests: Sequence[tuple[Scheme, ChannelParams]],
                  em: ErrorModel) -> list[Policy]:
    """Solve the cutoff of every (scheme, link) pair in one vectorised call.

    Each distinct row is solved once: a fixed belief's row is the same at
    every p, and conventional's rows at p = 0 and p = 1 are aggressive's
    and conservative's. Rows are solved independently of each other, so
    the result for a pair equals that of a call on that pair alone.
    """
    keys = [adaptation_key(scheme, link) for scheme, link in requests]
    distinct = dict(zip(keys, requests))
    weights, means = cutoff_rows(list(distinct.values()))
    solved = dict(zip(distinct, solve_cutoffs(
        weights, means, np.full(len(distinct), em.k_sinr)).tolist()))
    return [Policy(scheme, link, em, solved[key])
            for (scheme, link), key in zip(requests, keys)]


def policy_law(policy: Policy, mismatch: float = 1.0) -> tuple[float, float]:
    """(rate, outage) of a solved policy on its link, in closed form.

    ``mismatch`` is the share of symbols whose own burst state is drawn
    apart from the state fed back (``SimConfig.mismatch``): 1 in the
    paper's model, (L - 1)/L in block sampling. With the scheme's weights
    (w_clean, w_hit) and R = log2(e) * E1(t / mean), what a symbol
    believed in a state earns,

        rate = (1 - p * exposed) * w_clean * R_clean + w_hit * R_hit,
        outage = p * w_clean * share.

    When :func:`bursts_lost`, a burst on a symbol believed clean earns
    nothing. A belief read from feedback (0 < w_hit < 1) then exposes and
    counts the mismatched share, parked or not (exposed = share =
    mismatch); a fixed belief exposes every symbol and loses those it
    transmits (exposed = 1, share = exp(-t / mean_sinr_clean)). Otherwise
    exposed = share = 0.
    At mismatch 1, conventional earns (1-p)^2 R_clean + p R_hit,
    aggressive (1 - p) R_clean, exactly linear in p, and conservative R_hit.

    For a one-state belief the budget equation makes E1(z), z = t/m,
    equal exp(-z)/z - k*m at the cutoff; E1 avoids the cancellation that
    form suffers when k*m is large.
    """
    t, params = policy.threshold, policy.params
    p = params.impulse_prob
    w_clean, w_hit = assumption_weights(policy.scheme, p)
    clean_rate = LOG2_E * exp1(t / params.mean_sinr_clean)
    hit_rate = LOG2_E * exp1(t / params.mean_sinr_impulse)
    if not bursts_lost(params):
        exposed = share = 0.0
    elif 0.0 < w_hit < 1.0:
        exposed = share = mismatch
    else:
        exposed, share = 1.0, math.exp(-t / params.mean_sinr_clean)
    rate = (1.0 - p * exposed) * w_clean * clean_rate + w_hit * hit_rate
    return float(rate), p * w_clean * share


def bursts_lost(params: ChannelParams) -> bool:
    """Whether a burst on a symbol adapted to a clean SINR misses the target.

    Water-filling holds such a symbol at BER ber_coeff^(INR/(1+INR)) *
    target^(1/(1+INR)), above the target for every INR > 0 and equal to it
    at zero interference (INR = -inf), where no burst costs a symbol. The
    closed-form rates, the outage law and the simulator all ask this one
    question, so they agree on which symbols earn nothing.
    """
    return params.inr_linear > 0.0


def crossover(params: ChannelParams, em: ErrorModel
              ) -> tuple[float, float, float]:
    """(aggressive_at_p0, conservative, p_th) on this link, from one solve
    call: the aggressive rate at p = 0, the conservative rate, and the
    burst probability where the two rates intersect.

    Aggressive falls linearly from its p = 0 rate while conservative is
    flat, so the crossing is 1 - conservative / aggressive_at_p0. Burst-hit
    symbols never have the larger mean SINR, so conservative is at most
    aggressive_at_p0; below about -150 dB INR the cutoff solves can still
    put it a few ulps above, and the clamp at 0 absorbs that rounding.
    """
    at_p0 = replace(params, impulse_prob=0.0)
    aggressive, conservative = make_policies(
        [(Scheme.AGGRESSIVE, at_p0), (Scheme.CONSERVATIVE, at_p0)], em)
    rate_n0, _ = policy_law(aggressive)
    rate_i, _ = policy_law(conservative)
    return rate_n0, rate_i, max(0.0, 1.0 - rate_i / rate_n0)
