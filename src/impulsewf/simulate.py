"""Symbol-level Monte Carlo evaluation of the adaptation policies.

Each symbol carries three random ingredients: a fading power shared over
its coherence block, the burst state of the block's governing (first)
symbol, and the symbol's own burst state. The policy adapts power and rate
on the governing information; the symbol's own state decides the BER it
actually experiences.

Two sampling modes:

* ``per-symbol`` (default): every symbol draws an independent fading power
  and an independent (governing, actual) burst-state pair. This samples the
  closed-form rate expressions' expectations directly and reproduces them.
* ``block``: fading power and governing state are drawn once per block of
  ``block_len`` symbols, whose first symbol is the governing one, so its
  governing and actual states coincide by construction. That first symbol
  lifts the conventional rate above the per-symbol closed form;
  :func:`policy_sim_rate` gives the rate each mode should measure.

Outage accounting: a transmitted symbol is in outage when its realised BER
exceeds the target (plus a 1e-12 guard for the exact-equality case at zero
INR). With water-filling, the realised BER of a transmitted symbol
collapses to a per-burst-state constant -- the target itself when the
governing assumption matches or over-protects, and the clean-priced hit
BER of :func:`impulse_ber_under_conventional` when a burst sneaks past a
clean assumption -- so :func:`impulsewf.adaptation.bursts_lost` decides
the mask rather than per-symbol arithmetic. Under the conventional scheme,
symbols parked below the cutoff while their block's feedback overstated
their SINR are counted as outage as well: the scheme broke its per-block
guarantee for them, and the p(1-p) outage law counts exactly these
mismatch events. Zero-rate symbols never experience an error event under
the other two schemes.

Determinism: a run is a pure function of (params, error model, scheme,
config). Chunked runs derive one child seed per chunk from the master seed,
so serial and thread-parallel execution aggregate bit-identically.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.special import exp1

from .adaptation import (LOG2_E, ErrorModel, Policy, Scheme, bursts_lost,
                         make_policy, outage_prob_conventional, policy_rate,
                         wf_power_fraction, wf_rate_bits)
from .channel import ChannelParams, sample_fading, sinr_of

__all__ = [
    "SimMode",
    "SimConfig",
    "SimResult",
    "simulate_policy",
    "simulate",
    "aggregate",
    "chunk_seed",
    "chunk_configs",
    "simulate_chunked",
    "policy_outage",
    "policy_sim_rate",
    "expected_outage",
]


class SimMode(Enum):
    PER_SYMBOL = "per-symbol"
    BLOCK = "block"


@dataclass(frozen=True)
class SimConfig:
    """Size, seed and sampling mode of one simulation run."""

    n_symbols: int = 100_000
    seed: int = 12345
    mode: SimMode = SimMode.PER_SYMBOL
    block_len: int = 4

    def __post_init__(self) -> None:
        if self.n_symbols < 1:
            raise ValueError(f"n_symbols must be >= 1, got {self.n_symbols}")
        if self.block_len < 1:
            raise ValueError(f"block_len must be >= 1, got {self.block_len}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class SimResult:
    """Empirical outcome of a run (or a merge of runs).

    ``counts`` tallies symbols by (governing burst state, actual burst
    state), where the governing state is the one the scheme adapted on:
    the sampled feedback state for conventional, always-clean for
    aggressive, always-hit for conservative. ``rate_sq_mean`` carries the
    second moment of the per-symbol credited rate so standard errors
    survive aggregation. In block mode ``n_symbols`` is the value after
    rounding up to whole blocks.
    """

    scheme: str
    mode: str
    block_len: int
    n_symbols: int
    avg_se: float
    outage_frac: float
    mean_power_frac: float
    rate_sq_mean: float
    counts: tuple[tuple[int, int], tuple[int, int]]
    seed_used: int

    @property
    def avg_se_stderr(self) -> float:
        """Standard error of avg_se from the per-symbol rate variance.

        Block mode uses the bound block_len * variance / n_symbols, which
        holds however strongly a block's shared fading ties its symbols.
        """
        variance = max(self.rate_sq_mean - self.avg_se ** 2, 0.0)
        if self.mode == SimMode.BLOCK.value:
            variance *= self.block_len
        return math.sqrt(variance / self.n_symbols)


def _draw_states(params: ChannelParams, cfg: SimConfig,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample (fading power, governing state, actual state) per symbol."""
    p = params.impulse_prob
    if cfg.mode is SimMode.PER_SYMBOL:
        n = cfg.n_symbols
        h = sample_fading(rng, n)
        governing = rng.random(n) < p
        actual = rng.random(n) < p
        return h, governing, actual
    n_blocks = -(-cfg.n_symbols // cfg.block_len)
    h = np.repeat(sample_fading(rng, n_blocks), cfg.block_len)
    mask = rng.random((n_blocks, cfg.block_len)) < p
    governing = np.repeat(mask[:, 0], cfg.block_len)
    actual = mask.reshape(-1)
    return h, governing, actual


def simulate_policy(policy: Policy, params: ChannelParams, em: ErrorModel,
                    cfg: SimConfig) -> SimResult:
    """Run one deterministic Monte Carlo stream and measure a solved policy.

    ``policy`` must have been solved for this link (see
    :func:`impulsewf.adaptation.policy_rate`). Per symbol: adapt power and
    rate on the governing information, score the symbol against its
    actual burst state. Conventional adapts on the SINR its governing
    state implies; aggressive and conservative adapt on the fading power
    H itself. ``avg_se`` averages the rate of transmitted,
    non-outage symbols over all symbols; ``mean_power_frac`` averages the
    spent power fraction over all symbols including the zero-power ones
    below the cutoff.
    """
    scheme = policy.scheme
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    h, governing, actual = _draw_states(params, cfg, rng)
    n = h.size

    if scheme is Scheme.CONVENTIONAL:
        basis = sinr_of(params, h, governing, params.avg_power)
    else:
        basis = h
    power = wf_power_fraction(basis, policy)
    transmitted = power > 0.0
    rate = np.where(transmitted, wf_rate_bits(basis, policy), 0.0)

    # Realised BER of a transmitted symbol is the target unless a burst
    # defeats a clean governing assumption (see bursts_lost).
    if scheme is Scheme.CONSERVATIVE or not bursts_lost(params, em):
        outage = np.zeros(n, dtype=bool)
    elif scheme is Scheme.CONVENTIONAL:
        outage = ~governing & actual
    else:
        outage = transmitted & actual

    credited = np.where(transmitted & ~outage, rate, 0.0)

    if scheme is Scheme.CONVENTIONAL:
        governing_row = governing
    else:
        governing_row = np.full(n, scheme is Scheme.CONSERVATIVE)
    tallies = np.bincount(2 * governing_row.astype(np.int64) + actual, minlength=4)

    return SimResult(
        scheme=scheme.value,
        mode=cfg.mode.value,
        block_len=cfg.block_len,
        n_symbols=n,
        avg_se=float(credited.sum() / n),
        outage_frac=float(outage.sum() / n),
        mean_power_frac=float(power.sum() / n),
        rate_sq_mean=float((credited ** 2).sum() / n),
        counts=((int(tallies[0]), int(tallies[1])),
                (int(tallies[2]), int(tallies[3]))),
        seed_used=cfg.seed,
    )


def simulate(params: ChannelParams, em: ErrorModel, scheme: Scheme,
             cfg: SimConfig) -> SimResult:
    """Solve ``scheme``'s cutoff on this link and run :func:`simulate_policy`."""
    return simulate_policy(make_policy(scheme, params, em), params, em, cfg)


def aggregate(results: list[SimResult]) -> SimResult:
    """Count-weighted merge of per-chunk results.

    Equivalent to a single run over the concatenated streams; merging in
    list order keeps the floating-point reduction deterministic.
    """
    if not results:
        raise ValueError("nothing to aggregate")
    first = results[0]
    for r in results[1:]:
        if (r.scheme, r.mode, r.block_len) != (first.scheme, first.mode,
                                               first.block_len):
            raise ValueError(
                f"mismatched chunk configs: {(r.scheme, r.mode, r.block_len)} "
                f"vs {(first.scheme, first.mode, first.block_len)}")
    n = sum(r.n_symbols for r in results)
    counts = [[0, 0], [0, 0]]
    for r in results:
        for i in (0, 1):
            for j in (0, 1):
                counts[i][j] += r.counts[i][j]

    def weighted(field: str) -> float:
        return sum(getattr(r, field) * r.n_symbols for r in results) / n

    return SimResult(
        scheme=first.scheme,
        mode=first.mode,
        block_len=first.block_len,
        n_symbols=n,
        avg_se=weighted("avg_se"),
        outage_frac=weighted("outage_frac"),
        mean_power_frac=weighted("mean_power_frac"),
        rate_sq_mean=weighted("rate_sq_mean"),
        counts=((counts[0][0], counts[0][1]), (counts[1][0], counts[1][1])),
        seed_used=first.seed_used,
    )


def chunk_seed(master_seed: int, index: int) -> int:
    """Child seed for chunk ``index`` of a run seeded with ``master_seed``."""
    state = np.random.SeedSequence([master_seed, index]).generate_state(2, np.uint64)
    return (int(state[0]) << 64) | int(state[1])


def chunk_configs(cfg: SimConfig, n_chunks: int) -> list[SimConfig]:
    """Split a config into per-chunk configs with derived seeds."""
    if not 1 <= n_chunks <= cfg.n_symbols:
        raise ValueError(f"n_chunks must be in [1, n_symbols], got {n_chunks}")
    base, extra = divmod(cfg.n_symbols, n_chunks)
    return [replace(cfg, n_symbols=base + (1 if i < extra else 0),
                    seed=chunk_seed(cfg.seed, i))
            for i in range(n_chunks)]


def simulate_chunked(params: ChannelParams, em: ErrorModel, scheme: Scheme,
                     cfg: SimConfig, n_chunks: int,
                     parallel: bool = False) -> SimResult:
    """Run ``n_chunks`` independent streams and merge them.

    Serial and thread-parallel execution produce bit-identical results
    because every chunk owns a private generator and the merge happens in
    chunk order. The cutoff is solved once and shared by the chunks.
    """
    configs = chunk_configs(cfg, n_chunks)
    policy = make_policy(scheme, params, em)
    if parallel:
        with ThreadPoolExecutor(max_workers=min(n_chunks, 8)) as pool:
            results = list(pool.map(
                lambda c: simulate_policy(policy, params, em, c), configs))
    else:
        results = [simulate_policy(policy, params, em, c) for c in configs]
    return replace(aggregate(results), seed_used=cfg.seed)


def policy_outage(policy: Policy, params: ChannelParams, em: ErrorModel,
                  mode: SimMode = SimMode.PER_SYMBOL,
                  block_len: int = 4) -> float:
    """Outage fraction the sampling law predicts for a solved policy.

    Conventional: the governing/actual mismatch probability p(1-p), scaled
    by (block_len - 1)/block_len in block mode where the first symbol of a
    block can never mismatch. Aggressive: bursts landing on transmitted
    symbols, p * P(H > cutoff). Conservative: zero. All zero when a burst
    cannot push the BER past the target (zero INR; see
    :func:`impulsewf.adaptation.bursts_lost`).
    """
    if not bursts_lost(params, em):
        return 0.0
    p = params.impulse_prob
    if policy.scheme is Scheme.CONVENTIONAL:
        scale = (block_len - 1) / block_len if mode is SimMode.BLOCK else 1.0
        return outage_prob_conventional(p) * scale
    if policy.scheme is Scheme.AGGRESSIVE:
        return p * math.exp(-policy.threshold)
    return 0.0


def policy_sim_rate(policy: Policy, params: ChannelParams, em: ErrorModel,
                    mode: SimMode, block_len: int) -> float:
    """Average rate the sampling law of ``mode`` predicts for a solved policy.

    Per-symbol mode samples :func:`impulsewf.adaptation.policy_rate`. In
    block mode the first symbol of a conventional block cannot mismatch its
    feedback, which adds p(1-p)/block_len * log2(e) * E1(t/mean_clean) when
    bursts are lost; the law of H, which the other schemes adapt on, stays.
    """
    rate = policy_rate(policy, params, em)
    if (mode is SimMode.BLOCK and policy.scheme is Scheme.CONVENTIONAL
            and bursts_lost(params, em)):
        first_symbol_gain = outage_prob_conventional(params.impulse_prob) / block_len
        rate += first_symbol_gain * LOG2_E * float(
            exp1(policy.threshold / params.mean_sinr_clean))
    return rate


def expected_outage(scheme: Scheme, params: ChannelParams, em: ErrorModel,
                    mode: SimMode = SimMode.PER_SYMBOL,
                    block_len: int = 4) -> float:
    """Solve ``scheme``'s cutoff on this link and apply :func:`policy_outage`."""
    return policy_outage(make_policy(scheme, params, em), params, em,
                         mode, block_len)
