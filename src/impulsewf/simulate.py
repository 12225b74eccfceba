"""Symbol-level Monte Carlo evaluation of the adaptation policies.

The simulator's unit is the coherence block: a fading power, the burst
state fed back for the block, and the burst state of each of its symbols.
A scheme adapts power and rate once per block, on the SINR of the burst
state it assumes, H times that state's mean SINR: the fed-back state under
conventional, whose belief is not one fixed state, and one fixed state
under aggressive (clean) and conservative (hit), which never read the
fed-back states. Each symbol's own state decides the BER it actually
experiences, so a block earns its rate once per symbol that is not lost.

Two sampling modes:

* ``per-symbol`` (default): blocks of one symbol, whose fed-back state is
  drawn apart from its actual one. This samples the closed-form rate
  expressions' expectations directly and reproduces them.
* ``block``: blocks of ``block_len`` symbols, whose fed-back state is the
  state of the block's first symbol, so that symbol never mismatches its
  feedback. It lifts the conventional rate above the per-symbol closed form.

:func:`impulsewf.adaptation.policy_law` at ``SimConfig.mismatch`` gives
the rate and outage each mode should measure.

Outage accounting: a transmitted symbol is in outage when its realised BER
exceeds the target. With water-filling, that BER collapses to a
per-burst-state constant -- the target itself when the assumed state
matches or over-protects, and a BER above it when a burst hits a symbol
assumed clean -- so :func:`impulsewf.adaptation.bursts_lost` decides the
mask rather than per-symbol arithmetic. Under a belief read from feedback,
symbols parked below the cutoff while their block's feedback overstated
their SINR are counted as outage as well: the scheme broke its per-block
guarantee for them, and the outage law counts exactly these mismatch
events. Under a fixed belief zero-rate symbols never see an error event.

Determinism and memory: a run is a pure function of (policies, config).
It reads one PCG64 stream, seeded with ``cfg.seed``, in consecutive
segments. With B blocks of L symbols (L = 1 and B = n per symbol) the
block fading uniforms come first, at [0, B). Per-symbol mode then draws
the fed-back states at [B, 2B) and the actual states at [2B, 3B); block
mode draws the row-major (B, L) burst mask at [B, B + B*L), whose first
column is the fed-back state. The stream depends on the config alone, so
every row of a sweep reads it (common random numbers):
:func:`simulate_policies` draws each window once and compares its burst
uniforms with each distinct p once. Rows that agree on all the
adaptation reads (cutoff, error model, belief, link) adapt once per
window; each row is scored on its own hit counts in its group's one
scratch buffer. A window holds ``max(1, WINDOW // L)`` blocks, read from
generators positioned with ``PCG64.advance``; only each row's outage
count and float sums cross windows, in window order, so a row measures
the same in a sweep as alone. Peak memory is O(max(WINDOW, block_len))
symbols plus each block's fed-back state and hit count per distinct p,
whatever ``n_symbols`` is. The window size changes no draw: outage counts
are exact, and the float sums move only by their summation order.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adaptation import (Policy, adaptation_key, assumption_weights,
                         bursts_lost)
from .channel import sample_fading

__all__ = ["SimMode", "SimConfig", "SimResult", "simulate_policies"]

# Symbols evaluated at once; bounds the simulator's memory.
WINDOW = 2 ** 20


class SimMode(Enum):
    PER_SYMBOL = "per-symbol"
    BLOCK = "block"


@dataclass(frozen=True)
class SimConfig:
    """Size, seed and sampling mode of one simulation run.

    In block mode ``block_len`` may not exceed ``n_symbols``: a block is
    drawn whole, so a longer one would simulate more symbols than asked.
    """

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
        if self.mode is SimMode.BLOCK and self.block_len > self.n_symbols:
            raise ValueError(f"block_len must not exceed n_symbols in block "
                             f"mode, got block_len={self.block_len} > "
                             f"n_symbols={self.n_symbols}")

    @property
    def batch(self) -> int:
        """Symbols per simulated block, the run's i.i.d. unit:
        ``block_len`` in block mode, 1 per symbol."""
        return self.block_len if self.mode is SimMode.BLOCK else 1

    @property
    def mismatch(self) -> float:
        """``policy_law``'s ``mismatch``: each symbol draws its burst state
        apart from the fed-back one, except the first of a block."""
        if self.mode is SimMode.BLOCK:
            return (self.batch - 1) / self.batch
        return 1.0


@dataclass(frozen=True)
class SimResult:
    """Empirical outcome of a run.

    ``avg_se_stderr`` is the batch-means standard error of ``avg_se``:
    blocks are i.i.d., so it is the spread of the block means over the
    root of their number. In block mode ``n_symbols`` is the value after
    rounding up to whole blocks.
    """

    n_symbols: int
    avg_se: float
    avg_se_stderr: float
    outage_frac: float
    mean_power_frac: float


def _stream(seed: int, offset: int) -> np.random.Generator:
    """Generator reading the run's PCG64 stream from draw ``offset`` on."""
    return np.random.Generator(np.random.PCG64(seed).advance(offset))


def _draw_windows(cfg: SimConfig, ps: Collection[float], feedback: bool
                  ) -> Iterator[tuple[np.ndarray, dict]]:
    """Yield, per window of whole blocks in stream order (module
    docstring), each block's fading power and, for each burst probability
    in ``ps``, each block's fed-back state and number of hit symbols. With
    ``feedback`` false the per-symbol fed-back states are left undrawn and
    yielded as None; the burst segment still starts after theirs."""
    batch = cfg.batch
    n_blocks = -(-cfg.n_symbols // batch)
    # Per symbol, the fed-back states have a segment of their own.
    own_feedback = cfg.mode is SimMode.PER_SYMBOL
    fading, fed = _stream(cfg.seed, 0), _stream(cfg.seed, n_blocks)
    bursts = _stream(cfg.seed, (1 + own_feedback) * n_blocks)
    count = np.min_scalar_type(batch)
    step = max(1, WINDOW // batch)
    for start in range(0, n_blocks, step):
        size = min(step, n_blocks - start)
        # The fading array, which lives longest, is allocated before the
        # draws' temporaries; on a short last window that keeps RSS down.
        h = sample_fading(fading, size)
        # The row-major (blocks, L) draw. Each p's mask is laid out one
        # row per symbol of a block, so its hit count sums whole rows.
        u = bursts.random((size, batch))
        hits = {p: np.add.reduce(np.ascontiguousarray((u < p).T), axis=0,
                                 dtype=count) for p in ps}
        # In block mode the fed-back state is the first symbol's.
        if own_feedback:
            u = fed.random((size, 1)) if feedback else None
        fed_back = {p: None if u is None else u[:, 0] < p for p in ps}
        del u
        yield h, {p: (fed_back[p], hits[p]) for p in ps}
        # Release this window's arrays before the next one is drawn.
        del h, hits, fed_back


def _adapt(policy: Policy, h: np.ndarray, states: dict) -> tuple:
    """Adapt one window (``h`` and ``states`` of :func:`_draw_windows`)
    for ``policy``'s group: the power summed over the blocks, each block's
    rate and whether a burst on it is lost, and a scratch buffer.

    At cutoff t and budget constant k = ``em.k_sinr`` water-filling on
    g = max(H times the assumed state's mean SINR, t) spends the power
    (1/t - 1/g) / k and carries log2(g / t) bits, both 0 up to the cutoff."""
    params = policy.params
    _, w_hit = assumption_weights(policy.scheme, params.impulse_prob)
    table = np.array([params.mean_sinr_clean, params.mean_sinr_impulse])
    parked = 0.0 < w_hit < 1.0
    if parked:
        assumed = states[params.impulse_prob][0]
        basis = table.take(assumed)
        basis *= h
    else:
        assumed = np.bool_(w_hit == 1.0)
        basis = h * table[int(assumed)]
    t, k = policy.threshold, policy.em.k_sinr
    g = np.maximum(basis, t, out=basis)
    power = np.divide(1.0, g)
    np.subtract(1.0 / t, power, out=power)
    power /= k
    g /= t
    rate = np.log2(g, out=g)
    # Realised BER of a transmitted symbol is the target unless a burst
    # hits a symbol adapted as clean (see bursts_lost); under a belief
    # read from feedback such a burst is outage below the cutoff too.
    exposed = power > 0.0
    exposed |= parked
    exposed &= ~assumed
    exposed &= bursts_lost(params)
    # The power array is summed; its buffer is the group's scratch.
    return float(power.sum()), rate, exposed, power


def _score(batch: int, rate: np.ndarray, exposed: np.ndarray,
           scratch: np.ndarray, hits: np.ndarray) -> tuple:
    """Credited rate, its square and the outage count of one row in its
    group's adapted window: every hit symbol of an exposed block is lost."""
    outage = np.multiply(hits, exposed)
    outages = int(np.add.reduce(outage, dtype=np.int64))
    kept = np.subtract(batch, outage, out=outage)
    credited = np.multiply(rate, kept, out=scratch)
    rate_sum = float(credited.sum())
    return rate_sum, float(np.square(credited, out=scratch).sum()), outages


def simulate_policies(policies: Sequence[Policy], cfg: SimConfig
                      ) -> list[SimResult]:
    """Run one deterministic Monte Carlo stream and measure each solved
    policy on its link, one result per policy in order: ``avg_se``
    averages the rate of transmitted, non-outage symbols over all symbols,
    ``mean_power_frac`` the spent power fraction over all blocks including
    the zero-power ones below the cutoff. Every policy reads the same
    draws, and each result equals that of a run of its policy alone.
    """
    # Rows that agree on all the adaptation reads adapt as one group: a
    # fixed belief at every p, and conventional at p = 0 and 1 with them.
    groups: dict[tuple, list[int]] = {}
    for row, policy in enumerate(policies):
        groups.setdefault((policy.threshold, policy.em, adaptation_key(
            policy.scheme, policy.params)), []).append(row)
    ps = {policy.params.impulse_prob for policy in policies}
    # Only a belief that is not one fixed state reads the fed-back state.
    reads_feedback = any(0.0 < weights[1] < 1.0
                         for _, _, (weights, *_) in groups)
    blocks = 0
    # Per row: power, rate and squared rate sums, and outages.
    sums = [[0.0, 0.0, 0.0, 0] for _ in policies]
    for h, states in _draw_windows(cfg, ps, reads_feedback):
        blocks += h.size
        for rows in groups.values():
            power_sum, rate, exposed, scratch = _adapt(policies[rows[0]], h,
                                                       states)
            for row in rows:
                hits = states[policies[row].params.impulse_prob][1]
                sums[row][:] = map(operator.add, sums[row], (
                    power_sum, *_score(cfg.batch, rate, exposed, scratch,
                                       hits)))
            del rate, exposed, scratch, hits
        # The next window is drawn with this one's arrays released.
        del h, states
    return [_result(blocks, cfg.batch, *total) for total in sums]


def _result(blocks: int, batch: int, power_sum: float, rate_sum: float,
            rate_sq_sum: float, outages: int) -> SimResult:
    """One row's result from its sums over ``blocks`` blocks."""
    n = blocks * batch
    avg_se = rate_sum / n
    variance = max(rate_sq_sum / (n * batch) - avg_se ** 2, 0.0)
    return SimResult(
        n_symbols=n, avg_se=avg_se,
        avg_se_stderr=math.sqrt(variance / blocks), outage_frac=outages / n,
        mean_power_frac=power_sum / blocks)
