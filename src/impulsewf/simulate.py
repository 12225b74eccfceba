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
exceeds the target (plus a 1e-12 guard for the exact-equality case at zero
INR). With water-filling, the realised BER of a transmitted symbol
collapses to a per-burst-state constant -- the target itself when the
assumed state matches or over-protects, and a BER above it when a burst
hits a symbol assumed clean -- so :func:`impulsewf.adaptation.bursts_lost`
decides the mask rather than per-symbol arithmetic. Under a belief read
from feedback, symbols parked below the cutoff while their block's
feedback overstated their SINR are counted as outage as well: the scheme
broke its per-block guarantee for them, and the outage law counts exactly
these mismatch events. Under a fixed belief zero-rate symbols never
experience an error event.

Determinism and memory: a run is a pure function of (policy, config). It
reads one PCG64 stream, seeded with ``cfg.seed``, laid out as consecutive
segments. With B blocks of L symbols (L = 1 and B = n per symbol) the
block fading uniforms come first, at [0, B). Per-symbol mode then draws
the fed-back states at [B, 2B) and the actual states at [2B, 3B); block
mode draws the row-major (B, L) burst mask at [B, B + B*L), whose first
column is the fed-back state. The run is evaluated in windows of
``max(1, WINDOW // L)`` blocks, each segment read forward from a generator
positioned with ``PCG64.advance``; only integer counts and float sums
cross windows. Peak memory is therefore O(max(WINDOW, block_len)) symbols
whatever ``n_symbols`` is, and ``SimConfig`` keeps
``block_len <= n_symbols`` in block mode so that a block is never longer
than the run. The window size does not change the draws: counts and
outage are exact, and the float sums move only by their summation order
(last digits).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adaptation import Policy, assumption_weights, bursts_lost
from .channel import ChannelParams, sample_fading

__all__ = [
    "SimMode",
    "SimConfig",
    "SimResult",
    "simulate_policy",
]

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
    root of their number. ``counts`` tallies symbols by (assumed burst
    state, actual burst state), where the assumed state is the one the
    scheme adapted on: the fed-back state for conventional, always-clean
    for aggressive, always-hit for conservative. In block mode
    ``n_symbols`` is the value after rounding up to whole blocks.
    """

    n_symbols: int
    avg_se: float
    avg_se_stderr: float
    outage_frac: float
    mean_power_frac: float
    counts: tuple[tuple[int, int], tuple[int, int]]


def _stream(seed: int, offset: int) -> np.random.Generator:
    """Generator reading the run's PCG64 stream from draw ``offset`` on."""
    return np.random.Generator(np.random.PCG64(seed).advance(offset))


def _draw_windows(params: ChannelParams, cfg: SimConfig, governing: bool = True
                  ) -> Iterator[tuple[np.ndarray, np.ndarray | None, np.ndarray]]:
    """Yield (fading power, fed-back state, actual states) per window of
    whole blocks, in stream order (module docstring): one of the first two
    per block, the actual states as (``cfg.batch``, blocks), the transpose
    of the row-major draw. With ``governing`` false the fed-back states
    are left undrawn and yielded as None; the rest is read as before."""
    p = params.impulse_prob
    batch = cfg.batch
    n_blocks = -(-cfg.n_symbols // batch)
    # Per symbol, the fed-back states have a segment of their own.
    own_feedback = cfg.mode is SimMode.PER_SYMBOL
    fading, feedback = _stream(cfg.seed, 0), _stream(cfg.seed, n_blocks)
    bursts = _stream(cfg.seed, (1 + own_feedback) * n_blocks)
    step = max(1, WINDOW // batch)
    for start in range(0, n_blocks, step):
        size = min(step, n_blocks - start)
        # The fading array, which lives longest, is allocated before the
        # draws' temporaries; on a short last window that keeps RSS down.
        h = sample_fading(fading, size)
        actual = bursts.random((size, batch)).T < p
        fed_back = (None if not governing else
                    feedback.random(size) < p if own_feedback else actual[0])
        yield h, fed_back, actual


def _window_sums(policy: Policy, lost: bool, parked: bool,
                 basis: np.ndarray, assumed, actual: np.ndarray
                 ) -> tuple[float, float, float, int, tuple[int, int, int, int]]:
    """Credited rate, its square per block, and power summed over the
    blocks of one window, the outage count and the (assumed, actual)
    symbol tallies, flattened row-major.

    ``basis`` is the full-power SINR each block is adapted on,
    ``assumed`` the burst state it was priced with (a bool array of
    fed-back states, or one numpy bool for a fixed belief) and ``actual``
    the burst state of each of its symbols, shaped (symbols, blocks). A
    block is credited its rate once per symbol that is not lost.

    Water-filling at cutoff t and budget constant k = ``em.k_sinr`` spends
    the power fraction (1/t - 1/g) / k and carries log2(g / t) bits,
    g = max(basis, t), so both are exactly 0 at and below the cutoff.
    """
    t, k = policy.threshold, policy.em.k_sinr
    g = np.maximum(basis, t)
    power = np.divide(1.0, g)
    np.subtract(1.0 / t, power, out=power)
    power /= k
    g /= t
    rate = np.log2(g, out=g)

    hits = np.count_nonzero(actual)
    assumed_hits = np.count_nonzero(np.broadcast_to(assumed, actual.shape))
    both = np.count_nonzero(actual & assumed)
    tallies = (actual.size - assumed_hits - hits + both, hits - both,
               assumed_hits - both, both)

    # Realised BER of a transmitted symbol is the target unless a burst
    # hits a symbol adapted as clean (see bursts_lost); ``parked`` counts
    # such a burst as outage below the cutoff too. The masks are built in
    # place to hold down the window's peak memory.
    exposed = power > 0.0
    exposed |= parked
    exposed &= ~assumed
    exposed &= lost
    outage = actual & exposed
    outages = np.count_nonzero(outage)
    power_sum = float(power.sum())
    # The power array is summed; its buffer now takes each block's
    # credited rate, its rate once per symbol not lost, and the rate
    # buffer their squares.
    kept = np.logical_not(outage, out=outage)
    credited = np.einsum("b,lb->b", rate, kept, out=power)
    rate_sq = np.square(credited, out=rate)
    return (float(credited.sum()), float(rate_sq.sum()), power_sum, outages,
            tallies)


def simulate_policy(policy: Policy, cfg: SimConfig) -> SimResult:
    """Run one deterministic Monte Carlo stream and measure a solved policy
    on its link.

    Per block: adapt power and rate on the SINR of the assumed burst
    state, score each symbol against its actual burst state. ``avg_se``
    averages the rate of transmitted, non-outage symbols over all symbols;
    ``mean_power_frac`` averages the spent power fraction over all blocks
    including the zero-power ones below the cutoff. The run is evaluated
    window by window, so memory stays bounded whatever ``cfg.n_symbols`` is.
    """
    params = policy.params
    _, w_hit = assumption_weights(policy.scheme, params.impulse_prob)
    # Only a belief that is not one fixed state reads the fed-back state.
    feedback = 0.0 < w_hit < 1.0
    fixed_state = np.bool_(w_hit == 1.0)
    lost = bursts_lost(params, policy.em)
    blocks = outages = 0
    rate_sum = rate_sq_sum = power_sum = 0.0
    tallies = [0, 0, 0, 0]
    for h, fed_back, actual in _draw_windows(params, cfg, feedback):
        assumed = fed_back if feedback else fixed_state
        # The window's fading array is its own: scale it in place into the
        # SINR of the assumed state, H times that state's mean.
        h *= np.where(assumed, params.mean_sinr_impulse, params.mean_sinr_clean)
        rate, rate_sq, power, outage, counts = _window_sums(
            policy, lost, feedback, h, assumed, actual)
        blocks += h.size
        rate_sum += rate
        rate_sq_sum += rate_sq
        power_sum += power
        outages += outage
        tallies = [a + b for a, b in zip(tallies, counts)]

    n = blocks * cfg.batch
    avg_se = rate_sum / n
    variance = max(rate_sq_sum / (n * cfg.batch) - avg_se ** 2, 0.0)
    return SimResult(
        n_symbols=n,
        avg_se=avg_se,
        avg_se_stderr=math.sqrt(variance / blocks),
        outage_frac=outages / n,
        mean_power_frac=power_sum / blocks,
        counts=((tallies[0], tallies[1]), (tallies[2], tallies[3])),
    )
