"""Symbol-level Monte Carlo evaluation of the adaptation policies.

Each symbol carries three random ingredients: a fading power shared over
its coherence block, the burst state of the block's governing (first)
symbol, and the symbol's own burst state. A scheme adapts power and rate
on the SINR of the burst state it assumes, H times that state's mean SINR:
the governing state under conventional, which follows the fed-back state,
and one fixed state for every symbol under aggressive (clean) and
conservative (hit), for which the governing states are not read. The
symbol's own state decides the BER it actually experiences.

Two sampling modes:

* ``per-symbol`` (default): every symbol draws an independent fading power
  and an independent (governing, actual) burst-state pair. This samples the
  closed-form rate expressions' expectations directly and reproduces them.
* ``block``: fading power and governing state are drawn once per block of
  ``block_len`` symbols, whose first symbol is the governing one, so its
  governing and actual states coincide by construction. That first symbol
  lifts the conventional rate above the per-symbol closed form.

:func:`impulsewf.adaptation.policy_law` at ``SimConfig.mismatch`` gives
the rate and outage each mode should measure.

Outage accounting: a transmitted symbol is in outage when its realised BER
exceeds the target (plus a 1e-12 guard for the exact-equality case at zero
INR). With water-filling, the realised BER of a transmitted symbol
collapses to a per-burst-state constant -- the target itself when the
assumed state matches or over-protects, and a BER above it when a burst
hits a symbol assumed clean -- so :func:`impulsewf.adaptation.bursts_lost`
decides the mask rather than per-symbol arithmetic. Under the conventional
scheme, symbols parked below the cutoff while their block's feedback
overstated their SINR are counted as outage as well: the scheme broke its
per-block guarantee for them, and the outage law counts exactly these
mismatch events. Zero-rate symbols never experience an error event under
the other two schemes.

Determinism and memory: a run is a pure function of (params, error model,
scheme, config). It reads one PCG64 stream, seeded with ``cfg.seed``, laid
out as consecutive segments. Per-symbol mode: the fading uniforms at
draws [0, n), the governing states at [n, 2n) and the actual states at
[2n, 3n). Block mode, with B blocks of L symbols: the per-block fading at
[0, B), then the row-major (B, L) burst mask at [B, B + B*L). The run is
evaluated in windows of ``WINDOW`` symbols (whole blocks in block mode:
``max(1, WINDOW // block_len)`` per window), each segment read forward
from a generator positioned with ``PCG64.advance``; only integer counts
and float sums cross windows. Peak memory is therefore
O(max(WINDOW, block_len)) symbols whatever ``n_symbols`` is, and
``SimConfig`` keeps ``block_len <= n_symbols`` in block mode so that a
block is never longer than the run. The window size does not change the
draws: counts and outage are exact, and the float sums move only by their
summation order (last digits).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adaptation import (ErrorModel, Policy, Scheme, assumption_weights,
                         bursts_lost)
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
    def mismatch(self) -> float:
        """``policy_law``'s ``mismatch``: each symbol draws its burst state
        apart from the fed-back one, except the first of a block."""
        if self.mode is SimMode.BLOCK:
            return (self.block_len - 1) / self.block_len
        return 1.0


@dataclass(frozen=True)
class SimResult:
    """Empirical outcome of a run.

    ``counts`` tallies symbols by (assumed burst state, actual burst
    state), where the assumed state is the one the scheme adapted on:
    the sampled feedback state for conventional, always-clean for
    aggressive, always-hit for conservative. ``rate_sq_mean`` is the mean
    square of a batch's mean credited rate, a batch being the run's i.i.d.
    unit: a symbol per symbol, a block in block mode. In block mode
    ``n_symbols`` is the value after rounding up to whole blocks.
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

    @property
    def avg_se_stderr(self) -> float:
        """Batch-means standard error of avg_se: batches are i.i.d., so it
        is the spread of the batch means over the root of their number."""
        batch = self.block_len if self.mode == SimMode.BLOCK.value else 1
        variance = max(self.rate_sq_mean - self.avg_se ** 2, 0.0)
        return math.sqrt(variance / (self.n_symbols // batch))


def _stream(seed: int, offset: int) -> np.random.Generator:
    """Generator reading the run's PCG64 stream from draw ``offset`` on."""
    return np.random.Generator(np.random.PCG64(seed).advance(offset))


def _draw_windows(params: ChannelParams, cfg: SimConfig, governing: bool = True
                  ) -> Iterator[tuple[np.ndarray, np.ndarray | None, np.ndarray]]:
    """Yield (fading power, governing state, actual state) per symbol, one
    window at a time, in stream order (layout in the module docstring).
    With ``governing`` false the governing states are left undrawn and
    yielded as None; the other segments are read as before."""
    p = params.impulse_prob
    if cfg.mode is SimMode.PER_SYMBOL:
        n = cfg.n_symbols
        fading, states, actual = (_stream(cfg.seed, k * n) for k in range(3))
        for start in range(0, n, WINDOW):
            size = min(WINDOW, n - start)
            yield (sample_fading(fading, size),
                   states.random(size) < p if governing else None,
                   actual.random(size) < p)
        return
    block_len = cfg.block_len
    n_blocks = -(-cfg.n_symbols // block_len)
    fading, bursts = _stream(cfg.seed, 0), _stream(cfg.seed, n_blocks)
    step = max(1, WINDOW // block_len)
    for start in range(0, n_blocks, step):
        size = min(step, n_blocks - start)
        mask = bursts.random((size, block_len)) < p
        yield (np.repeat(sample_fading(fading, size), block_len),
               np.repeat(mask[:, 0], block_len) if governing else None,
               mask.reshape(-1))


def _window_sums(policy: Policy, k: float, lost: bool, basis: np.ndarray,
                 assumed, actual: np.ndarray, batch: int
                 ) -> tuple[float, float, float, int, tuple[int, int, int, int]]:
    """Credited rate, the square of its sum over each batch of ``batch``
    consecutive symbols, power and outage summed over one window, and the
    (assumed, actual) tallies, flattened row-major.

    ``basis`` is the full-power SINR each symbol is adapted on and
    ``assumed`` the burst state it was priced with: a bool array of
    governing states under conventional, one numpy bool otherwise.

    Water-filling at cutoff t and budget constant k spends the power
    fraction (1/t - 1/g) / k and carries log2(g / t) bits, g = max(basis, t),
    so both are exactly 0 at and below the cutoff.
    """
    t = policy.threshold
    g = np.maximum(basis, t)
    power = np.divide(1.0, g)
    np.subtract(1.0 / t, power, out=power)
    power /= k
    g /= t
    rate = np.log2(g, out=g)

    # Realised BER of a transmitted symbol is the target unless a burst
    # hits a symbol adapted as clean (see bursts_lost).
    if lost:
        outage = actual & ~assumed
        if policy.scheme is not Scheme.CONVENTIONAL:
            outage &= power > 0.0
        np.copyto(rate, 0.0, where=outage)
        outages = np.count_nonzero(outage)
    else:
        outages = 0

    hits = np.count_nonzero(actual)
    assumed_hits = np.count_nonzero(np.broadcast_to(assumed, basis.shape))
    both = np.count_nonzero(actual & assumed)
    tallies = (basis.size - assumed_hits - hits + both, hits - both,
               assumed_hits - both, both)
    power_sum = float(power.sum())
    # The power array is summed; its buffer now takes the squared batch
    # sums, which are the rates themselves for batches of one symbol.
    # einsum sums the short rows several times faster than sum(axis=1).
    sums = np.einsum("ij->i", rate.reshape(-1, batch)) if batch > 1 else rate
    rate_sq = np.square(sums, out=power[:sums.size])
    return (float(rate.sum()), float(rate_sq.sum()), power_sum, outages,
            tallies)


def simulate_policy(policy: Policy, params: ChannelParams, em: ErrorModel,
                    cfg: SimConfig) -> SimResult:
    """Run one deterministic Monte Carlo stream and measure a solved policy.

    ``policy`` must have been solved for this link and ``em`` (see
    :func:`impulsewf.adaptation.policy_law`). Per symbol: adapt power and
    rate on the SINR of the assumed burst state, score the symbol against
    its actual burst state. ``avg_se`` averages the rate of transmitted,
    non-outage symbols over all symbols; ``mean_power_frac`` averages the
    spent power fraction over all symbols including the zero-power ones
    below the cutoff. The run is evaluated window by window, so memory
    stays bounded whatever ``cfg.n_symbols`` is.
    """
    feedback = policy.scheme is Scheme.CONVENTIONAL
    _, w_hit = assumption_weights(policy.scheme, params.impulse_prob)
    fixed_state = np.bool_(w_hit == 1.0)
    lost = bursts_lost(params, em)
    batch = cfg.block_len if cfg.mode is SimMode.BLOCK else 1
    n = outages = 0
    rate_sum = rate_sq_sum = power_sum = 0.0
    tallies = [0, 0, 0, 0]
    for h, governing, actual in _draw_windows(params, cfg, feedback):
        assumed = governing if feedback else fixed_state
        # The window's fading array is its own: scale it in place into the
        # SINR of the assumed state, H times that state's mean.
        h *= np.where(assumed, params.mean_sinr_impulse, params.mean_sinr_clean)
        rate, rate_sq, power, outage, counts = _window_sums(
            policy, em.k_sinr, lost, h, assumed, actual, batch)
        n += h.size
        rate_sum += rate
        rate_sq_sum += rate_sq
        power_sum += power
        outages += outage
        tallies = [a + b for a, b in zip(tallies, counts)]

    return SimResult(
        scheme=policy.scheme.value,
        mode=cfg.mode.value,
        block_len=cfg.block_len,
        n_symbols=n,
        avg_se=rate_sum / n,
        outage_frac=outages / n,
        mean_power_frac=power_sum / n,
        rate_sq_mean=rate_sq_sum / (n * batch),
        counts=((tallies[0], tallies[1]), (tallies[2], tallies[3])),
    )
