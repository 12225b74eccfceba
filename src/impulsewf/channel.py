"""Rayleigh block-fading link with Bernoulli-gated Gaussian interference.

The channel power H is unit-mean exponential (squared Rayleigh magnitude)
and stays constant over a coherence block. Each symbol is independently hit
by an interference burst with probability ``impulse_prob``; a hit adds
interference power on top of the thermal noise, scaling the symbol SINR
down by (1 + INR).

All parameter records are immutable and safe to share across threads; any
randomness flows through an explicitly passed numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "db_to_linear",
    "ChannelParams",
    "DensityKind",
    "SinrDensity",
    "CoherenceBlock",
    "sample_fading",
    "sample_block",
    "sinr_of",
]


def db_to_linear(x_db: float) -> float:
    """Power ratio in dB to linear scale."""
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Link parameters.

    Parameters
    ----------
    snr_db : float
        Mean SNR of interference-free symbols at full average power, in dB.
        Must be finite.
    inr_db : float
        Interference-to-noise power ratio of a burst, in dB. Must be finite
        or -inf, which means bursts carry no interference.
    impulse_prob : float
        Per-symbol probability of an interference burst, in [0, 1].
    avg_power : float
        Average transmit power budget. Normalised to one; the closed forms
        and the simulator agree for any positive value.
    """

    snr_db: float
    inr_db: float
    impulse_prob: float
    avg_power: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if math.isnan(self.inr_db) or self.inr_db == math.inf:
            raise ValueError(f"inr_db must be finite or -inf, got {self.inr_db}")
        if not 0.0 <= self.impulse_prob <= 1.0:
            raise ValueError(f"impulse_prob must be in [0, 1], got {self.impulse_prob}")
        if not self.avg_power > 0.0:
            raise ValueError(f"avg_power must be positive, got {self.avg_power}")
        try:
            snr, inr = self.snr_linear, self.inr_linear
        except OverflowError:
            raise ValueError(f"snr_db={self.snr_db} or inr_db={self.inr_db} "
                             f"is out of the floating-point range") from None
        if not snr > 0.0:
            raise ValueError(f"snr_db={self.snr_db} gives a non-positive mean SNR")
        if not snr / (1.0 + inr) > 0.0:
            raise ValueError(f"inr_db={self.inr_db} leaves burst-hit symbols "
                             f"no SINR at snr_db={self.snr_db}")

    @property
    def snr_linear(self) -> float:
        return db_to_linear(self.snr_db)

    @property
    def inr_linear(self) -> float:
        return db_to_linear(self.inr_db)

    @property
    def noise_power(self) -> float:
        """Thermal noise power implied by the mean SNR at unit-mean fading."""
        return self.avg_power / self.snr_linear

    @property
    def interference_power(self) -> float:
        return self.inr_linear * self.noise_power

    @property
    def mean_sinr_clean(self) -> float:
        """Mean full-power SINR of burst-free symbols (equals snr_linear)."""
        return self.snr_linear

    @property
    def mean_sinr_impulse(self) -> float:
        """Mean full-power SINR of burst-hit symbols: clean mean / (1 + INR)."""
        return self.snr_linear / (1.0 + self.inr_linear)


class DensityKind(Enum):
    CLEAN = "clean"
    IMPULSE = "impulse"
    MIXTURE = "mixture"


@dataclass(frozen=True)
class SinrDensity:
    """Exponential or two-component exponential mixture SINR density.

    Burst-free symbols see an exponential SINR of mean ``mean_clean``;
    burst-hit symbols an exponential of mean ``mean_impulse``, mixed with
    weight ``weight_impulse``.
    """

    kind: DensityKind
    mean_clean: float
    mean_impulse: float
    weight_impulse: float

    def __post_init__(self) -> None:
        if not (self.mean_clean > 0.0 and self.mean_impulse > 0.0):
            raise ValueError("component means must be positive")
        if not 0.0 <= self.weight_impulse <= 1.0:
            raise ValueError("weight_impulse must be in [0, 1]")

    @classmethod
    def for_params(cls, params: ChannelParams,
                   kind: DensityKind = DensityKind.MIXTURE) -> "SinrDensity":
        weight = {DensityKind.CLEAN: 0.0,
                  DensityKind.IMPULSE: 1.0,
                  DensityKind.MIXTURE: params.impulse_prob}[kind]
        return cls(kind=kind, mean_clean=params.mean_sinr_clean,
                   mean_impulse=params.mean_sinr_impulse, weight_impulse=weight)

    @classmethod
    def unit_exponential(cls) -> "SinrDensity":
        """Unit-mean exponential, the law of the fading power H itself."""
        return cls(kind=DensityKind.CLEAN, mean_clean=1.0, mean_impulse=1.0,
                   weight_impulse=0.0)

    @property
    def components(self) -> tuple[tuple[float, float], ...]:
        """(weight, mean) pairs of the exponential components."""
        if self.kind is DensityKind.CLEAN:
            return ((1.0, self.mean_clean),)
        if self.kind is DensityKind.IMPULSE:
            return ((1.0, self.mean_impulse),)
        return ((1.0 - self.weight_impulse, self.mean_clean),
                (self.weight_impulse, self.mean_impulse))


@dataclass(frozen=True)
class CoherenceBlock:
    """One coherence interval: a fading power and per-symbol burst flags."""

    h: float
    impulse_mask: tuple[bool, ...]
    block_len: int


def sample_fading(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-mean exponential fading powers via the inverse transform.

    -log1p(-U) with U uniform on [0, 1) is used instead of the library
    ziggurat sampler so the stream is reproducible across platforms.
    """
    return -np.log1p(-rng.random(n))


def sample_block(params: ChannelParams, block_len: int,
                 rng: np.random.Generator) -> CoherenceBlock:
    """Draw one coherence block: shared fading power, i.i.d. burst flags."""
    if block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    h = -math.log1p(-rng.random())
    mask = tuple(bool(v) for v in rng.random(block_len) < params.impulse_prob)
    return CoherenceBlock(h=h, impulse_mask=mask, block_len=block_len)


def sinr_of(params: ChannelParams, h, impulse, tx_power):
    """Post-fading SINR at transmit power ``tx_power``.

    Burst-hit symbols see exactly the burst-free SINR divided by (1 + INR).
    Accepts scalars or equal-shaped arrays for ``h``, ``impulse`` and
    ``tx_power``.
    """
    clean = np.asarray(h, dtype=float) * tx_power / params.noise_power
    out = np.where(impulse, clean / (1.0 + params.inr_linear), clean)
    return out.item() if out.ndim == 0 else out
