"""Rayleigh block-fading link with Bernoulli-gated Gaussian interference.

The channel power H is unit-mean exponential (squared Rayleigh magnitude)
and stays constant over a coherence block. Each symbol is independently hit
by an interference burst with probability ``impulse_prob``; a hit adds
interference power on top of the thermal noise, scaling the symbol SINR
down by (1 + INR). So the link is a two-state table: a symbol's full-power
SINR is H times ``mean_sinr_clean`` (the SNR) when it is burst-free and H
times ``mean_sinr_impulse`` when it is hit. Every cutoff, rate, outage and
simulated symbol in the package reads these two means.

All parameter records are immutable and safe to share across threads; any
randomness flows through an explicitly passed numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "db_to_linear",
    "ChannelParams",
    "sample_fading",
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

    Transmit power is a fraction of the average power budget, so the budget
    itself never enters: the SNR is the mean SINR at full average power.
    """

    snr_db: float
    inr_db: float
    impulse_prob: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if math.isnan(self.inr_db) or self.inr_db == math.inf:
            raise ValueError(f"inr_db must be finite or -inf, got {self.inr_db}")
        if not 0.0 <= self.impulse_prob <= 1.0:
            raise ValueError(f"impulse_prob must be in [0, 1], got {self.impulse_prob}")
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
    def mean_sinr_clean(self) -> float:
        """Mean full-power SINR of burst-free symbols (equals snr_linear)."""
        return self.snr_linear

    @property
    def mean_sinr_impulse(self) -> float:
        """Mean full-power SINR of burst-hit symbols: clean mean / (1 + INR)."""
        return self.snr_linear / (1.0 + self.inr_linear)


def sample_fading(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-mean exponential fading powers via the inverse transform.

    -log1p(-U) with U uniform on [0, 1) is used instead of the library
    ziggurat sampler so the stream is reproducible across platforms.
    """
    return -np.log1p(-rng.random(n))
