"""Water-filling rate/power adaptation under Bernoulli-gated impulsive interference.

Closed-form average spectral efficiencies for three adaptation policies on a
Rayleigh block-fading link, a deterministic symbol-level Monte Carlo engine
that measures them, and a CSV-emitting CLI for parameter sweeps.
"""

from .adaptation import (ErrorModel, Policy, Scheme, crossover, make_policies,
                         policy_law)
from .channel import ChannelParams
from .numerics import ConvergenceError
from .simulate import SimConfig, SimMode, SimResult, simulate_policies

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ConvergenceError",
    "ErrorModel",
    "Policy",
    "Scheme",
    "SimConfig",
    "SimMode",
    "SimResult",
    "crossover",
    "make_policies",
    "policy_law",
    "simulate_policies",
]
