"""Water-filling rate/power adaptation under Bernoulli-gated impulsive interference.

Closed-form average spectral efficiencies for three adaptation policies on a
Rayleigh block-fading link, a deterministic symbol-level Monte Carlo engine
that measures them, and a CSV-emitting CLI for parameter sweeps.
"""

from .adaptation import (ErrorModel, Policy, Scheme, crossover, cutoff_rows,
                         make_policies, make_policy, policy_rate)
from .channel import ChannelParams, db_to_linear, sample_fading
from .numerics import ConvergenceError, solve_cutoffs
from .simulate import (SimConfig, SimMode, SimResult, policy_outage,
                       simulate_policy)

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
    "cutoff_rows",
    "db_to_linear",
    "make_policies",
    "make_policy",
    "policy_outage",
    "policy_rate",
    "sample_fading",
    "simulate_policy",
    "solve_cutoffs",
]
