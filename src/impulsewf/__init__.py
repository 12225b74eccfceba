"""Water-filling rate/power adaptation under Bernoulli-gated impulsive interference.

Closed-form average spectral efficiencies for three adaptation policies on a
Rayleigh block-fading link, a deterministic symbol-level Monte Carlo engine
that measures them, and a CSV-emitting CLI for parameter sweeps.
"""

from .adaptation import (ErrorModel, NoCrossoverError, Policy, Scheme,
                         crossover_from_rates, crossover_pth, cutoff_rows,
                         impulse_ber_under_conventional, make_policies,
                         make_policy, policy_rate, qam_ber, rate_aggressive,
                         rate_conservative, rate_conventional, rate_for,
                         wf_power_fraction, wf_rate_bits)
from .channel import ChannelParams, db_to_linear, sample_fading
from .numerics import ConvergenceError, solve_cutoffs
from .simulate import (SimConfig, SimMode, SimResult, policy_outage,
                       simulate_policy)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ConvergenceError",
    "ErrorModel",
    "NoCrossoverError",
    "Policy",
    "Scheme",
    "SimConfig",
    "SimMode",
    "SimResult",
    "crossover_from_rates",
    "crossover_pth",
    "cutoff_rows",
    "db_to_linear",
    "impulse_ber_under_conventional",
    "make_policies",
    "make_policy",
    "policy_outage",
    "policy_rate",
    "qam_ber",
    "rate_aggressive",
    "rate_conservative",
    "rate_conventional",
    "rate_for",
    "sample_fading",
    "simulate_policy",
    "solve_cutoffs",
    "wf_power_fraction",
    "wf_rate_bits",
]
