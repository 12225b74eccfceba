"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not tuned: golden table points carry
+/-2e-3, Monte Carlo comparisons use max(0.005, 3 standard errors) at 1e5
symbols, counting laws use 3 binomial sigma.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import exp1 as exp_integral_e1

from impulsewf import simulate
from impulsewf.adaptation import ErrorModel, Scheme, cutoff_rows
from impulsewf.channel import ChannelParams
from impulsewf.cli import cmd_simulate, cmd_theory, resolve_spec
from impulsewf.simulate import SimConfig, simulate_policies
from oracles import (budget_rows, crossover_pth, density_at,
                     impulse_ber_under_conventional, integrate_semi_infinite,
                     make_policy, parse_csv, rate_aggressive, rate_conservative,
                     rate_conventional, rate_for, wf_power_fraction)

EM = ErrorModel(target_ber=1e-3)
GRID = [i / 10 for i in range(11)]

SET_A = dict(snr_db=0.0, inr_db=0.0)
SET_B = dict(snr_db=10.0, inr_db=20.0)
SET_C = dict(snr_db=0.0, inr_db=20.0)

# Golden sweep tables for set A, indexed by GRID.
TABLE_A = {
    "conventional": [0.4842, 0.4246, 0.3707, 0.3237, 0.2845, 0.2544,
                     0.2349, 0.2281, 0.2360, 0.2612, 0.3064],
    "aggressive": [0.4842, 0.4357, 0.3873, 0.3389, 0.2905, 0.2421,
                   0.1937, 0.1452, 0.0968, 0.0484, 0.0],
    "conservative": [0.3064] * 11,
}
# Spot values for set B and set C.
TABLE_B_CONVENTIONAL = {0.0: 1.7524, 0.9: 0.0524, 1.0: 0.0957}
TABLE_B_AGGRESSIVE_HALF = 0.8762
TABLE_B_CONSERVATIVE = 0.0957
TABLE_C_CONSERVATIVE = 0.0155

POINT_TOL = 2e-3


def params_for(config, p):
    return ChannelParams(impulse_prob=p, **config)


def run(params, scheme, cfg):
    return simulate_policies([make_policy(scheme, params, EM)], cfg)[0]


def spec_for(config, **overrides):
    args = {"config": None, "snr_db": config["snr_db"],
            "mu_db": config["inr_db"], "pb": None, "ber_const": None,
            "p_grid": None, "schemes": None, "symbols": None, "seed": None,
            "mode": None, "block_len": None, "out": None}
    args.update(overrides)
    return resolve_spec(type("Args", (), args)())


def test_criterion_1_theory_reproduces_set_a():
    start = time.perf_counter()
    rows = parse_csv(cmd_theory(spec_for(SET_A)))
    elapsed = time.perf_counter() - start
    assert len(rows) == 33
    checked = 0
    for scheme, table in TABLE_A.items():
        got = [r.rate_theory for r in rows if r.scheme == scheme]
        for p, value, want in zip(GRID, got, table):
            assert value == pytest.approx(want, abs=POINT_TOL), \
                f"{scheme} at p={p}: {value} vs {want}"
            checked += 1
    assert checked == 33
    assert elapsed < 1.0, f"theory sweep took {elapsed:.3f} s"
    print(f"\nACCEPTANCE 1 PASS: set A theory, 33/33 points within "
          f"{POINT_TOL}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_theory_reproduces_sets_b_and_c():
    for p, want in TABLE_B_CONVENTIONAL.items():
        got = rate_conventional(params_for(SET_B, p), EM)
        assert got == pytest.approx(want, abs=POINT_TOL)
    assert rate_aggressive(params_for(SET_B, 0.5), EM) == \
        pytest.approx(TABLE_B_AGGRESSIVE_HALF, abs=POINT_TOL)
    assert rate_conservative(params_for(SET_B, 0.5), EM) == \
        pytest.approx(TABLE_B_CONSERVATIVE, abs=POINT_TOL)
    assert rate_conservative(params_for(SET_C, 0.5), EM) == \
        pytest.approx(TABLE_C_CONSERVATIVE, abs=POINT_TOL)
    assert rate_conventional(params_for(SET_C, 1.0), EM) == \
        pytest.approx(TABLE_C_CONSERVATIVE, abs=POINT_TOL)
    print("\nACCEPTANCE 2 PASS: set B and set C theory points within 2e-3")


def test_criterion_3_monte_carlo_agreement():
    cfg = SimConfig(n_symbols=100_000, seed=12345)
    start = time.perf_counter()
    worst = 0.0
    rows = 0
    for config in (SET_A, SET_B):
        for p in GRID:
            params = params_for(config, p)
            for scheme in Scheme:
                result = run(params, scheme, cfg)
                theory = rate_for(scheme, params, EM)
                tol = max(0.005, 3.0 * result.avg_se_stderr)
                diff = abs(result.avg_se - theory)
                assert diff <= tol, \
                    f"{scheme.value} {config} p={p}: diff {diff} > tol {tol}"
                worst = max(worst, diff / tol)
                rows += 1
    elapsed = time.perf_counter() - start
    assert rows == 66
    assert elapsed < 30.0, f"full sweep took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 3 PASS: 66/66 simulated points within "
          f"max(0.005, 3 SE); worst at {worst:.2f} of tolerance; "
          f"{elapsed:.1f} s")


def test_criterion_4_outage_law():
    cfg = SimConfig(n_symbols=100_000, seed=12345)
    for config in (SET_A, SET_B):
        for p in GRID:
            params = params_for(config, p)
            conventional = run(params, Scheme.CONVENTIONAL, cfg)
            target = p * (1.0 - p)
            sigma = math.sqrt(target * (1.0 - target) / conventional.n_symbols)
            assert abs(conventional.outage_frac - target) <= 3.0 * sigma, \
                f"{config} p={p}: outage {conventional.outage_frac} vs {target}"
            conservative = run(params, Scheme.CONSERVATIVE, cfg)
            assert conservative.outage_frac == 0.0
    print("\nACCEPTANCE 4 PASS: conventional outage tracks p(1-p) within "
          "3 binomial sigma at every grid p; conservative outage exactly 0")


def test_criterion_5_dominance_over_conventional():
    for config in (SET_A, SET_B):
        for p in GRID[1:-1]:
            params = params_for(config, p)
            best_simple = max(rate_aggressive(params, EM),
                              rate_conservative(params, EM))
            assert best_simple > rate_conventional(params, EM), \
                f"{config} p={p}"
    print("\nACCEPTANCE 5 PASS: max(aggressive, conservative) beats "
          "conventional at every interior grid p on both sets")


def test_criterion_6_crossover_monotone_in_inr():
    values = [crossover_pth(ChannelParams(snr_db=0.0, inr_db=mu,
                                          impulse_prob=0.5), EM)
              for mu in (0.0, 10.0, 20.0)]
    assert values[0] < values[1] < values[2]
    assert values[0] == pytest.approx(0.3672, abs=1e-3)
    print(f"\nACCEPTANCE 6 PASS: crossover strictly increasing in INR "
          f"({values[0]:.4f} < {values[1]:.4f} < {values[2]:.4f}), "
          f"set A value within 1e-3 of 0.3672")


def test_criterion_7_property_suite():
    # Exponential-integral sandwich bounds and quadrature agreement.
    for x in np.logspace(-3, math.log10(50.0), 25):
        value = exp_integral_e1(float(x))
        assert math.exp(-x) / (x + 1.0) < value < math.exp(-x) / x
    for x in (0.1, 0.5, 1.0, 2.0, 5.0):
        oracle = integrate_semi_infinite(lambda t: math.exp(-t) / t, x)
        assert abs(exp_integral_e1(x) - oracle) <= 1e-8

    cfg = SimConfig(n_symbols=100_000, seed=12345)
    for config in (SET_A, SET_B):
        for scheme in Scheme:
            params = params_for(config, 0.5)
            policy = make_policy(scheme, params, EM)
            weights, means = cutoff_rows([(scheme, params)])
            # Threshold residual and the analytic power budget.
            residual = budget_rows([policy.threshold], weights, means)[0] \
                - EM.k_sinr
            assert abs(residual) <= 1e-9
            spent = integrate_semi_infinite(
                lambda g: wf_power_fraction(g, policy, EM.k_sinr)
                * density_at(weights[0], means[0], g),
                policy.threshold)
            assert spent == pytest.approx(1.0, abs=1e-6)
            # Empirical power budget.
            result = run(params, scheme, cfg)
            assert result.mean_power_frac == pytest.approx(1.0, abs=0.02)

    # Aggressive linearity in p, exact in floats.
    base = rate_aggressive(params_for(SET_A, 0.0), EM)
    for p in GRID:
        assert rate_aggressive(params_for(SET_A, p), EM) == (1.0 - p) * base

    # Conventional degenerates to the simple schemes at the endpoints.
    for config in (SET_A, SET_B, SET_C):
        assert abs(rate_conventional(params_for(config, 0.0), EM)
                   - rate_aggressive(params_for(config, 0.0), EM)) <= 1e-9
        assert abs(rate_conventional(params_for(config, 1.0), EM)
                   - rate_conservative(params_for(config, 1.0), EM)) <= 1e-9

    # Burst-hit BER under a clean assumption: above target, closed form.
    c, pb = EM.ber_coeff, EM.target_ber
    for inr in (1e-4, 0.1, 1.0, 10.0, 100.0):
        hit = impulse_ber_under_conventional(EM, inr)
        assert hit > pb
        identity = c ** (inr / (1.0 + inr)) * pb ** (1.0 / (1.0 + inr))
        assert abs(hit - identity) <= 1e-12
    print("\nACCEPTANCE 7 PASS: property suite (E1 bounds/quadrature, "
          "threshold residuals, power budgets, linearity, endpoint "
          "degeneracies, burst-hit BER identity)")


def test_criterion_8_determinism(monkeypatch):
    spec = spec_for(SET_A, symbols=20_000, p_grid="0.2,0.5,0.8")
    assert cmd_simulate(spec) == cmd_simulate(spec)

    # One stream read in windows: a window of 7919 symbols (12 full and a
    # partial one) gives the same run as a single window.
    params = params_for(SET_A, 0.5)
    cfg = SimConfig(n_symbols=100_000, seed=12345)
    whole = run(params, Scheme.CONVENTIONAL, cfg)
    monkeypatch.setattr(simulate, "WINDOW", 7919)
    windowed = run(params, Scheme.CONVENTIONAL, cfg)
    assert windowed.outage_frac == whole.outage_frac
    assert windowed.n_symbols == whole.n_symbols
    for field in ("avg_se", "mean_power_frac", "avg_se_stderr"):
        assert getattr(windowed, field) == pytest.approx(
            getattr(whole, field), rel=1e-12, abs=0.0)
    print("\nACCEPTANCE 8 PASS: fixed-seed CSV byte-identical; "
          "windowed and single-window runs of one stream agree")
