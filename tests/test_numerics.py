"""The vectorised cutoff solve and the quadrature oracle, checked independently."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import exp1

from impulsewf.adaptation import ErrorModel
from impulsewf.numerics import solve_cutoffs
from oracles import budget_rows, integrate_semi_infinite

K_SINR = ErrorModel(target_ber=1e-3).k_sinr


def mp_cutoff(weights, means, k):
    """Cutoff from mpmath at 40 digits: a bracketing solve of log B = log k
    in log t, with B written through mpmath's own E1."""
    with mpmath.workdps(40):
        pairs = [(mpmath.mpf(w), mpmath.mpf(m)) for w, m in zip(weights, means)
                 if w > 0.0]
        log_k = mpmath.log(mpmath.mpf(k))

        def gap(u):
            t = mpmath.exp(u)
            spend = sum(w * (mpmath.exp(-t / m) / t - mpmath.e1(t / m) / m)
                        for w, m in pairs)
            return mpmath.log(spend) - log_k

        # B(t) < 1/t puts the root below 1/k; B -> inf as t -> 0.
        hi = -log_k
        lo = hi - 20
        while gap(lo) < 0:
            lo -= 20
        return float(mpmath.exp(mpmath.findroot(gap, (lo, hi), solver="anderson")))


def link_rows(snr_db, inr_db, p):
    """(weights, means, k) of the conventional, aggressive and conservative
    cutoffs of one link."""
    snr = 10.0 ** (snr_db / 10.0)
    inr = 10.0 ** (inr_db / 10.0)
    return [((1.0 - p, p), (snr, snr / (1.0 + inr)), K_SINR),
            ((1.0, 0.0), (1.0, 1.0), K_SINR * snr),
            ((1.0, 0.0), (1.0, 1.0), K_SINR * snr / (1.0 + inr))]


def solve(rows):
    weights, means, k = zip(*rows)
    return solve_cutoffs(weights, means, k)


class TestExpIntegralE1:
    """The E1 the cutoff solve calls, scipy.special.exp1, on the range the
    solver feeds it."""

    def test_value_at_one(self):
        assert exp1(1.0) == pytest.approx(0.2193839344, abs=1e-9)

    def test_value_at_half(self):
        assert exp1(0.5) == pytest.approx(0.5597735948, abs=1e-9)

    def test_against_quadrature_oracle(self):
        # Independent route: adaptive quadrature of the defining integral.
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            oracle = integrate_semi_infinite(lambda t: math.exp(-t) / t, x)
            assert abs(exp1(x) - oracle) <= 1e-8

    def test_sandwich_at_ten(self):
        value = exp1(10.0)
        assert math.exp(-10.0) / 11.0 < value < math.exp(-10.0) / 10.0

    @pytest.mark.parametrize("x", np.logspace(-3, math.log10(50.0), 40).tolist())
    def test_sandwich_bounds_on_grid(self, x):
        value = exp1(x)
        assert math.exp(-x) / (x + 1.0) < value < math.exp(-x) / x

    def test_strictly_decreasing_and_positive(self):
        grid = np.logspace(-3, math.log10(50.0), 60)
        values = [exp1(float(x)) for x in grid]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_branch_junction_is_smooth(self):
        below = exp1(1.0 - 1e-12)
        above = exp1(1.0 + 1e-12)
        assert below == pytest.approx(above, rel=1e-10)

    def test_underflow_far_tail(self):
        assert exp1(1e6) == 0.0


class TestAgainstMpmath:
    @pytest.mark.parametrize("snr_db,inr_db,p", [
        (0.0, 0.0, 0.5),      # set A
        (10.0, 20.0, 0.3),    # set B
        (120.0, 100.0, 0.5),  # top of the SNR range
        (-100.0, -30.0, 0.5),  # bottom of the SNR range
        (-100.0, 100.0, 0.999),
        (40.0, 60.0, 1e-6),
    ])
    def test_cutoffs_match_mpmath(self, snr_db, inr_db, p):
        rows = link_rows(snr_db, inr_db, p)
        for got, (weights, means, k) in zip(solve(rows), rows):
            assert got == pytest.approx(mp_cutoff(weights, means, k), rel=1e-12)

    def test_aggressive_at_120_db(self):
        # A fixed bracket starting at 1e-8 cannot hold this root, ~3.5e-12.
        weights, means, k = link_rows(120.0, 0.0, 0.0)[1]
        got = solve_cutoffs([weights], [means], [k])[0]
        assert got < 1e-11
        assert got == pytest.approx(mp_cutoff(weights, means, k), rel=1e-12)

    def test_conventional_at_minus_100_db(self):
        # Root near 1.8e-9, where exp(-t/mean) underflows at t = 1/k.
        weights, means, k = link_rows(-100.0, 20.0, 0.4)[0]
        got = solve_cutoffs([weights], [means], [k])[0]
        assert got < 1e-8
        assert got == pytest.approx(mp_cutoff(weights, means, k), rel=1e-12)


class TestSolveCutoffs:
    def test_forward_evaluated_unit_root(self):
        k = math.exp(-1.0) - exp1(1.0)
        assert solve_cutoffs([[1.0]], [[1.0]], [k])[0] == pytest.approx(1.0, rel=1e-14)

    def test_budget_residual_is_at_rounding_level(self):
        rows = [row for snr in (-30.0, 0.0, 30.0) for inr in (0.0, 40.0)
                for row in link_rows(snr, inr, 0.3)]
        weights, means, k = zip(*rows)
        t = solve_cutoffs(weights, means, k)
        assert np.all(np.abs(budget_rows(t, weights, means) / np.array(k) - 1.0) <= 1e-13)

    def test_rows_are_solved_independently(self):
        rows = [row for snr in (-50.0, 0.0, 50.0) for row in link_rows(snr, 30.0, 0.7)]
        together = solve(rows)
        alone = [solve([row])[0] for row in rows]
        assert together.tolist() == alone

    def test_zero_weight_padding_changes_nothing(self):
        padded = solve_cutoffs([[1.0, 0.0]], [[2.0, 1e-30]], [0.1])[0]
        single = solve_cutoffs([[1.0]], [[2.0]], [0.1])[0]
        assert padded == single

    def test_deterministic(self):
        rows = link_rows(3.0, 17.0, 0.45)
        assert solve(rows).tolist() == solve(rows).tolist()

    def test_far_apart_mixture_means(self):
        # A burst weight near one with a million-fold INR bends B the wrong
        # way for Newton; the safeguard still settles on the root.
        weights, means, k = link_rows(0.0, 60.0, 0.999999)[0]
        got = solve_cutoffs([weights], [means], [k])[0]
        assert got == pytest.approx(mp_cutoff(weights, means, k), rel=1e-12)

    def test_empty_input(self):
        assert solve_cutoffs(np.zeros((0, 2)), np.ones((0, 2)), []).shape == (0,)

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_budget_constant(self, k):
        with pytest.raises(ValueError):
            solve_cutoffs([[1.0]], [[1.0]], [k])

    @pytest.mark.parametrize("weights,means", [
        ([[-0.1, 1.1]], [[1.0, 1.0]]),
        ([[0.0, 0.0]], [[1.0, 1.0]]),
        ([[math.nan, 1.0]], [[1.0, 1.0]]),
        ([[0.5, 0.5]], [[1.0, 0.0]]),
        ([[0.5, 0.5]], [[1.0, math.inf]]),
    ])
    def test_rejects_bad_mixture(self, weights, means):
        with pytest.raises(ValueError):
            solve_cutoffs(weights, means, [0.3])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            solve_cutoffs([[1.0, 0.0]], [[1.0]], [0.3])
        with pytest.raises(ValueError):
            solve_cutoffs([[1.0]], [[1.0]], [0.3, 0.4])


class TestIntegrateSemiInfinite:
    def test_unit_exponential(self):
        value = integrate_semi_infinite(lambda t: math.exp(-t), 0.0)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_matches_e1(self):
        value = integrate_semi_infinite(lambda t: math.exp(-t) / t, 1.0)
        assert value == pytest.approx(0.2193839344, abs=1e-9)

    def test_log_rate_identity(self):
        # integral over [t, inf) of log2(g/t) exp(-g) dg = log2(e) * E1(t)
        value = integrate_semi_infinite(
            lambda g: math.log2(g / 1.0) * math.exp(-g), 1.0)
        expected = math.log2(math.e) * exp1(1.0)
        assert value == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.3165041142, abs=1e-9)

    def test_rejects_negative_lower(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda t: math.exp(-t), -1.0)
