"""Policy construction, BER model, closed-form rates, and their invariants."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1 as exp_integral_e1

from impulsewf.adaptation import (
    _impulse_ber_under_conventional as impulse_ber_under_conventional)
from impulsewf.adaptation import (LOG2_E, ErrorModel, Policy, Scheme,
                                  assumption_weights, bursts_lost, crossover,
                                  cutoff_rows, make_policies, make_policy,
                                  policy_law)
from impulsewf.channel import ChannelParams
from impulsewf.numerics import solve_cutoffs
from oracles import (budget_rows, crossover_pth, density_at,
                     integrate_semi_infinite, qam_ber, rate_aggressive,
                     rate_conservative, rate_conventional, rate_for,
                     wf_power_fraction, wf_rate_bits)

EM = ErrorModel(target_ber=1e-3)

SET_A = dict(snr_db=0.0, inr_db=0.0)     # low SNR, low INR
SET_B = dict(snr_db=10.0, inr_db=20.0)   # high SNR, high INR
SET_C = dict(snr_db=0.0, inr_db=20.0)    # low SNR, high INR


def params_for(config, p):
    return ChannelParams(impulse_prob=p, **config)


def spend_of(policy, params):
    """Budget spend B(t) of ``policy``'s cutoff on the row it was priced on."""
    weights, means = cutoff_rows([(policy.scheme, params)])
    return float(budget_rows([policy.threshold], weights, means)[0])


# One unit-mean exponential component.
UNIT_WEIGHTS, UNIT_MEANS = [[1.0]], [[1.0]]


class TestErrorModel:
    def test_k_sinr_value(self):
        # -1.5 / ln(1e-3 / 0.2)
        assert EM.k_sinr == pytest.approx(0.2831087487, abs=1e-10)

    @pytest.mark.parametrize("bad", [0.2, 0.3, 0.0, -0.1, 1.0])
    def test_rejects_target_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            ErrorModel(target_ber=bad, ber_coeff=0.2)

    def test_rejects_non_positive_coeff(self):
        with pytest.raises(ValueError):
            ErrorModel(target_ber=1e-3, ber_coeff=0.0)

    def test_constants_relations(self):
        # Every scheme prices its cutoff at k_sinr on the same two SINR
        # means; only the weights on them differ.
        params = params_for(SET_B, 0.4)
        requests = [(scheme, params) for scheme in Scheme]
        weights, means = cutoff_rows(requests)
        assert weights.tolist() == [[0.6, 0.4], [1.0, 0.0], [0.0, 1.0]]
        assert means.tolist() == \
            [[params.mean_sinr_clean, params.mean_sinr_impulse]] * 3
        assert EM.k_sinr > 0


class TestAssumptionWeights:
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_belief_laws(self, p):
        assert assumption_weights(Scheme.CONVENTIONAL, p) == (1.0 - p, p)
        assert assumption_weights(Scheme.AGGRESSIVE, p) == (1.0, 0.0)
        assert assumption_weights(Scheme.CONSERVATIVE, p) == (0.0, 1.0)

    def test_conventional_endpoints_are_the_simple_beliefs(self):
        assert assumption_weights(Scheme.CONVENTIONAL, 0.0) == \
            assumption_weights(Scheme.AGGRESSIVE, 0.0)
        assert assumption_weights(Scheme.CONVENTIONAL, 1.0) == \
            assumption_weights(Scheme.CONSERVATIVE, 1.0)


class TestQamBer:
    def test_zero_sinr_gives_coefficient(self):
        assert qam_ber(0.0, 4.0) == 0.2
        assert qam_ber(0.0, 64.0, ber_coeff=0.1) == 0.1

    def test_inverts_to_target(self):
        gamma = math.log(200.0) / 1.5
        assert qam_ber(gamma, 2.0) == pytest.approx(1e-3, rel=1e-12)

    def test_direct_evaluation(self):
        assert qam_ber(10.0, 4.0) == pytest.approx(0.2 * math.exp(-5.0), rel=1e-12)
        assert qam_ber(10.0, 4.0) == pytest.approx(1.3476e-3, abs=1e-7)

    def test_zero_rate_convention(self):
        assert qam_ber(5.0, 1.0) == 0.2

    def test_clamped_to_probability(self):
        assert qam_ber(0.0, 2.0, ber_coeff=1.7) == 1.0

    @pytest.mark.parametrize("gamma,m", [(-1.0, 4.0), (1.0, 0.5), (1.0, 0.999)])
    def test_domain_errors(self, gamma, m):
        with pytest.raises(ValueError):
            qam_ber(gamma, m)


class TestWaterfillingShapes:
    def setup_method(self):
        self.policy = Policy(scheme=Scheme.AGGRESSIVE, threshold=0.758)
        self.k = 0.283105

    def test_zero_at_and_below_threshold(self):
        assert wf_power_fraction(0.758, self.policy, self.k) == 0.0
        assert wf_power_fraction(0.5, self.policy, self.k) == 0.0
        assert wf_rate_bits(0.758, self.policy) == 0.0
        assert wf_rate_bits(0.9 * 0.758, self.policy) == 0.0

    def test_power_fraction_example(self):
        expected = (1.0 / 0.758 - 0.5) / 0.283105
        got = wf_power_fraction(2.0, self.policy, self.k)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(2.8941, abs=1e-3)

    def test_doubling_gamma_adds_one_bit(self):
        assert wf_rate_bits(2.0 * 0.758, self.policy) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            Policy(scheme=Scheme.AGGRESSIVE, threshold=0.0)


class TestCutoffRows:
    def test_forward_evaluated_unit_root(self):
        k = math.exp(-1.0) - exp_integral_e1(1.0)
        root = solve_cutoffs(UNIT_WEIGHTS, UNIT_MEANS, [k])[0]
        assert root == pytest.approx(1.0, abs=1e-9)

    def test_known_clean_threshold(self):
        # Aggressive at 0 dB SNR prices the clean SINR, here H itself, at
        # k = k_sinr = 0.28311.
        policy = make_policy(Scheme.AGGRESSIVE, params_for(SET_A, 0.5), EM)
        assert policy.threshold == pytest.approx(0.758, abs=5e-4)

    @pytest.mark.parametrize("scheme", [Scheme.AGGRESSIVE, Scheme.CONSERVATIVE])
    def test_simple_cutoffs_scale_with_their_mean(self, scheme):
        # On the SINR scale a one-state cutoff is its mean times the cutoff
        # of the unit-mean exponential at k_sinr times that mean.
        params = params_for(SET_B, 0.5)
        mean = (params.mean_sinr_clean if scheme is Scheme.AGGRESSIVE
                else params.mean_sinr_impulse)
        unit = solve_cutoffs(UNIT_WEIGHTS, UNIT_MEANS, [EM.k_sinr * mean])[0]
        threshold = make_policy(scheme, params, EM).threshold
        assert threshold == pytest.approx(mean * unit, rel=1e-12)

    def test_degenerate_mixture_matches_clean(self):
        # At p = 0 the burst-hit column carries zero weight, and dropping it
        # leaves the cutoff exactly as it was.
        weights, means = cutoff_rows(
            [(Scheme.CONVENTIONAL, params_for(SET_A, 0.0))])
        k = [EM.k_sinr]
        assert weights[0, 1] == 0.0
        assert solve_cutoffs(weights, means, k) == \
            solve_cutoffs(weights[:, :1], means[:, :1], k)

    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError):
            solve_cutoffs(UNIT_WEIGHTS, UNIT_MEANS, [0.0])

    @pytest.mark.parametrize("config", [SET_A, SET_B, SET_C])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_threshold_residuals(self, config, p, scheme):
        params = params_for(config, p)
        policy = make_policy(scheme, params, EM)
        residual = spend_of(policy, params) - EM.k_sinr
        assert abs(residual) <= 1e-9

    @pytest.mark.parametrize("config", [SET_A, SET_B, SET_C])
    @pytest.mark.parametrize("p", [0.2, 0.8])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_power_budget_spent_exactly(self, config, p, scheme):
        # Quadrature restatement of the budget equation the solver enforced.
        params = params_for(config, p)
        policy = make_policy(scheme, params, EM)
        weights, means = cutoff_rows([(scheme, params)])
        row = (weights[0], means[0])
        spent = integrate_semi_infinite(
            lambda g: wf_power_fraction(g, policy, EM.k_sinr)
            * density_at(*row, g),
            policy.threshold)
        assert spent == pytest.approx(1.0, abs=1e-6)


class TestClosedFormRates:
    def test_conventional_set_a_points(self):
        assert rate_conventional(params_for(SET_A, 0.0), EM) == \
            pytest.approx(0.4842, abs=2e-3)
        assert rate_conventional(params_for(SET_A, 0.5), EM) == \
            pytest.approx(0.2544, abs=2e-3)
        assert rate_conventional(params_for(SET_A, 1.0), EM) == \
            pytest.approx(0.3064, abs=2e-3)

    def test_conventional_p1_equals_conservative(self):
        for config in (SET_A, SET_B, SET_C):
            conventional = rate_conventional(params_for(config, 1.0), EM)
            conservative = rate_conservative(params_for(config, 1.0), EM)
            assert abs(conventional - conservative) <= 1e-9

    def test_conventional_p0_equals_aggressive_p0(self):
        for config in (SET_A, SET_B, SET_C):
            conventional = rate_conventional(params_for(config, 0.0), EM)
            aggressive = rate_aggressive(params_for(config, 0.0), EM)
            assert abs(conventional - aggressive) <= 1e-9

    def test_aggressive_known_points(self):
        assert rate_aggressive(params_for(SET_A, 1.0), EM) == 0.0
        assert rate_aggressive(params_for(SET_B, 0.5), EM) == \
            pytest.approx(0.8762, abs=2e-3)
        assert rate_aggressive(params_for(SET_A, 0.9), EM) == \
            pytest.approx(0.0484, abs=2e-3)

    def test_aggressive_exactly_linear_in_p(self):
        base = rate_aggressive(params_for(SET_B, 0.0), EM)
        for p in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            assert rate_aggressive(params_for(SET_B, p), EM) == (1.0 - p) * base

    def test_conservative_known_points_and_flat_in_p(self):
        values = [rate_conservative(params_for(SET_A, p), EM)
                  for p in (0.0, 0.3, 0.6, 1.0)]
        assert all(v == values[0] for v in values)
        assert values[0] == pytest.approx(0.3064, abs=2e-3)
        assert rate_conservative(params_for(SET_C, 0.5), EM) == \
            pytest.approx(0.0155, abs=2e-3)
        assert rate_conservative(params_for(SET_B, 0.5), EM) == \
            pytest.approx(0.0957, abs=2e-3)

    def test_rate_integral_closed_form_vs_quadrature(self):
        # log2(e) * E1(t) against the defining rate integral.
        for t in (0.1, 0.5, 1.0, 2.0):
            quadrature = integrate_semi_infinite(
                lambda g: math.log2(g / t) * math.exp(-g), t)
            assert abs(LOG2_E * exp_integral_e1(t) - quadrature) <= 1e-7

    @pytest.mark.parametrize("rate", [rate_conventional, rate_aggressive,
                                      rate_conservative])
    def test_rates_nondecreasing_in_snr(self, rate):
        for inr_db, p in ((0.0, 0.4), (20.0, 0.4)):
            values = [rate(ChannelParams(snr_db=s, inr_db=inr_db,
                                         impulse_prob=p), EM)
                      for s in (-5.0, 0.0, 5.0, 10.0, 15.0)]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestOutageAndHitBer:
    def test_outage_prob_values(self):
        # The p(1-p) mismatch law, p * w_clean under conventional.
        def outage(p):
            params = params_for(SET_A, p)
            policy = make_policy(Scheme.CONVENTIONAL, params, EM)
            return policy_law(policy, params, EM)[1]
        assert outage(0.0) == 0.0
        assert outage(0.5) == 0.25
        assert outage(1.0) == 0.0

    def test_outage_prob_domain(self):
        # The burst probability is checked once, where the link is built.
        with pytest.raises(ValueError):
            params_for(SET_A, 1.5)

    def test_hit_ber_zero_inr_meets_target_exactly(self):
        assert impulse_ber_under_conventional(EM, 0.0) == EM.target_ber

    def test_hit_ber_unit_inr(self):
        expected = math.sqrt(0.2 * 1e-3)
        assert impulse_ber_under_conventional(EM, 1.0) == \
            pytest.approx(expected, abs=1e-12)

    def test_hit_ber_closed_form_identity(self):
        c, pb = EM.ber_coeff, EM.target_ber
        for inr in (0.01, 0.5, 1.0, 10.0, 100.0):
            expected = c ** (inr / (1.0 + inr)) * pb ** (1.0 / (1.0 + inr))
            assert abs(impulse_ber_under_conventional(EM, inr) - expected) <= 1e-12

    def test_hit_ber_exceeds_target_for_positive_inr(self):
        for inr in (1e-6, 0.1, 1.0, 100.0):
            assert impulse_ber_under_conventional(EM, inr) > EM.target_ber

    def test_hit_ber_rejects_negative_inr(self):
        with pytest.raises(ValueError):
            impulse_ber_under_conventional(EM, -0.5)


class TestCrossover:
    def test_set_a_value(self):
        p_th = crossover_pth(params_for(SET_A, 0.5), EM)
        assert p_th == pytest.approx(0.3672, abs=1e-3)

    def test_set_b_value(self):
        p_th = crossover_pth(params_for(SET_B, 0.5), EM)
        assert p_th == pytest.approx(0.9454, abs=1e-3)

    def test_matches_linear_construction(self):
        params = params_for(SET_A, 0.5)
        p_th = crossover_pth(params, EM)
        rate_n0 = rate_aggressive(replace(params, impulse_prob=0.0), EM)
        assert rate_aggressive(replace(params, impulse_prob=p_th), EM) == \
            pytest.approx(rate_conservative(params, EM), rel=1e-12)
        assert p_th == 1.0 - rate_conservative(params, EM) / rate_n0

    def test_increasing_in_inr(self):
        values = [crossover_pth(ChannelParams(snr_db=0.0, inr_db=mu,
                                              impulse_prob=0.5), EM)
                  for mu in (0.0, 10.0, 20.0)]
        assert values[0] < values[1] < values[2]

    def test_boundary_equal_rates(self):
        params = ChannelParams(snr_db=0.0, inr_db=-math.inf, impulse_prob=0.5)
        assert crossover_pth(params, EM) == 0.0


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)
snr_dbs = st.floats(min_value=-100.0, max_value=120.0)
inr_dbs = st.floats(min_value=-30.0, max_value=100.0)
# Down to -300 dB, where bursts carry next to no interference, and none.
faint_inr_dbs = st.floats(min_value=-300.0, max_value=100.0) | st.just(-math.inf)
probs = st.floats(min_value=0.0, max_value=1.0)
# BER targets log-uniform over (1e-12, 0.2), below the curve coefficient.
targets = st.floats(min_value=-12.0, max_value=math.log10(0.2),
                    exclude_min=True, exclude_max=True).map(
    lambda e: 10.0 ** e).filter(lambda pb: 1e-12 < pb < 0.2)
# Steps between two links, in dB: wide enough that the rate or crossover
# they move is far above float noise.
db_steps = st.floats(min_value=0.01, max_value=20.0)
# The paper's range of links, and burst probabilities strictly inside (0, 1).
paper_snr_dbs = st.floats(min_value=-20.0, max_value=60.0)
paper_inr_dbs = st.floats(min_value=-30.0, max_value=60.0)
inner_probs = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                        exclude_max=True)


class TestCutoffProperties:
    """Over the whole SNR range [-100, 120] dB and INR range [-30, 100] dB;
    the crossover clamp also down to -300 dB INR and none."""

    @PROPERTY_SETTINGS
    @given(snr_dbs, inr_dbs, probs, targets)
    def test_budget_residual(self, snr_db, inr_db, p, pb):
        params = ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=p)
        em = ErrorModel(target_ber=pb)
        for scheme in Scheme:
            policy = make_policy(scheme, params, em)
            spend = spend_of(policy, params)
            assert abs(spend / em.k_sinr - 1.0) <= 1e-9

    @PROPERTY_SETTINGS
    @given(snr_dbs, inr_dbs, targets)
    def test_conventional_endpoints_match_simple_schemes(self, snr_db, inr_db,
                                                         pb):
        # Conventional at p = 0 holds aggressive's belief and at p = 1
        # conservative's, so both solve the very same row.
        at_0 = ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=0.0)
        at_1 = replace(at_0, impulse_prob=1.0)
        em = ErrorModel(target_ber=pb)
        conv_0 = make_policy(Scheme.CONVENTIONAL, at_0, em)
        conv_1 = make_policy(Scheme.CONVENTIONAL, at_1, em)
        aggressive = make_policy(Scheme.AGGRESSIVE, at_0, em)
        conservative = make_policy(Scheme.CONSERVATIVE, at_1, em)
        assert conv_0.threshold == aggressive.threshold
        assert conv_1.threshold == conservative.threshold
        assert policy_law(conv_0, at_0, em) == policy_law(aggressive, at_0, em)
        assert policy_law(conv_1, at_1, em) == \
            policy_law(conservative, at_1, em)

    @PROPERTY_SETTINGS
    @given(snr_dbs, inr_dbs, st.lists(probs, min_size=1, max_size=21), targets)
    def test_grid_solve_matches_point_solves(self, snr_db, inr_db, grid, pb):
        links = [ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=p)
                 for p in grid]
        em = ErrorModel(target_ber=pb)
        requests = [(scheme, link) for link in links for scheme in Scheme]
        together = make_policies(requests, em)
        for (scheme, link), policy in zip(requests, together):
            alone = make_policy(scheme, link, em)
            assert policy.threshold == pytest.approx(alone.threshold, rel=1e-13)
            assert policy.scheme == alone.scheme

    @PROPERTY_SETTINGS
    @given(snr_dbs, db_steps, inr_dbs, probs, targets)
    def test_rates_nondecreasing_in_snr(self, snr_db, step, inr_db, p, pb):
        em = ErrorModel(target_ber=pb)
        low = ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=p)
        high = replace(low, snr_db=min(snr_db + step, 120.0))
        for scheme in Scheme:
            assert rate_for(scheme, low, em) <= rate_for(scheme, high, em)

    @PROPERTY_SETTINGS
    @given(snr_dbs, inr_dbs, db_steps, targets)
    def test_crossover_nondecreasing_in_inr(self, snr_db, inr_db, step, pb):
        em = ErrorModel(target_ber=pb)
        low = ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=0.0)
        high = replace(low, inr_db=min(inr_db + step, 100.0))
        assert crossover_pth(low, em) <= crossover_pth(high, em)

    @PROPERTY_SETTINGS
    @given(snr_dbs, faint_inr_dbs, targets)
    def test_conservative_never_beats_aggressive_at_p0(self, snr_db, inr_db,
                                                       pb):
        # mean_sinr_impulse <= mean_sinr_clean, so conservative cannot truly
        # beat aggressive at p = 0. The clamp of p_th at 0 in crossover may
        # only absorb cutoff-solve rounding, a few ulps at INR near -150 dB.
        params = ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=0.0)
        aggressive, conservative, p_th = crossover(params, ErrorModel(pb))
        assert conservative <= aggressive * (1.0 + 1e-12)
        assert 0.0 <= p_th <= 1.0


class TestHeadline:
    """The paper's claim: conventional water-filling is never the best of
    the three schemes, over SNR [-20, 60] dB, INR [-30, 60] dB, p in (0, 1)
    and every BER target. Conventional ties aggressive as p -> 0 and
    conservative as p -> 1; the slack of 1e-12 takes only those ties'
    rounding (3,000 examples: the largest excess was 1.3e-15, at p = 5e-324)."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(paper_snr_dbs, paper_inr_dbs, inner_probs, targets)
    def test_conventional_never_beats_both_simple_schemes(self, snr_db,
                                                          inr_db, p, pb):
        params = ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=p)
        em = ErrorModel(target_ber=pb)
        policies = make_policies([(scheme, params) for scheme in Scheme], em)
        conventional, aggressive, conservative = (
            policy_law(policy, params, em)[0] for policy in policies)
        assert conventional <= max(aggressive, conservative) * (1.0 + 1e-12)


class TestPolicyLaw:
    """The law at a mismatch share below 1, as block sampling sees it."""

    @pytest.mark.parametrize("config", [SET_A, SET_B, SET_C])
    @pytest.mark.parametrize("mismatch", [0.0, 0.5, 7 / 8])
    def test_conventional_first_symbols_earn_the_clean_rate(self, config,
                                                            mismatch):
        # Matched symbols believed clean keep their rate: the closed form
        # plus p(1-p)(1 - mismatch) R_clean, and outage p(1-p) * mismatch.
        params = params_for(config, 0.3)
        policy = make_policy(Scheme.CONVENTIONAL, params, EM)
        rate, outage = policy_law(policy, params, EM)
        clean = LOG2_E * exp_integral_e1(policy.threshold
                                         / params.mean_sinr_clean)
        got_rate, got_outage = policy_law(policy, params, EM, mismatch)
        assert got_rate == pytest.approx(
            rate + 0.3 * 0.7 * (1.0 - mismatch) * clean, rel=1e-12)
        assert got_outage == pytest.approx(outage * mismatch, rel=1e-15)

    @pytest.mark.parametrize("scheme", [Scheme.AGGRESSIVE,
                                        Scheme.CONSERVATIVE])
    def test_fixed_beliefs_ignore_mismatch(self, scheme):
        params = params_for(SET_B, 0.3)
        policy = make_policy(scheme, params, EM)
        assert policy_law(policy, params, EM, 0.25) == \
            policy_law(policy, params, EM)

    def test_no_loss_without_interference(self):
        params = ChannelParams(snr_db=0.0, inr_db=-math.inf, impulse_prob=0.3)
        for scheme in Scheme:
            policy = make_policy(scheme, params, EM)
            assert policy_law(policy, params, EM, 0.5) == \
                policy_law(policy, params, EM)
            assert policy_law(policy, params, EM)[1] == 0.0


class TestPolicyRates:
    def test_one_aggressive_policy_serves_every_p(self):
        policy = make_policy(Scheme.AGGRESSIVE, params_for(SET_B, 0.0), EM)
        for p in (0.1, 0.5, 0.9):
            params = params_for(SET_B, p)
            assert policy_law(policy, params, EM)[0] == \
                rate_aggressive(params, EM)

    def test_empty_request_list(self):
        assert make_policies([], EM) == []

    def test_extreme_snr_rates_are_finite_and_ordered(self):
        # Both ends of the range used to fail the bracketed solve.
        low = ChannelParams(snr_db=-100.0, inr_db=20.0, impulse_prob=0.5)
        high = ChannelParams(snr_db=120.0, inr_db=20.0, impulse_prob=0.5)
        for scheme in Scheme:
            rates = [rate_for(scheme, params, EM)
                     for params in (low, high)]
            assert all(math.isfinite(r) and r >= 0.0 for r in rates)
            assert rates[0] < rates[1]


class TestZeroInterference:
    """INR = -inf: bursts carry no interference, so no symbol is lost."""

    def test_bursts_lost_only_with_interference(self):
        assert not bursts_lost(ChannelParams(0.0, -math.inf, 0.5), EM)
        assert not bursts_lost(ChannelParams(0.0, -120.0, 0.5), EM)
        assert bursts_lost(ChannelParams(0.0, -90.0, 0.5), EM)
        assert bursts_lost(ChannelParams(0.0, 0.0, 0.5), EM)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_scheme_earns_the_burst_free_rate(self, scheme, p):
        params = ChannelParams(snr_db=0.0, inr_db=-math.inf, impulse_prob=p)
        policy = make_policy(Scheme.AGGRESSIVE, params, EM)
        burst_free = LOG2_E * exp_integral_e1(policy.threshold
                                              / params.mean_sinr_clean)
        assert rate_for(scheme, params, EM) == pytest.approx(burst_free, rel=1e-12)

    def test_conventional_weights_without_losses(self):
        # (1-p) E1(t/m_clean) + p E1(t/m_hit), the hit mean just below clean.
        params = ChannelParams(snr_db=0.0, inr_db=-120.0, impulse_prob=0.4)
        t = make_policy(Scheme.CONVENTIONAL, params, EM).threshold
        expected = LOG2_E * (0.6 * exp_integral_e1(t / params.mean_sinr_clean)
                             + 0.4 * exp_integral_e1(t / params.mean_sinr_impulse))
        assert rate_conventional(params, EM) == pytest.approx(expected, rel=1e-14)
