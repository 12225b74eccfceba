"""Monte Carlo engine: laws, determinism, windowed reading, block mode."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsewf import simulate
from impulsewf.adaptation import (
    _impulse_ber_under_conventional as impulse_ber_under_conventional)
from impulsewf.adaptation import (ErrorModel, Scheme, make_policies,
                                  make_policy, policy_law)
from impulsewf.channel import ChannelParams
from impulsewf.simulate import (SimConfig, SimMode, _draw_windows,
                                simulate_policy)
from oracles import qam_ber, rate_for, sinr_of, wf_power_fraction, wf_rate_bits

EM = ErrorModel(target_ber=1e-3)
SET_A = dict(snr_db=0.0, inr_db=0.0)
SET_B = dict(snr_db=10.0, inr_db=20.0)


def params_for(config, p):
    return ChannelParams(impulse_prob=p, **config)


def three_sigma_binomial(q, n):
    return 3.0 * math.sqrt(q * (1.0 - q) / n)


def run(params, scheme, cfg):
    return simulate_policy(make_policy(scheme, params, EM), cfg)


def draw(params, cfg):
    """(fading power, governing state, actual state) of each symbol of the
    whole run: a block's fading and governing state repeated over its
    symbols, the (symbols, blocks) actual states back in stream order."""
    h, governing, actual = (np.concatenate(arrays, axis=-1)
                            for arrays in zip(*_draw_windows(params, cfg)))
    return (np.repeat(h, cfg.batch), np.repeat(governing, cfg.batch),
            actual.T.reshape(-1))


# The burst state aggressive and conservative adapt every symbol on.
FIXED_BELIEF = {Scheme.AGGRESSIVE: False, Scheme.CONSERVATIVE: True}


def assumed_states(scheme, governing):
    """The burst state each symbol is adapted on: the governing state for
    conventional, the scheme's fixed belief for the other two."""
    if scheme is Scheme.CONVENTIONAL:
        return governing
    return np.full(governing.shape, FIXED_BELIEF[scheme])


class TestAdaptationBasis:
    # The fading stream is drawn first, so one seed gives the same H for
    # every p; a scheme that adapts on H alone then spends identical power.
    def test_conservative_ignores_burst_states(self):
        cfg = SimConfig(n_symbols=20_000, seed=8)
        spent = [run(params_for(SET_B, p), Scheme.CONSERVATIVE,
                     cfg).mean_power_frac for p in (0.0, 0.5, 1.0)]
        assert spent[0] == spent[1] == spent[2]

    def test_aggressive_ignores_burst_states(self):
        cfg = SimConfig(n_symbols=20_000, seed=8)
        spent = [run(params_for(SET_B, p), Scheme.AGGRESSIVE,
                     cfg).mean_power_frac for p in (0.0, 0.5, 1.0)]
        assert spent[0] == spent[1] == spent[2]


class TestAgainstTheory:
    @pytest.mark.parametrize("config", [SET_A, SET_B])
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rate_matches_closed_form(self, config, p, scheme):
        params = params_for(config, p)
        result = run(params, scheme, SimConfig(seed=2024))
        theory = rate_for(scheme, params, EM)
        tol = max(0.005, 3.0 * result.avg_se_stderr)
        assert abs(result.avg_se - theory) <= tol

    def test_conservative_example(self):
        for p in (0.1, 0.6, 1.0):
            result = run(params_for(SET_A, p), Scheme.CONSERVATIVE,
                         SimConfig(seed=31))
            assert result.avg_se == pytest.approx(0.3064, abs=0.005)
            assert result.outage_frac == 0.0

    def test_conventional_example(self):
        result = run(params_for(SET_A, 0.5), Scheme.CONVENTIONAL,
                     SimConfig(seed=31))
        assert result.avg_se == pytest.approx(0.2544, abs=0.005)

    def test_aggressive_all_bursts(self):
        params = params_for(SET_A, 1.0)
        result = run(params, Scheme.AGGRESSIVE, SimConfig(seed=31))
        assert result.avg_se == 0.0
        # Everything transmitted is lost, so outage is the above-cutoff mass.
        policy = make_policy(Scheme.AGGRESSIVE, params, EM)
        above = math.exp(-policy.threshold / params.mean_sinr_clean)
        assert abs(result.outage_frac - above) <= three_sigma_binomial(above, 100_000)


# A prime run length: no block length from 2 to 16 divides it, so block
# mode always rounds the run up to whole blocks.
PROPERTY_SYMBOLS = 20_011
# Absolute floors, in bits per symbol and in whole blocks. A run in which
# only a few blocks transmit (low SNR, a conservative belief under strong
# bursts) estimates its standard error from those few, and an outage of a
# few events is not normal: there 5 sigma alone fails correct code.
RATE_FLOOR = 0.005
OUTAGE_FLOOR_BLOCKS = 3


class TestAgainstTheoryProperty:
    """Simulator and closed form agree over the paper's range: SNR -20 to
    60 dB, INR -30 to 60 dB, p in [0, 1], every BER target, both modes and
    block lengths 1 to 16, each scheme at ``policy_law``'s
    ``cfg.mismatch``. The rate lies within max(RATE_FLOOR, 5 standard
    errors), the outage within 5 block-level binomial sigmas plus
    OUTAGE_FLOOR_BLOCKS blocks.

    False-alarm budget: 200 examples make 1,200 checks. Where the normal
    approximation holds a check of correct code fails with probability
    5.7e-7, so under 1e-3 for the whole set. Low-SNR rates are skewed, so
    the tail is heavier: 120,000 random examples (360,000 checks) from
    these ranges, with extra weight on p = 0, p = 1 and tiny p, failed
    these bounds once, a 5.1-sigma rate deviation (block mode, -13 dB
    SNR), about 0.3% for a set of this size. Reruns of that link over 40
    seeds showed no bias (mean z -0.08). The examples are derandomized,
    so the set is fixed.
    """

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(min_value=-20.0, max_value=60.0),
           st.floats(min_value=-30.0, max_value=60.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=-12.0, max_value=math.log10(0.2),
                     exclude_min=True, exclude_max=True),
           st.sampled_from(SimMode), st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_rate_and_outage_match_policy_law(self, snr_db, inr_db, p,
                                              log_pb, mode, block_len, seed):
        params = ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=p)
        em = ErrorModel(target_ber=10.0 ** log_pb)
        cfg = SimConfig(n_symbols=PROPERTY_SYMBOLS, seed=seed, mode=mode,
                        block_len=block_len)
        for policy in make_policies([(s, params) for s in Scheme], em):
            rate, outage = policy_law(policy, cfg.mismatch)
            result = simulate_policy(policy, cfg)
            blocks = result.n_symbols // cfg.batch
            assert abs(result.avg_se - rate) <= \
                max(RATE_FLOOR, 5.0 * result.avg_se_stderr)
            sigma = math.sqrt(outage * (1.0 - outage) / blocks)
            assert abs(result.outage_frac - outage) <= \
                5.0 * sigma + OUTAGE_FLOOR_BLOCKS / blocks


class TestOutageLaws:
    @pytest.mark.parametrize("p", [i / 10 for i in range(11)])
    def test_conventional_mismatch_law(self, p):
        result = run(params_for(SET_A, p), Scheme.CONVENTIONAL,
                     SimConfig(seed=88))
        target = p * (1.0 - p)
        assert abs(result.outage_frac - target) <= \
            three_sigma_binomial(target, result.n_symbols)

    @pytest.mark.parametrize("p", [0.0, 0.4, 0.9])
    def test_aggressive_transmitted_burst_law(self, p):
        params = params_for(SET_B, p)
        result = run(params, Scheme.AGGRESSIVE, SimConfig(seed=88))
        _, target = policy_law(make_policy(Scheme.AGGRESSIVE, params, EM))
        assert abs(result.outage_frac - target) <= \
            three_sigma_binomial(max(target, 1e-9), result.n_symbols)

    def test_conservative_never(self):
        for p in (0.2, 0.7):
            result = run(params_for(SET_B, p), Scheme.CONSERVATIVE,
                         SimConfig(seed=88))
            assert result.outage_frac == 0.0

    def test_no_outage_without_interference_power(self):
        params = ChannelParams(snr_db=0.0, inr_db=-math.inf, impulse_prob=0.5)
        for scheme in Scheme:
            result = run(params, scheme, SimConfig(n_symbols=20_000, seed=5))
            assert result.outage_frac == 0.0

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("config", [SET_A, SET_B])
    def test_power_budget_met_empirically(self, scheme, config):
        result = run(params_for(config, 0.5), scheme, SimConfig(seed=404))
        assert result.mean_power_frac == pytest.approx(1.0, abs=0.02)


class TestPerSymbolBerEquivalence:
    """The vectorised accounting equals the literal per-symbol BER rule."""

    # Set A sits at 0 dB SNR, where H and the clean SINR coincide; set B
    # checks the SINR scale.
    @pytest.mark.parametrize("config", [SET_A, SET_B], ids=["A", "B"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_accounting_matches_qam_ber(self, scheme, config):
        params = params_for(config, 0.4)
        cfg = SimConfig(n_symbols=2000, seed=99)
        h, governing, actual = draw(params, cfg)
        policy = make_policy(scheme, params, EM)
        assumed = assumed_states(scheme, governing)
        basis = sinr_of(params, h, assumed, 1.0)
        power = wf_power_fraction(basis, policy, EM.k_sinr)
        transmitted = power > 0.0
        outage = np.zeros(h.size, dtype=bool)
        for i in np.nonzero(transmitted)[0]:
            m = basis[i] / policy.threshold
            scaled = sinr_of(params, h[i], bool(actual[i]), power[i])
            outage[i] = qam_ber(scaled, m, EM.ber_coeff) > EM.target_ber + 1e-12
        if scheme is Scheme.CONVENTIONAL:
            # Below-cutoff symbols whose block feedback overstated them are
            # outage too; that is the p(1-p) bookkeeping.
            hit_ber = impulse_ber_under_conventional(EM, params.inr_linear)
            if hit_ber > EM.target_ber + 1e-12:
                outage |= ~transmitted & ~governing & actual
        rate = np.where(transmitted, wf_rate_bits(basis, policy), 0.0)
        expected_se = rate[transmitted & ~outage].sum() / h.size
        counts = tuple(tuple(int(np.count_nonzero((assumed == a) & (actual == b)))
                             for b in (False, True)) for a in (False, True))

        result = run(params, scheme, cfg)
        assert result.counts == counts
        assert result.outage_frac == outage.mean()
        assert result.avg_se == pytest.approx(expected_se, rel=1e-12)
        # The simulator scales H by the assumed state's mean SINR, the
        # reference divides by the noise power: equal up to rounding,
        # which is exact at 0 dB.
        if config is SET_A:
            assert result.mean_power_frac == power.mean()
        else:
            assert result.mean_power_frac == pytest.approx(power.mean(),
                                                           rel=1e-12)

    def test_conventional_follows_governing_state(self):
        # Power follows the SINR the governing state implies, not H.
        params = params_for(SET_A, 0.5)
        cfg = SimConfig(n_symbols=20_000, seed=8)
        h, governing, _ = draw(params, cfg)
        policy = make_policy(Scheme.CONVENTIONAL, params, EM)
        power = wf_power_fraction(sinr_of(params, h, governing, 1.0), policy,
                                  EM.k_sinr)
        result = run(params, Scheme.CONVENTIONAL, cfg)
        assert result.mean_power_frac == power.sum() / h.size


class TestDeterminismAndCounts:
    def test_bit_identical_reruns(self):
        params = params_for(SET_A, 0.3)
        cfg = SimConfig(seed=777)
        assert run(params, Scheme.CONVENTIONAL, cfg) == \
            run(params, Scheme.CONVENTIONAL, cfg)

    def test_counts_sum_and_rows(self):
        params = params_for(SET_A, 0.3)
        result = run(params, Scheme.CONVENTIONAL, SimConfig(seed=1))
        assert sum(sum(row) for row in result.counts) == result.n_symbols
        aggressive = run(params, Scheme.AGGRESSIVE, SimConfig(seed=1))
        assert aggressive.counts[1] == (0, 0)  # believes clean throughout
        conservative = run(params, Scheme.CONSERVATIVE, SimConfig(seed=1))
        assert conservative.counts[0] == (0, 0)  # believes hit throughout

    def test_conventional_count_cells_near_joint_probabilities(self):
        p = 0.3
        result = run(params_for(SET_A, p), Scheme.CONVENTIONAL,
                     SimConfig(seed=6))
        n = result.n_symbols
        joint = [[(1 - p) * (1 - p), (1 - p) * p], [p * (1 - p), p * p]]
        for i in (0, 1):
            for j in (0, 1):
                assert abs(result.counts[i][j] / n - joint[i][j]) <= \
                    three_sigma_binomial(joint[i][j], n)


class TestWindows:
    """One stream, read in windows: the window size changes no draw."""

    @staticmethod
    def assert_same_run(windowed, whole):
        assert windowed.counts == whole.counts
        assert windowed.outage_frac == whole.outage_frac
        assert windowed.n_symbols == whole.n_symbols
        for field in ("avg_se", "mean_power_frac", "avg_se_stderr"):
            assert getattr(windowed, field) == pytest.approx(
                getattr(whole, field), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("config", [SET_A, SET_B])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_per_symbol_window_independence(self, monkeypatch, scheme, config):
        # 10 full windows of 1000 symbols and a partial one of 500.
        params = params_for(config, 0.4)
        cfg = SimConfig(n_symbols=10_500, seed=21)
        whole = run(params, scheme, cfg)
        monkeypatch.setattr(simulate, "WINDOW", 1000)
        self.assert_same_run(run(params, scheme, cfg), whole)

    @pytest.mark.parametrize("window,n_symbols", [(1000, 10_001), (3, 101)])
    @pytest.mark.parametrize("block_len", [4, 8])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_block_window_independence(self, monkeypatch, scheme, block_len,
                                       window, n_symbols):
        # 1000 // L blocks per window does not divide the 2501 (L = 4) or
        # 1251 (L = 8) blocks; a window shorter than a block holds one.
        params = params_for(SET_A, 0.4)
        cfg = SimConfig(n_symbols=n_symbols, seed=22, mode=SimMode.BLOCK,
                        block_len=block_len)
        whole = run(params, scheme, cfg)
        monkeypatch.setattr(simulate, "WINDOW", window)
        self.assert_same_run(run(params, scheme, cfg), whole)

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_fixed_beliefs_leave_governing_states_unread(self, mode):
        # Aggressive and conservative never read the governing states; the
        # fading and actual states come from the same draws regardless.
        params = params_for(SET_A, 0.4)
        cfg = SimConfig(n_symbols=1000, seed=23, mode=mode, block_len=4)
        full = list(_draw_windows(params, cfg))
        bare = list(_draw_windows(params, cfg, governing=False))
        assert len(bare) == len(full)
        for (h, _, actual), (bare_h, governing, bare_actual) in zip(full, bare):
            assert governing is None
            assert np.array_equal(bare_h, h)
            assert np.array_equal(bare_actual, actual)

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_stream_layout(self, monkeypatch, mode):
        # Consecutive segments of one PCG64 stream, whatever the window.
        p = 0.4
        cfg = SimConfig(n_symbols=1000, seed=23, mode=mode, block_len=4)
        monkeypatch.setattr(simulate, "WINDOW", 96)
        h, governing, actual = draw(params_for(SET_A, p), cfg)
        if mode is SimMode.PER_SYMBOL:
            u = np.random.Generator(np.random.PCG64(23)).random(3000)
            assert np.array_equal(h, -np.log1p(-u[:1000]))
            assert np.array_equal(governing, u[1000:2000] < p)
            assert np.array_equal(actual, u[2000:] < p)
        else:
            u = np.random.Generator(np.random.PCG64(23)).random(250 + 1000)
            mask = u[250:].reshape(250, 4) < p
            assert np.array_equal(h, np.repeat(-np.log1p(-u[:250]), 4))
            assert np.array_equal(governing, np.repeat(mask[:, 0], 4))
            assert np.array_equal(actual, mask.reshape(-1))

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_peak_memory_flat_in_run_length(self, mode):
        params = params_for(SET_A, 0.5)
        policy = make_policy(Scheme.CONVENTIONAL, params, EM)

        def peak(n_symbols):
            tracemalloc.start()
            try:
                simulate_policy(policy, SimConfig(
                    n_symbols=n_symbols, seed=1, mode=mode, block_len=8))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(4 * simulate.WINDOW) <= 1.25 * peak(simulate.WINDOW)


class TestBlockStates:
    """The block path of ``_draw_windows``, the sampler the simulator uses."""

    L = 4

    def block_cfg(self, n_symbols=4000, seed=3):
        return SimConfig(n_symbols=n_symbols, seed=seed, mode=SimMode.BLOCK,
                         block_len=self.L)

    @pytest.mark.parametrize("p,state", [(0.0, False), (1.0, True)])
    def test_masks_at_degenerate_p(self, p, state):
        _, governing, actual = draw(params_for(SET_A, p), self.block_cfg())
        assert np.all(governing == state)
        assert np.all(actual == state)

    def test_shape_and_positivity(self):
        h, governing, actual = draw(params_for(SET_A, 0.5), self.block_cfg(1001))
        assert h.shape == governing.shape == actual.shape == (1004,)
        assert np.all(h > 0.0)

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            SimConfig(mode=SimMode.BLOCK, block_len=0)

    def test_fading_constant_within_block(self):
        h, _, _ = draw(params_for(SET_A, 0.5), self.block_cfg())
        blocks = h.reshape(-1, self.L)
        assert np.all(blocks == blocks[:, :1])

    def test_governing_state_is_first_actual_state(self):
        _, governing, actual = draw(params_for(SET_A, 0.5), self.block_cfg())
        governing = governing.reshape(-1, self.L)
        actual = actual.reshape(-1, self.L)
        assert np.all(governing == actual[:, :1])
        # The other symbols draw their own states.
        assert np.any(actual[:, 1:] != actual[:, :1])

    def test_seeded_statistics_of_blocks(self):
        # 1e5 blocks: per-block fading mean and burst rate near their targets.
        cfg = self.block_cfg(n_symbols=100_000 * self.L, seed=20260808)
        h, _, actual = draw(params_for(SET_A, 0.5), cfg)
        assert 0.99 <= h[::self.L].mean() <= 1.01
        assert 0.495 <= actual.mean() <= 0.505

    def test_block_states_are_deterministic(self):
        params = params_for(SET_A, 0.5)
        one = draw(params, self.block_cfg(seed=11))
        two = draw(params, self.block_cfg(seed=11))
        assert all(np.array_equal(a, b) for a, b in zip(one, two))


class TestBlockMode:
    @pytest.mark.parametrize("block_len", [2, 4, 16])
    def test_conventional_outage_scales_with_block_len(self, block_len):
        # First symbol of each block can never mismatch its own feedback.
        p = 0.5
        params = params_for(SET_A, p)
        cfg = SimConfig(n_symbols=100_000, seed=515, mode=SimMode.BLOCK,
                        block_len=block_len)
        result = run(params, Scheme.CONVENTIONAL, cfg)
        target = p * (1.0 - p) * (block_len - 1) / block_len
        assert result.n_symbols % block_len == 0
        assert abs(result.outage_frac - target) <= \
            three_sigma_binomial(target, result.n_symbols)

    @pytest.mark.parametrize("block_len", [1, 4, 8])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rate_matches_block_expectation(self, scheme, block_len):
        # At block_len 1 no symbol can mismatch, so conventional loses nothing.
        params = params_for(SET_A, 0.5)
        cfg = SimConfig(n_symbols=100_000, seed=515, mode=SimMode.BLOCK,
                        block_len=block_len)
        result = run(params, scheme, cfg)
        theory, _ = policy_law(make_policy(scheme, params, EM), cfg.mismatch)
        assert abs(result.avg_se - theory) <= max(0.005, 3.0 * result.avg_se_stderr)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_block_stderr_is_the_batch_means_error(self, monkeypatch, scheme):
        # Blocks are i.i.d.: the error is the spread of the block means over
        # the root of the block count. Recomputed from the stream, whose
        # eight windows of 125 blocks the simulator sums one by one; at
        # INR 0 dB a burst on a symbol adapted as clean earns nothing.
        params = params_for(SET_A, 0.5)
        cfg = SimConfig(n_symbols=8000, seed=3, mode=SimMode.BLOCK, block_len=8)
        monkeypatch.setattr(simulate, "WINDOW", 1000)
        h, governing, actual = draw(params, cfg)
        policy = make_policy(scheme, params, EM)
        assumed = assumed_states(scheme, governing)
        rate = wf_rate_bits(sinr_of(params, h, assumed, 1.0), policy)
        rate[actual & ~assumed] = 0.0
        block_means = rate.reshape(-1, 8).mean(axis=1)
        expected = block_means.std() / math.sqrt(block_means.size)

        result = run(params, scheme, cfg)
        assert result.avg_se == pytest.approx(block_means.mean(), rel=1e-12)
        assert result.avg_se_stderr == pytest.approx(expected, rel=1e-9)

    def test_per_symbol_stderr_is_the_symbol_error(self):
        # Per symbol a block is one symbol, whatever block_len says.
        params = params_for(SET_A, 0.5)
        cfg = SimConfig(n_symbols=8000, seed=3, block_len=8)
        h, _, actual = draw(params, cfg)
        policy = make_policy(Scheme.AGGRESSIVE, params, EM)
        rate = wf_rate_bits(sinr_of(params, h, False, 1.0), policy)
        rate[actual] = 0.0
        expected = rate.std() / math.sqrt(rate.size)

        result = run(params, Scheme.AGGRESSIVE, cfg)
        assert result.avg_se == rate.mean()
        assert result.avg_se_stderr == pytest.approx(expected, rel=1e-9)

    def test_block_longer_than_run_rejected(self):
        with pytest.raises(ValueError, match="block_len must not exceed"):
            SimConfig(n_symbols=1, mode=SimMode.BLOCK, block_len=2_000_000)
        # One whole block is fine, and per-symbol mode ignores block_len.
        SimConfig(n_symbols=8, mode=SimMode.BLOCK, block_len=8)
        SimConfig(n_symbols=1, block_len=2_000_000)

    def test_rounds_up_to_whole_blocks(self):
        cfg = SimConfig(n_symbols=1001, seed=3, mode=SimMode.BLOCK, block_len=4)
        result = run(params_for(SET_A, 0.5), Scheme.CONSERVATIVE, cfg)
        assert result.n_symbols == 1004

    def test_outage_law_per_mode(self):
        params = params_for(SET_A, 0.5)
        block = SimConfig(mode=SimMode.BLOCK, block_len=4)

        def outage(scheme, cfg=SimConfig()):
            return policy_law(make_policy(scheme, params, EM), cfg.mismatch)[1]
        assert outage(Scheme.CONVENTIONAL) == 0.25
        assert outage(Scheme.CONVENTIONAL, block) == 0.25 * 3 / 4
        assert outage(Scheme.CONSERVATIVE) == 0.0

    def test_mismatch_share_per_mode(self):
        assert SimConfig(block_len=8).mismatch == 1.0
        assert SimConfig(mode=SimMode.BLOCK, block_len=8).mismatch == 7 / 8
        assert SimConfig(mode=SimMode.BLOCK, block_len=1).mismatch == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_symbols=0)
        with pytest.raises(ValueError):
            SimConfig(block_len=0)
        with pytest.raises(ValueError):
            SimConfig(seed=-1)
