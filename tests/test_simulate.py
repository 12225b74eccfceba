"""Monte Carlo engine: laws, determinism, windowed reading, block mode."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from impulsewf import simulate
from impulsewf.adaptation import (
    _impulse_ber_under_conventional as impulse_ber_under_conventional)
from impulsewf.adaptation import ErrorModel, Scheme, make_policy
from impulsewf.channel import ChannelParams
from impulsewf.simulate import (SimConfig, SimMode, _draw_windows,
                                policy_outage, policy_sim_rate,
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
    return simulate_policy(make_policy(scheme, params, EM), params, EM, cfg)


def draw(params, cfg):
    """(fading power, governing state, actual state) of the whole run."""
    windows = list(_draw_windows(params, cfg))
    return tuple(np.concatenate(arrays) for arrays in zip(*windows))


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
        target = policy_outage(make_policy(Scheme.AGGRESSIVE, params, EM),
                               params, EM)
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
        power = wf_power_fraction(basis, policy)
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
        power = wf_power_fraction(sinr_of(params, h, governing, 1.0), policy)
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
        for field in ("avg_se", "mean_power_frac", "rate_sq_mean"):
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
        h, _, actual = draw(params, cfg)
        windows = list(_draw_windows(params, cfg, governing=False))
        assert all(governing is None for _, governing, _ in windows)
        assert np.array_equal(np.concatenate([w[0] for w in windows]), h)
        assert np.array_equal(np.concatenate([w[2] for w in windows]), actual)

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

    def test_peak_memory_flat_in_run_length(self):
        params = params_for(SET_A, 0.5)
        policy = make_policy(Scheme.CONVENTIONAL, params, EM)

        def peak(n_symbols):
            tracemalloc.start()
            try:
                simulate_policy(policy, params, EM,
                                SimConfig(n_symbols=n_symbols, seed=1))
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
        theory = policy_sim_rate(make_policy(scheme, params, EM), params, EM,
                                 cfg.mode, cfg.block_len)
        assert abs(result.avg_se - theory) <= max(0.005, 3.0 * result.avg_se_stderr)

    def test_block_stderr_is_block_len_times_variance_bound(self):
        cfg = SimConfig(n_symbols=8000, seed=3, mode=SimMode.BLOCK, block_len=8)
        result = run(params_for(SET_A, 0.5), Scheme.AGGRESSIVE, cfg)
        per_symbol = replace(result, mode=SimMode.PER_SYMBOL.value)
        variance = result.rate_sq_mean - result.avg_se ** 2
        assert per_symbol.avg_se_stderr == pytest.approx(
            math.sqrt(variance / result.n_symbols), rel=1e-12)
        assert result.avg_se_stderr == pytest.approx(
            math.sqrt(8.0) * per_symbol.avg_se_stderr, rel=1e-12)

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

    def test_policy_outage_helper(self):
        params = params_for(SET_A, 0.5)

        def outage(scheme, *mode):
            return policy_outage(make_policy(scheme, params, EM), params, EM,
                                 *mode)
        assert outage(Scheme.CONVENTIONAL) == 0.25
        assert outage(Scheme.CONVENTIONAL, SimMode.BLOCK, 4) == 0.25 * 3 / 4
        assert outage(Scheme.CONSERVATIVE) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_symbols=0)
        with pytest.raises(ValueError):
            SimConfig(block_len=0)
        with pytest.raises(ValueError):
            SimConfig(seed=-1)
