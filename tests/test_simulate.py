"""Monte Carlo engine: laws, determinism, windowed reading, block mode."""

import math
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsewf import simulate
from impulsewf.adaptation import ErrorModel, Scheme, make_policies, policy_law
from impulsewf.channel import ChannelParams
from impulsewf.cli import main
from impulsewf.simulate import (SimConfig, SimMode, SimResult, _draw_windows,
                                simulate_policies)
from oracles import (impulse_ber_under_conventional, make_policy, power_sq,
                     qam_ber, rate_for, sinr_of, wf_power_fraction,
                     wf_rate_bits)

EM = ErrorModel(target_ber=1e-3)
SET_A = dict(snr_db=0.0, inr_db=0.0)
SET_B = dict(snr_db=10.0, inr_db=20.0)


def params_for(config, p):
    return ChannelParams(impulse_prob=p, **config)


def three_sigma_binomial(q, n):
    return 3.0 * math.sqrt(q * (1.0 - q) / n)


def run(params, scheme, cfg):
    return simulate_policies([make_policy(scheme, params, EM)], cfg)[0]


def draw(params, cfg):
    """(fading power, governing state, hit symbols) of each block of the
    whole run, as the simulator draws them."""
    p = params.impulse_prob
    windows = [(h, *masks[p]) for h, masks in _draw_windows(cfg, [p], True)]
    return tuple(np.concatenate(arrays) for arrays in zip(*windows))


def stream_states(params, cfg):
    """(fading power, governing state, actual state) of each symbol of the
    whole run, read straight from the PCG64 stream by the documented
    layout: B fading uniforms, then per symbol B fed-back and B actual
    states, in block mode the row-major (B, L) states, whose first column
    is the fed-back one. A block's fading and governing state are repeated
    over its symbols."""
    p, batch = params.impulse_prob, cfg.batch
    blocks = -(-cfg.n_symbols // batch)
    u = np.random.Generator(np.random.PCG64(cfg.seed)).random(
        blocks * (2 + batch if cfg.mode is SimMode.PER_SYMBOL else 1 + batch))
    h = -np.log1p(-u[:blocks])
    if cfg.mode is SimMode.PER_SYMBOL:
        return h, u[blocks:2 * blocks] < p, u[2 * blocks:] < p
    states = u[blocks:].reshape(blocks, batch) < p
    return (np.repeat(h, batch), np.repeat(states[:, 0], batch),
            states.reshape(-1))


def traced_peak(policies, cfg):
    """Peak traced memory, in bytes, of one ``simulate_policies`` run."""
    tracemalloc.start()
    try:
        simulate_policies(policies, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
# few events is not normal: there 5 sigma alone fails correct code. The
# power floor counts blocks at the most a block can spend, 1 / (t * k).
RATE_FLOOR = 0.005
OUTAGE_FLOOR_BLOCKS = 3
POWER_FLOOR_BLOCKS = 3


class TestAgainstTheoryProperty:
    """Simulator and closed form agree over the paper's range: SNR -20 to
    60 dB, INR -30 to 60 dB, p in [0, 1], every BER target, both modes and
    block lengths 1 to 16, each scheme at ``policy_law``'s
    ``cfg.mismatch``. The rate lies within max(RATE_FLOOR, 5 standard
    errors), the outage within 5 block-level binomial sigmas plus
    OUTAGE_FLOOR_BLOCKS blocks, and the mean power fraction within 5
    standard errors of 1, the budget every cutoff spends, plus
    POWER_FLOOR_BLOCKS blocks at full spend.

    False-alarm budget: 200 examples make 1,200 checks. Where the normal
    approximation holds a check of correct code fails with probability
    5.7e-7, so under 1e-3 for the whole set. Low-SNR rates are skewed, so
    the tail is heavier: 120,000 random examples (360,000 checks) from
    these ranges, with extra weight on p = 0, p = 1 and tiny p, failed
    these bounds once, a 5.1-sigma rate deviation (block mode, -13 dB
    SNR), about 0.3% for a set of this size. Reruns of that link over 40
    seeds showed no bias (mean z -0.08). The examples are derandomized,
    so the set is fixed.

    The power check's budget, measured the same way: without its floor, 8
    of 45,000 random checks failed (up to 8.5 sigma), where a handful of
    blocks carry the variance, either because almost no block transmits
    (conservative at -18 to 6 dB SNR under 33 to 58 dB INR) or because the
    spend deficit 1 / (k g) has a heavy tail just above a tiny cutoff (55
    to 60 dB SNR). With the floor none of 120,000 random checks failed,
    the worst at 0.81 of its bound.
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
        policies = make_policies([(s, params) for s in Scheme], em)
        for policy, result in zip(policies, simulate_policies(policies, cfg)):
            rate, outage = policy_law(policy, cfg.mismatch)
            blocks = result.n_symbols // cfg.batch
            assert abs(result.avg_se - rate) <= \
                max(RATE_FLOOR, 5.0 * result.avg_se_stderr)
            sigma = math.sqrt(outage * (1.0 - outage) / blocks)
            assert abs(result.outage_frac - outage) <= \
                5.0 * sigma + OUTAGE_FLOOR_BLOCKS / blocks
            # Each block spends the budget on average, so the mean power
            # fraction is 1 within the standard error of a block's spend.
            power_sigma = math.sqrt(max(power_sq(policy) - 1.0, 0.0) / blocks)
            full_spend = 1.0 / (policy.threshold * em.k_sinr)
            assert abs(result.mean_power_frac - 1.0) <= \
                5.0 * power_sigma + POWER_FLOOR_BLOCKS * full_spend / blocks


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
        h, governing, actual = stream_states(params, cfg)
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

        result = run(params, scheme, cfg)
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
        h, governing, _ = stream_states(params, cfg)
        policy = make_policy(Scheme.CONVENTIONAL, params, EM)
        power = wf_power_fraction(sinr_of(params, h, governing, 1.0), policy,
                                  EM.k_sinr)
        result = run(params, Scheme.CONVENTIONAL, cfg)
        assert result.mean_power_frac == power.sum() / h.size


class TestResult:
    def test_fields_are_the_measured_figures(self):
        # Rate with its standard error, outage and power: what the closed
        # forms price, and nothing else.
        assert [f.name for f in fields(SimResult)] == \
            ["n_symbols", "avg_se", "avg_se_stderr", "outage_frac",
             "mean_power_frac"]


class TestDeterminism:
    def test_bit_identical_reruns(self):
        params = params_for(SET_A, 0.3)
        cfg = SimConfig(seed=777)
        assert run(params, Scheme.CONVENTIONAL, cfg) == \
            run(params, Scheme.CONVENTIONAL, cfg)


class TestWindows:
    """One stream, read in windows: the window size changes no draw."""

    @staticmethod
    def assert_same_run(windowed, whole):
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
        # fading and actual states come from the same draws regardless. In
        # block mode the governing state is the first actual state, so it
        # costs no draw.
        cfg = SimConfig(n_symbols=1000, seed=23, mode=mode, block_len=4)
        full = list(_draw_windows(cfg, [0.4], True))
        bare = list(_draw_windows(cfg, [0.4], False))
        assert len(bare) == len(full)
        for (h, states), (bare_h, bare_states) in zip(full, bare):
            (governing, hits), (bare_governing, bare_hits) = \
                states[0.4], bare_states[0.4]
            if mode is SimMode.PER_SYMBOL:
                assert bare_governing is None
            else:
                assert np.array_equal(bare_governing, governing)
            assert np.array_equal(bare_h, h)
            assert np.array_equal(bare_hits, hits)

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_each_p_reads_the_same_uniforms(self, monkeypatch, mode):
        # A sweep compares one set of uniforms with each p: every p's
        # states equal those of a draw for that p alone.
        cfg = SimConfig(n_symbols=1000, seed=24, mode=mode, block_len=4)
        monkeypatch.setattr(simulate, "WINDOW", 96)
        ps = [0.0, 0.2, 0.6, 1.0]
        swept = list(_draw_windows(cfg, ps, True))
        for p in ps:
            alone = list(_draw_windows(cfg, [p], True))
            assert len(alone) == len(swept)
            for (h, states), (h_alone, states_alone) in zip(swept, alone):
                assert np.array_equal(h, h_alone)
                for state, state_alone in zip(states[p], states_alone[p]):
                    assert np.array_equal(state, state_alone)

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_stream_layout(self, monkeypatch, mode):
        # Consecutive segments of one PCG64 stream, whatever the window.
        p = 0.4
        cfg = SimConfig(n_symbols=1000, seed=23, mode=mode, block_len=4)
        monkeypatch.setattr(simulate, "WINDOW", 96)
        params = params_for(SET_A, p)
        h, governing, hits = draw(params, cfg)
        if mode is SimMode.PER_SYMBOL:
            u = np.random.Generator(np.random.PCG64(23)).random(3000)
            assert np.array_equal(h, -np.log1p(-u[:1000]))
            assert np.array_equal(governing, u[1000:2000] < p)
            assert np.array_equal(hits, u[2000:] < p)
        else:
            u = np.random.Generator(np.random.PCG64(23)).random(250 + 1000)
            mask = u[250:].reshape(250, 4) < p
            assert np.array_equal(h, -np.log1p(-u[:250]))
            assert np.array_equal(governing, mask[:, 0])
            assert np.array_equal(hits, mask.sum(axis=1))
        # The tests' own reader of the stream sees the same states.
        ref_h, ref_governing, actual = stream_states(params, cfg)
        assert np.array_equal(ref_h, np.repeat(h, cfg.batch))
        assert np.array_equal(ref_governing, np.repeat(governing, cfg.batch))
        assert np.array_equal(actual.reshape(-1, cfg.batch).sum(axis=1), hits)

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_peak_memory_flat_in_run_length(self, mode):
        params = params_for(SET_A, 0.5)
        policy = make_policy(Scheme.CONVENTIONAL, params, EM)

        def peak(n_symbols):
            return traced_peak([policy], SimConfig(
                n_symbols=n_symbols, seed=1, mode=mode, block_len=8))
        assert peak(4 * simulate.WINDOW) <= 1.25 * peak(simulate.WINDOW)

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_sweep_peak_memory_flat_in_run_length(self, mode):
        # The default sweep: 11 p values, three schemes, one draw per window.
        # Each window's arrays are released before the next is drawn, so
        # four windows peak where one does (a window's arrays kept alive
        # over the next draw put the peak 10-40% higher).
        policies = make_policies(
            [(scheme, params_for(SET_A, i / 10)) for i in range(11)
             for scheme in Scheme], EM)

        def peak(n_symbols):
            return traced_peak(policies, SimConfig(
                n_symbols=n_symbols, seed=1, mode=mode, block_len=8))
        assert peak(4 * simulate.WINDOW) <= 1.05 * peak(simulate.WINDOW)

    # One window's peak traced memory in MiB, per (mode, rows), as the
    # README's "Determinism and memory" paragraph states it: three schemes
    # at one p, or the default 33-row sweep; block mode at block length 8.
    # Measured on numpy 2.4.6, the version the tier-1 workflow installs.
    README_PEAK_MIB = {(SimMode.PER_SYMBOL, 3): 28.1,
                       (SimMode.PER_SYMBOL, 33): 48.1,
                       (SimMode.BLOCK, 3): 11.0, (SimMode.BLOCK, 33): 12.3}

    @pytest.mark.parametrize("mode,rows", list(README_PEAK_MIB))
    def test_one_window_peak_memory_within_stated_figures(self, mode, rows):
        # The ratio tests above pass whatever a window costs; this bounds
        # the cost itself, so that a second per-row buffer fails.
        grid = [0.5] if rows == 3 else [i / 10 for i in range(11)]
        policies = make_policies([(scheme, params_for(SET_A, p))
                                  for p in grid for scheme in Scheme], EM)
        cfg = SimConfig(n_symbols=simulate.WINDOW, seed=1, mode=mode,
                        block_len=8)
        assert traced_peak(policies, cfg) <= \
            1.05 * self.README_PEAK_MIB[mode, rows] * 2 ** 20


class TestSharedDraw:
    """A sweep draws each window once for all of its rows (common random
    numbers), and each row measures exactly what it measures alone."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.sampled_from([0.0, 1e-4, 0.1, 0.3, 0.5, 0.9, 1.0])
                    | st.floats(min_value=0.0, max_value=1.0),
                    min_size=1, max_size=11),
           st.sampled_from([(0.0, 0.0), (10.0, 20.0), (0.0, -math.inf),
                            (-10.0, -120.0)]),
           st.sampled_from(SimMode), st.integers(min_value=1, max_value=16),
           st.integers(min_value=16, max_value=256),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_every_row_equals_its_run_alone(self, grid, link, mode, block_len,
                                            window, windows, seed):
        # Duplicate p values give duplicate policies, and one more copy of
        # the first row is appended. The run spans ``windows`` windows
        # plus a partial one, so the sums cross window boundaries.
        snr_db, inr_db = link
        requests = [(scheme, ChannelParams(snr_db, inr_db, p))
                    for p in grid for scheme in Scheme]
        policies = make_policies(requests + requests[:1], EM)
        cfg = SimConfig(n_symbols=windows * window + block_len, seed=seed,
                        mode=mode, block_len=block_len)
        with mock.patch.object(simulate, "WINDOW", window):
            self.assert_rows_run_alone(policies, cfg)

    @staticmethod
    def assert_rows_run_alone(policies, cfg):
        """Each row of a sweep equals its run alone; returns the sweep."""
        swept = simulate_policies(policies, cfg)
        assert len(swept) == len(policies)
        for policy, result in zip(policies, swept):
            assert result == simulate_policies([policy], cfg)[0]
        return swept

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_rows_of_two_links_and_error_models(self, monkeypatch, mode):
        # Two links solved under two error models in one call, and copies
        # of the first six policies under the other error model at the
        # same cutoff: the same belief on the same link, so only the error
        # model keeps their adaptation apart.
        links = [ChannelParams(snr_db, inr_db, p) for snr_db, inr_db in
                 [(0.0, 0.0), (10.0, 20.0)] for p in (0.0, 0.3, 1.0)]
        ems = [EM, ErrorModel(target_ber=1e-5)]
        policies = [policy for em in ems for policy in make_policies(
            [(scheme, link) for link in links for scheme in Scheme], em)]
        moved = [replace(policy, em=ems[1]) for policy in policies[:6]]
        cfg = SimConfig(n_symbols=3001, seed=41, mode=mode, block_len=4)
        monkeypatch.setattr(simulate, "WINDOW", 256)
        swept = self.assert_rows_run_alone(policies + moved, cfg)
        for result, copy in zip(swept[:6], swept[-6:]):
            assert copy.mean_power_frac != result.mean_power_frac

    @pytest.mark.parametrize("mode,block_len",
                             [(SimMode.PER_SYMBOL, 1), (SimMode.BLOCK, 2)])
    def test_windows_with_and_without_exposed_blocks(self, monkeypatch,
                                                     mode, block_len):
        # At -10 dB SNR aggressive transmits about one block in six, and
        # conventional at p = 0.9 is fed back clean about one in ten, so
        # many windows of four blocks expose none of them. Each row equals
        # its run alone and, up to summation order, its run in one window:
        # a group's per-window result kept past that window fails.
        policies = make_policies(
            [(scheme, ChannelParams(-10.0, 0.0, p))
             for p in (0.0, 0.5, 0.9, 1.0) for scheme in Scheme], EM)
        cfg = SimConfig(n_symbols=401 * block_len, seed=42, mode=mode,
                        block_len=block_len)
        whole = simulate_policies(policies, cfg)
        windows = set()
        original = simulate._adapt

        def recorded(policy, *args):
            adapted = original(policy, *args)
            windows.add((policy, bool(adapted[2].any())))
            return adapted
        monkeypatch.setattr(simulate, "_adapt", recorded)
        monkeypatch.setattr(simulate, "WINDOW", 4 * block_len)
        swept = self.assert_rows_run_alone(policies, cfg)
        for windowed, alone in zip(swept, whole):
            TestWindows.assert_same_run(windowed, alone)
        both = {(policy.scheme, policy.params.impulse_prob)
                for policy, exposed in windows if exposed
                and (policy, False) in windows}
        assert {(Scheme.AGGRESSIVE, 0.0), (Scheme.CONVENTIONAL, 0.9)} <= both

    @pytest.mark.parametrize("argv,window,rows,adapts", [
        (["simulate"], None, 33, 11), (["simulate"], 2 ** 15, 33, 44),
        (["simulate", "--p-grid", "0.4"], None, 3, 3)])
    def test_rows_that_adapt_alike_adapt_once_per_window(
            self, monkeypatch, capsys, argv, window, rows, adapts):
        # The default 33 rows adapt as 11 groups: conventional at p = 0.1
        # to 0.9, aggressive with conventional at p = 0, and conservative
        # with conventional at p = 1. 100,000 symbols are one window, or
        # four of 2^15. Three schemes at one p share nothing.
        calls = []
        original = simulate._adapt

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(simulate, "_adapt", counted)
        if window is not None:
            monkeypatch.setattr(simulate, "WINDOW", window)
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + rows
        assert len(calls) == adapts

    @pytest.mark.parametrize("window,calls", [(None, 1), (2 ** 15, 4)])
    def test_default_sweep_samples_fading_once_per_window(
            self, monkeypatch, capsys, window, calls):
        # 33 rows of 100,000 symbols: one window, or four of 2^15 symbols.
        sizes = []
        original = simulate.sample_fading

        def counted(rng, n):
            sizes.append(n)
            return original(rng, n)
        monkeypatch.setattr(simulate, "sample_fading", counted)
        if window is not None:
            monkeypatch.setattr(simulate, "WINDOW", window)
        assert main(["simulate"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 33
        assert len(sizes) == calls
        assert sum(sizes) == 100_000


class TestBlockStates:
    """The block path of ``_draw_windows``, the sampler the simulator uses."""

    L = 4

    def block_cfg(self, n_symbols=4000, seed=3):
        return SimConfig(n_symbols=n_symbols, seed=seed, mode=SimMode.BLOCK,
                         block_len=self.L)

    @pytest.mark.parametrize("p,state", [(0.0, False), (1.0, True)])
    def test_masks_at_degenerate_p(self, p, state):
        _, governing, hits = draw(params_for(SET_A, p), self.block_cfg())
        assert np.all(governing == state)
        assert np.all(hits == state * self.L)

    def test_shape_and_positivity(self):
        h, governing, hits = draw(params_for(SET_A, 0.5), self.block_cfg(1001))
        assert h.shape == governing.shape == hits.shape == (251,)
        assert np.all(h > 0.0)

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            SimConfig(mode=SimMode.BLOCK, block_len=0)

    def test_fading_constant_within_block(self):
        # One fading draw per block, which all of its symbols see.
        params = params_for(SET_A, 0.5)
        h, _, _ = draw(params, self.block_cfg())
        symbol_h, _, _ = stream_states(params, self.block_cfg())
        blocks = symbol_h.reshape(-1, self.L)
        assert np.all(blocks == h[:, None])

    def test_governing_state_is_first_actual_state(self):
        params = params_for(SET_A, 0.5)
        _, governing, hits = draw(params, self.block_cfg())
        _, _, actual = stream_states(params, self.block_cfg())
        actual = actual.reshape(-1, self.L)
        assert np.all(governing == actual[:, 0])
        assert np.all(hits == actual.sum(axis=1))
        # The other symbols draw their own states.
        assert np.any(hits != governing * self.L)

    def test_seeded_statistics_of_blocks(self):
        # 1e5 blocks: per-block fading mean and burst rate near their targets.
        cfg = self.block_cfg(n_symbols=100_000 * self.L, seed=20260808)
        h, _, hits = draw(params_for(SET_A, 0.5), cfg)
        assert 0.99 <= h.mean() <= 1.01
        assert 0.495 <= hits.sum() / (hits.size * self.L) <= 0.505

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
        h, governing, actual = stream_states(params, cfg)
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
        h, _, actual = stream_states(params, cfg)
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
