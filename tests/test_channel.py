"""Channel parameterisation, the SINR mixtures cutoffs are priced on, and
fading sampling."""

import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import kstest

from impulsewf.adaptation import ErrorModel, Scheme, cutoff_rows
from impulsewf.channel import ChannelParams, db_to_linear, sample_fading
from oracles import density_at, integrate_semi_infinite, sinr_of

EM = ErrorModel(target_ber=1e-3)


def params_a(p=0.5):
    return ChannelParams(snr_db=0.0, inr_db=0.0, impulse_prob=p)


class TestChannelParams:
    def test_db_conversion(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(20.0) == pytest.approx(100.0)

    def test_two_state_means_at_zero_db(self):
        # Unit noise and unit burst power: a hit halves the mean SINR.
        params = params_a()
        assert params.mean_sinr_clean == 1.0
        assert params.mean_sinr_impulse == 0.5

    def test_impulse_mean_relation(self):
        for snr_db in (-5.0, 0.0, 10.0):
            for inr_db in (-10.0, 0.0, 20.0):
                params = ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=0.2)
                expected = params.mean_sinr_clean / (1.0 + params.inr_linear)
                assert params.mean_sinr_impulse == expected

    @pytest.mark.parametrize("bad_p", [-0.1, 1.1])
    def test_rejects_bad_probability(self, bad_p):
        with pytest.raises(ValueError):
            ChannelParams(snr_db=0.0, inr_db=0.0, impulse_prob=bad_p)

    def test_fields_are_the_link_alone(self):
        # Power is a fraction of the budget, so the budget is no parameter.
        assert [f.name for f in fields(ChannelParams)] == \
            ["snr_db", "inr_db", "impulse_prob"]

    @pytest.mark.parametrize("field", ["snr_db", "inr_db", "impulse_prob"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        values = {"snr_db": 0.0, "inr_db": 0.0, "impulse_prob": 0.5, field: value}
        with pytest.raises(ValueError):
            ChannelParams(**values)

    def test_rejects_minus_inf_snr(self):
        with pytest.raises(ValueError):
            ChannelParams(snr_db=-math.inf, inr_db=0.0, impulse_prob=0.5)

    def test_minus_inf_inr_means_no_interference(self):
        params = ChannelParams(snr_db=0.0, inr_db=-math.inf, impulse_prob=0.5)
        assert params.mean_sinr_impulse == params.mean_sinr_clean

    @pytest.mark.parametrize("snr_db,inr_db", [(4000.0, 0.0), (0.0, 4000.0),
                                               (-300.0, 3000.0)])
    def test_rejects_values_beyond_float_range(self, snr_db, inr_db):
        with pytest.raises(ValueError):
            ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=0.5)


def density_row(scheme, params):
    """The (weights, means) row the cutoff of ``scheme`` is priced on."""
    weights, means = cutoff_rows([(scheme, params)])
    return weights[0], means[0]


class TestMixtureDensity:
    def test_degenerate_mixture_equals_clean(self):
        params = ChannelParams(snr_db=3.0, inr_db=6.0, impulse_prob=0.0)
        mixture = density_row(Scheme.CONVENTIONAL, params)
        clean = ([1.0], [params.mean_sinr_clean])
        for gamma in (0.0, 0.3, 1.0, 4.0):
            assert density_at(*mixture, gamma) == density_at(*clean, gamma)

    def test_clean_density_at_origin_is_inverse_mean(self):
        params = ChannelParams(snr_db=10.0, inr_db=20.0, impulse_prob=0.0)
        clean = density_row(Scheme.CONVENTIONAL, params)
        assert density_at(*clean, 0.0) == pytest.approx(0.1)

    def test_mixture_value_at_origin(self):
        # (1-p)/mean_clean + p*(1+inr)/mean_clean at 0 dB SNR, 0 dB INR, p=0.5
        mixture = density_row(Scheme.CONVENTIONAL, params_a(0.5))
        assert density_at(*mixture, 0.0) == pytest.approx(1.5)

    def test_density_is_zero_for_negative_argument(self):
        mixture = density_row(Scheme.CONVENTIONAL, params_a(0.5))
        assert density_at(*mixture, -1.0) == 0.0

    @pytest.mark.parametrize("snr_db,inr_db,p", [
        (0.0, 0.0, 0.5), (0.0, 20.0, 0.2), (10.0, 20.0, 0.8),
        (-5.0, 10.0, 1.0), (5.0, -10.0, 0.0),
    ])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_normalisation(self, snr_db, inr_db, p, scheme):
        params = ChannelParams(snr_db=snr_db, inr_db=inr_db, impulse_prob=p)
        row = density_row(scheme, params)
        total = integrate_semi_infinite(lambda g: density_at(*row, g), 0.0)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_simple_scheme_rows_are_one_state(self):
        # Aggressive prices its cutoff on the clean SINR alone, conservative
        # on the burst-hit SINR alone; both on the same two means.
        params = ChannelParams(snr_db=10.0, inr_db=20.0, impulse_prob=0.5)
        means = [params.mean_sinr_clean, params.mean_sinr_impulse]
        for scheme, weights, mean in (
                (Scheme.AGGRESSIVE, [1.0, 0.0], params.mean_sinr_clean),
                (Scheme.CONSERVATIVE, [0.0, 1.0], params.mean_sinr_impulse)):
            row = density_row(scheme, params)
            assert row[0].tolist() == weights
            assert row[1].tolist() == means
            assert density_at(*row, 0.0) == 1.0 / mean


class TestSinrOf:
    def test_zero_power(self):
        assert sinr_of(params_a(), 1.3, False, 0.0) == 0.0

    def test_clean_unit_case(self):
        assert sinr_of(params_a(), 1.0, False, 1.0) == pytest.approx(1.0)

    def test_impulse_halves_at_zero_db_inr(self):
        assert sinr_of(params_a(), 1.0, True, 1.0) == pytest.approx(0.5)

    def test_impulse_ratio_exact_for_arrays(self):
        params = ChannelParams(snr_db=7.0, inr_db=13.0, impulse_prob=0.3)
        rng = np.random.Generator(np.random.PCG64(5))
        h = sample_fading(rng, 500)
        tx = rng.random(500) * 2.0
        clean = sinr_of(params, h, np.zeros(500, dtype=bool), tx)
        hit = sinr_of(params, h, np.ones(500, dtype=bool), tx)
        assert np.all(hit == clean / (1.0 + params.inr_linear))


class TestSampling:
    def test_clean_sinr_matches_exponential_law(self):
        # Full-power burst-free SINR should be exponential with the clean mean.
        params = ChannelParams(snr_db=10.0, inr_db=20.0, impulse_prob=0.5)
        rng = np.random.Generator(np.random.PCG64(77))
        h = sample_fading(rng, 100_000)
        samples = sinr_of(params, h, np.zeros(h.size, dtype=bool), 1.0)
        result = kstest(samples, "expon", args=(0.0, params.mean_sinr_clean))
        assert result.pvalue > 0.01

    def test_fading_mean_seeded(self):
        rng = np.random.Generator(np.random.PCG64(123))
        h = sample_fading(rng, 100_000)
        assert abs(h.mean() - 1.0) < 0.01
        assert np.all(h >= 0.0)
