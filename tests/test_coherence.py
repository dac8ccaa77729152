"""Two-channel decay model, coherence times, thermometry, scattering limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcoh import (
    CoherenceSeries,
    ConfigError,
    DecayParams,
    DomainError,
    RAMSEY_THERMOMETRY_FACTOR,
    analytic_series,
    coherence,
    gaussian_channel_mc,
    lifetime_corrected_t2,
    ramsey_t2star_from_temperature,
    scattering_decay_rate_rk4,
    scattering_params,
    t2_gradient,
    t2_time,
    temperature_from_ramsey_t2star,
)
from trapcoh import io
from trapcoh.constants import BOLTZMANN, CS_D2_LINEWIDTH, HBAR

ETA_1052 = 1.5291931912736172e-4
ETA_780 = 2.5009109883279435e-4


def test_decay_params_validation():
    with pytest.raises(DomainError):
        DecayParams(-1.0, 0.0)
    with pytest.raises(DomainError):
        DecayParams(0.0, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            DecayParams(bad, 1.0)
        with pytest.raises(DomainError):
            DecayParams(1.0, bad)


def test_decay_params_json_round_trip():
    p = DecayParams(15.0, 5.14)
    assert DecayParams.from_json_obj(p.to_json_obj()) == p
    with pytest.raises(ConfigError):
        DecayParams.from_json_obj({"sigma_dls_rad_s": 1.0})


def test_coherence_values():
    p = DecayParams(15.0, 5.14)
    assert coherence(p, 0.0) == 1.0
    assert coherence(p, 0.08) == pytest.approx(0.3226458490054852, rel=1e-12)
    t = np.array([0.0, 0.05, 0.1])
    expect = np.exp(-0.5 * 15.0 ** 2 * t ** 2 - 5.14 * t)
    assert coherence(p, t) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(DomainError):
        coherence(p, -0.1)


def test_t2_closed_form_values():
    assert t2_time(DecayParams(7.54, 0.0)) == pytest.approx(0.1875614804208349, rel=1e-12)
    assert t2_time(DecayParams(15.0, 5.14)) == pytest.approx(0.07416461456998058, rel=1e-12)
    assert t2_time(DecayParams(0.51, 0.0)) == pytest.approx(2.77296776935901, rel=1e-12)
    assert t2_time(DecayParams(0.02, 0.058)) == pytest.approx(16.32265804901679, rel=1e-12)
    # sigma << R: the 1/e time is 1/R to first order
    assert t2_time(DecayParams(1e-9, 0.172)) == pytest.approx(5.813953488372094, rel=1e-12)


def test_t2_single_channel_limits():
    # pure Gaussian: sqrt(2)/sigma; pure exponential: 1/R
    assert t2_time(DecayParams(7.54, 0.0)) == pytest.approx(math.sqrt(2.0) / 7.54, rel=1e-12)
    assert t2_time(DecayParams(0.0, 4.0)) == 0.25
    with pytest.raises(DomainError):
        t2_time(DecayParams(0.0, 0.0))


def test_t2_survives_sigma_squared_underflow():
    # sigma**2 = 1e-600 underflows to zero; the hypot form never squares sigma
    assert t2_time(DecayParams(1e-300, 0.0)) == pytest.approx(math.sqrt(2.0) * 1e300,
                                                               rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(0.0, 1e3))
def test_t2_is_one_over_e_time(sigma, rate):
    p = DecayParams(sigma, rate)
    assert coherence(p, t2_time(p)) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_t2_gradient_finite_difference():
    for sigma, rate in [(7.54, 0.0), (15.0, 5.14), (0.02, 0.058), (0.0, 2.0)]:
        ds, dr = t2_gradient(DecayParams(sigma, rate))
        h = 1e-6
        ref = t2_time(DecayParams(sigma, rate))
        num_dr = (t2_time(DecayParams(sigma, rate + h)) - ref) / h
        assert dr == pytest.approx(num_dr, rel=2e-5)
        if sigma > 0.0:
            num_ds = (t2_time(DecayParams(sigma + h, rate)) - ref) / h
            assert ds == pytest.approx(num_ds, rel=2e-5)


def test_t2_gradient_pure_exponential_limit():
    ds, dr = t2_gradient(DecayParams(0.0, 2.0))
    assert ds == 0.0
    assert dr == -0.25  # d(1/R)/dR = -1/R^2


def test_lifetime_correction():
    assert lifetime_corrected_t2(16.6, 105.5) == pytest.approx(19.69966254218223, rel=1e-12)
    # removing the correction inverts exactly
    t2 = lifetime_corrected_t2(16.6, 105.5)
    assert 1.0 / (1.0 / t2 + 1.0 / 105.5) == pytest.approx(16.6, rel=1e-12)
    with pytest.raises(DomainError):
        lifetime_corrected_t2(0.0, 105.5)
    with pytest.raises(DomainError):
        lifetime_corrected_t2(106.0, 105.5)


def test_thermometry_values():
    assert temperature_from_ramsey_t2star(5.49e-3, ETA_1052) == pytest.approx(
        1.7650617687260866e-05, rel=1e-12)
    assert temperature_from_ramsey_t2star(5.29e-3, ETA_1052) == pytest.approx(
        1.8317937826665814e-05, rel=1e-12)
    assert temperature_from_ramsey_t2star(0.298, ETA_780) == pytest.approx(
        1.9882917455204463e-07, rel=1e-12)


def test_thermometry_formula():
    t2star = 5.49e-3
    expect = RAMSEY_THERMOMETRY_FACTOR * 2.0 * HBAR / (ETA_1052 * BOLTZMANN * t2star)
    assert temperature_from_ramsey_t2star(t2star, ETA_1052) == pytest.approx(expect, rel=1e-12)
    assert RAMSEY_THERMOMETRY_FACTOR == 0.97


@given(st.floats(1e-4, 10.0))
def test_thermometry_self_inverse(t2star):
    temp = temperature_from_ramsey_t2star(t2star, ETA_1052)
    assert ramsey_t2star_from_temperature(temp, ETA_1052) == pytest.approx(t2star, rel=1e-12)


def test_thermometry_validation():
    with pytest.raises(DomainError):
        temperature_from_ramsey_t2star(0.0, ETA_1052)
    with pytest.raises(DomainError):
        temperature_from_ramsey_t2star(1.0, 0.0)
    with pytest.raises(DomainError):
        ramsey_t2star_from_temperature(0.0, ETA_1052)


def test_scattering_params_formulas():
    gamma = CS_D2_LINEWIDTH
    sp = scattering_params(gamma, 100.0 * gamma, gamma)
    assert sp.light_shift_rad_s == pytest.approx(gamma / 400.0, rel=1e-12)
    assert sp.scattering_rate_per_s == pytest.approx(gamma / 4.0e4, rel=1e-12)
    assert sp.t2_s == pytest.approx(2.0 / sp.scattering_rate_per_s, rel=1e-12)
    assert not sp.near_resonance


def test_scattering_params_edge_cases():
    gamma = CS_D2_LINEWIDTH
    off = scattering_params(0.0, 100.0 * gamma, gamma)
    assert off.scattering_rate_per_s == 0.0
    assert off.t2_s is None  # no photon scattering, no bound from it
    close = scattering_params(gamma, 2.0 * gamma, gamma)
    assert close.near_resonance
    with pytest.raises(DomainError):
        scattering_params(gamma, 0.0, gamma)
    with pytest.raises(DomainError):
        scattering_params(-gamma, 10.0 * gamma, gamma)


def test_scattering_rk4_matches_adiabatic_rate():
    gamma = CS_D2_LINEWIDTH
    rate = scattering_decay_rate_rk4(gamma, 100.0 * gamma, gamma)
    assert rate == pytest.approx(410.148895301979, rel=1e-12)
    sp = scattering_params(gamma, 100.0 * gamma, gamma)
    assert abs(rate * sp.t2_s - 1.0) < 1e-3
    with pytest.raises(DomainError):
        scattering_decay_rate_rk4(gamma, 0.0, gamma)


def test_analytic_series_matches_pointwise():
    p = DecayParams(15.0, 5.14)
    t = np.linspace(0.0, 0.2, 9)
    series = analytic_series(p, t)
    assert series.coherence == pytest.approx(coherence(p, t), rel=1e-12)
    assert np.all(series.sigma == 0.0)


def test_gaussian_mc_deterministic():
    t = np.linspace(0.0, 0.3, 7)
    a = gaussian_channel_mc(12.0, 4000, 5, t)
    b = gaussian_channel_mc(12.0, 4000, 5, t)
    assert np.array_equal(a.coherence, b.coherence)
    assert np.array_equal(a.sigma, b.sigma)


def test_gaussian_mc_tracks_analytic():
    t = np.linspace(0.0, 0.25, 11)
    n = 40000
    mc = gaussian_channel_mc(12.0, n, 3, t)
    expect = np.exp(-0.5 * 12.0 ** 2 * t ** 2)
    assert np.max(np.abs(mc.coherence - expect)) < 4.0 / math.sqrt(n)
    assert mc.coherence[0] == 1.0


def test_gaussian_mc_zero_width():
    t = np.linspace(0.0, 0.5, 5)
    mc = gaussian_channel_mc(0.0, 100, 0, t)
    assert np.array_equal(mc.coherence, np.ones(5))


def test_series_validation():
    t = np.array([0.0, 0.1, 0.2])
    c = np.array([1.0, 0.8, 0.5])
    s = np.zeros(3)
    CoherenceSeries(t, c, s)
    with pytest.raises(DomainError):
        CoherenceSeries(t[::-1].copy(), c, s)
    with pytest.raises(DomainError):
        CoherenceSeries(t - 0.1, c, s)
    with pytest.raises(DomainError):
        CoherenceSeries(t, c + 2.0, s)
    with pytest.raises(DomainError):
        CoherenceSeries(t, c, s - 1.0)
    with pytest.raises(DomainError):
        CoherenceSeries(t, c[:2], s)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            CoherenceSeries(t, np.array([1.0, bad, 0.5]), s)
        with pytest.raises(DomainError):
            CoherenceSeries(t, c, np.array([0.0, bad, 0.0]))


def test_series_csv_round_trip(tmp_path):
    t = np.linspace(0.0, 0.16, 12)
    series = analytic_series(DecayParams(15.0, 5.14), t)
    path = tmp_path / "series.csv"
    io.write_csv(path, CoherenceSeries.COLUMNS, series.t_s, series.coherence, series.sigma)
    cols = io.read_csv(path, CoherenceSeries.COLUMNS)
    again = CoherenceSeries(*(cols[name] for name in CoherenceSeries.COLUMNS))
    assert np.array_equal(again.t_s, series.t_s)
    assert np.array_equal(again.coherence, series.coherence)
    assert np.array_equal(again.sigma, series.sigma)


def test_series_csv_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        io.read_csv(tmp_path / "missing.csv", CoherenceSeries.COLUMNS)
    assert err.value.kind == "config_not_found"
    bad = tmp_path / "bad.csv"
    for text in ("t_s,coherence,sigma\n0.0,one,0.0\n", "t_s,coherence,sigma\n0.0,nan,0.0\n"):
        bad.write_text(text)
        with pytest.raises(ConfigError) as err:
            io.read_csv(bad, CoherenceSeries.COLUMNS)
        assert err.value.kind == "parse_error"


def test_series_json_round_trip(tmp_path):
    t = np.linspace(0.0, 0.1, 6)
    series = analytic_series(DecayParams(7.54, 0.0), t)
    path = tmp_path / "series.json"
    io.write_json(path, series.to_json_obj())
    again = CoherenceSeries.from_json_obj(io.read_json(path))
    assert np.array_equal(again.t_s, series.t_s)
    assert np.array_equal(again.coherence, series.coherence)
