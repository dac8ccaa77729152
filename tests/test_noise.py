"""Noise spectra, dBc conversions, and PSD estimation from time series."""

import bisect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from trapcoh import (
    ConfigError,
    DomainError,
    NoiseSpectrum,
    TimeSeries,
    TrapNoise,
    dbc_to_psd,
    estimate_psd,
    psd_f_to_omega,
    psd_to_dbc,
    relative_variance,
)
from trapcoh import io


def test_psd_convention_factor():
    assert psd_f_to_omega(1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert psd_f_to_omega(0.0) == 0.0


def test_psd_f_to_omega_keeps_band_power():
    """Savard, O'Hara & Thomas, PRA 56, R1095 (1997) use a one-sided S(omega)
    with the integral of S(omega) d omega over all omega equal to <eps^2>.
    Since omega = 2 pi f, d omega = 2 pi df, so the same power in a band
    [f1, f2] needs S(omega) = S(f) / (2 pi): the integral of S(f) df over
    [f1, f2] equals the integral of S(omega) d omega over [2 pi f1, 2 pi f2].
    Checked for a flat band-limited S(f) through the rate formulas' accessor."""
    level, f1, f2 = 3e-13, 2e3, 7e4
    spectrum = NoiseSpectrum.flat(level, f1, f2)
    noise = TrapNoise.uniform(spring=spectrum)
    f = np.linspace(f1, f2, 257)
    omega = 2.0 * math.pi * f
    per_hz = np.trapezoid(spectrum.evaluate(f), f)
    per_rad = np.trapezoid(noise.spring_omega("x", omega), omega)
    assert per_hz == pytest.approx(level * (f2 - f1), rel=1e-12)
    assert per_rad == pytest.approx(per_hz, rel=1e-12)


def test_dbc_table_values():
    assert dbc_to_psd(0.0) == 1.0
    assert dbc_to_psd(-104.0) == pytest.approx(3.9810717055349695e-11, rel=1e-12)
    assert dbc_to_psd(-146.0) == pytest.approx(2.511886431509582e-15, rel=1e-12)
    assert dbc_to_psd(-110.5) == pytest.approx(10.0 ** -11.05, rel=1e-12)


@given(st.floats(-180.0, 20.0))
def test_dbc_round_trip(level):
    assert abs(psd_to_dbc(dbc_to_psd(level)) - level) < 1e-12


def test_psd_to_dbc_validation():
    with pytest.raises(DomainError):
        psd_to_dbc(0.0)
    with pytest.raises(DomainError):
        psd_to_dbc(-1e-12)


def test_spectrum_validation():
    with pytest.raises(DomainError):
        NoiseSpectrum("spring_fractional", np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        NoiseSpectrum("spring_fractional", np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        NoiseSpectrum("spring_fractional", np.array([1.0, 2.0]), np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        NoiseSpectrum("", np.array([1.0]), np.array([1.0]))


def test_spectrum_interpolation_log_log():
    spec = NoiseSpectrum("spring_fractional", np.array([1.0, 100.0]),
                         np.array([1e-10, 1e-14]))
    # log-log linear: geometric midpoint maps to geometric mean
    assert spec.evaluate(10.0) == pytest.approx(1e-12, rel=1e-12)
    # sample points round-trip through the log interpolation
    assert spec.evaluate(1.0) == pytest.approx(1e-10, rel=1e-12)
    assert spec.evaluate(100.0) == pytest.approx(1e-14, rel=1e-12)


def test_spectrum_hold_nearest_outside():
    spec = NoiseSpectrum("spring_fractional", np.array([10.0, 100.0]),
                         np.array([3e-11, 7e-13]))
    assert spec.evaluate(1.0) == pytest.approx(3e-11, rel=1e-12)
    assert spec.evaluate(1e5) == pytest.approx(7e-13, rel=1e-12)
    with pytest.raises(DomainError):
        spec.evaluate(0.0)


def test_spectrum_zero_samples():
    # log interpolation cannot cross zero; those segments fall back to
    # linear-in-psd against log f
    spec = NoiseSpectrum("spring_fractional", np.array([1.0, 100.0]),
                         np.array([0.0, 1e-12]))
    assert spec.evaluate(10.0) == pytest.approx(0.5e-12, rel=1e-12)
    zero = NoiseSpectrum.zero()
    assert zero.evaluate(123.0) == 0.0


def test_spectrum_vector_evaluate():
    spec = NoiseSpectrum.flat(2e-13, f_min=1.0, f_max=1e4)
    f = np.array([0.5, 1.0, 70.0, 1e6])
    assert spec.evaluate(f) == pytest.approx([2e-13] * 4, rel=1e-12)


def loglog_reference(freqs, psd, f):
    """(S(f), the scale of its rounding, segment kind) by NoiseSpectrum's rule in
    pure Python. The scale of a zero-ended segment is its larger endpoint: its
    value near the zero end is ill-conditioned in f."""
    if f <= freqs[0] or f >= freqs[-1]:
        value = psd[0] if f <= freqs[0] else psd[-1]
        return value, value, "hold"
    j = bisect.bisect_right(freqs, f) - 1
    lo, hi = psd[j], psd[j + 1]
    la, lb = math.log(freqs[j]), math.log(freqs[j + 1])
    w = (math.log(f) - la) / (lb - la)
    if lo > 0.0 and hi > 0.0:
        value = math.exp((1.0 - w) * math.log(lo) + w * math.log(hi))
        return value, value, "loglog"
    return (1.0 - w) * lo + w * hi, max(lo, hi), "zero-ended"


def test_spectrum_evaluate_matches_reference():
    rng = np.random.default_rng(2024)
    spectra = [NoiseSpectrum.zero()]
    for _ in range(300):
        n = int(rng.integers(1, 9))
        f = np.sort(rng.choice(np.logspace(-3, 6, 1000), n, replace=False))
        p = 10.0 ** rng.uniform(-16.0, -6.0, n)
        p[rng.random(n) < 0.3] = 0.0
        spectra.append(NoiseSpectrum("spring_fractional", f, p))
    kinds = set()
    for spec in spectra:
        f, p = spec.frequencies_hz, spec.psd
        # every sample, one point below and one above the range, random points
        queries = np.concatenate([f, [f[0] / 3.0, 3.0 * f[-1]],
                                  10.0 ** rng.uniform(-4.0, 7.0, 20)])
        for q, got in zip(queries, spec.evaluate(queries)):
            want, scale, kind = loglog_reference(f.tolist(), p.tolist(), float(q))
            assert abs(got - want) <= 1e-13 * scale, (f, p, q)
            kinds.add(kind)
            one = spec.evaluate(float(q))
            assert isinstance(one, np.float64) and one == spec.evaluate(np.array([q]))[0]
    assert kinds == {"hold", "loglog", "zero-ended"}
    for bad in (0.0, -1.0, np.array([1.0, 0.0])):
        with pytest.raises(DomainError):
            spectra[1].evaluate(bad)


def test_spectrum_scaled():
    spec = NoiseSpectrum.flat(1e-12)
    assert spec.scaled(3.0).evaluate(10.0) == pytest.approx(3e-12, rel=1e-12)
    with pytest.raises(DomainError):
        spec.scaled(-1.0)


def test_spectrum_json_round_trip(tmp_path):
    spec = NoiseSpectrum("position", np.array([5.4e3, 6.06e4]),
                         np.array([4.47e-11, 3.98e-11]))
    path = tmp_path / "spec.json"
    io.write_json(path, spec.to_json_obj())
    again = NoiseSpectrum.from_json_obj(io.read_json(path))
    assert again.kind == "position"
    assert np.array_equal(again.frequencies_hz, spec.frequencies_hz)
    assert np.array_equal(again.psd, spec.psd)
    obj = json.loads(path.read_text())
    assert set(obj) == {"kind", "samples"}


def test_spectrum_load_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        io.read_json(tmp_path / "missing.json")
    assert err.value.kind == "config_not_found"
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "spring_fractional"}')
    with pytest.raises(ConfigError) as err:
        NoiseSpectrum.from_json_obj(io.read_json(bad))
    assert err.value.kind == "parse_error"
    with pytest.raises(ConfigError) as err:
        NoiseSpectrum.load_preset("does_not_exist")
    assert err.value.kind == "config_not_found"


def test_bundled_rin_presets():
    free = NoiseSpectrum.load_preset("rin_free")
    assert free.kind == "spring_fractional"
    assert free.frequencies_hz == pytest.approx([5.4e3, 6.06e4], rel=1e-12)
    assert free.psd == pytest.approx([10.0 ** -11.05, 10.0 ** -14.6], rel=1e-12)
    forty = NoiseSpectrum.load_preset("rin_40db")
    assert forty.psd == pytest.approx([10.0 ** -10.35, 10.0 ** -10.4], rel=1e-12)
    flat = NoiseSpectrum.load_preset("rin_flat_140")
    assert flat.evaluate(777.0) == pytest.approx(1e-14, rel=1e-12)


def test_time_series_validation():
    with pytest.raises(DomainError):
        TimeSeries(0.0, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        TimeSeries(10.0, np.array([1.0]))
    for rate in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            TimeSeries(rate, np.array([1.0, 2.0]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            TimeSeries(10.0, np.array([1.0, bad, 3.0]))
    series = TimeSeries(10.0, np.array([1.0, 2.0, 3.0, 4.0]))
    assert series.duration_s == pytest.approx(0.4)


def test_time_series_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    series = TimeSeries(1000.0, 1.0 + 0.01 * rng.standard_normal(64))
    path = tmp_path / "ts.csv"
    io.write_csv(path, ("t_s", "power_w"), np.arange(64) / 1000.0, series.samples)
    again = TimeSeries.parse(path.read_bytes(), path)
    assert again.sample_rate_hz == pytest.approx(series.sample_rate_hz, rel=1e-9)
    assert np.array_equal(again.samples, series.samples)


def test_time_series_csv_errors(tmp_path):
    ragged = b"t_s,power_w\n0.0,1.0\n0.5,1.0\n0.6,1.0\n"
    with pytest.raises(ConfigError) as err:
        TimeSeries.parse(ragged, "ragged.csv")
    assert err.value.kind == "parse_error"
    with pytest.raises(ConfigError) as err:
        TimeSeries.parse(b"t_s,power_w\n0.0,1.0\n0.1,one\n", "words.csv")
    assert err.value.kind == "parse_error"


def test_relative_variance():
    # population standard deviation over the mean
    series = TimeSeries(10.0, np.array([0.9, 1.1, 0.9, 1.1]))
    assert relative_variance(series) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(DomainError):
        relative_variance(TimeSeries(10.0, np.array([1.0, -1.0])))


def test_estimate_psd_parseval():
    rng = np.random.default_rng(101)
    fs = 50e3
    series = TimeSeries(fs, 1.0 + 5e-3 * rng.standard_normal(2 ** 16))
    psd = estimate_psd(series, segment_length=4096)
    integral = np.trapezoid(psd.psd, psd.frequencies_hz)
    assert integral == pytest.approx(relative_variance(series) ** 2, rel=0.05)


def test_estimate_psd_white_noise_level():
    rng = np.random.default_rng(7)
    fs = 10e3
    sd = 2e-3
    series = TimeSeries(fs, 1.0 + sd * rng.standard_normal(2 ** 15))
    psd = estimate_psd(series, segment_length=1024)
    # one-sided white level: 2 sd^2 / fs in fractional units
    mid = (psd.frequencies_hz > 0.1 * fs / 2) & (psd.frequencies_hz < 0.8 * fs / 2)
    assert np.mean(psd.psd[mid]) == pytest.approx(2.0 * sd ** 2 / fs, rel=0.1)


def test_estimate_psd_tone_location():
    fs = 8192.0
    n = 2 ** 14
    t = np.arange(n) / fs
    series = TimeSeries(fs, 1.0 + 1e-3 * np.sin(2.0 * math.pi * 1024.0 * t))
    psd = estimate_psd(series, segment_length=2048)
    peak = psd.frequencies_hz[np.argmax(psd.psd)]
    assert peak == pytest.approx(1024.0, abs=fs / 2048.0)


def test_estimate_psd_scale_invariance():
    # fractional fluctuations do not care about the absolute power level
    rng = np.random.default_rng(3)
    samples = 1.0 + 1e-3 * rng.standard_normal(2 ** 13)
    a = estimate_psd(TimeSeries(1e4, samples), segment_length=512)
    b = estimate_psd(TimeSeries(1e4, 7.5 * samples), segment_length=512)
    assert a.psd == pytest.approx(b.psd, rel=1e-12)


def test_estimate_psd_validation():
    series = TimeSeries(100.0, 1.0 + 0.01 * np.random.default_rng(0).standard_normal(256))
    with pytest.raises(DomainError):
        estimate_psd(series, segment_length=4)
    with pytest.raises(DomainError):
        estimate_psd(series, segment_length=512)
    with pytest.raises(DomainError):
        estimate_psd(series, segment_length=64, overlap=1.0)
    with pytest.raises(DomainError):  # round(0.95 * 8) = 8: no step between segments
        estimate_psd(series, segment_length=8, overlap=0.95)
    negative_mean = TimeSeries(
        100.0, np.random.default_rng(0).standard_normal(256) - 10.0)
    with pytest.raises(DomainError):
        estimate_psd(negative_mean, segment_length=64)


def test_estimate_psd_matches_scipy_welch():
    """Oracle: scipy.signal.welch with the options estimate_psd documents
    (periodic Hann, constant detrend, density scaling, one sided)."""
    rng = np.random.default_rng(2024)
    cases = [(64, 64, 0.5, 1.0), (63, 63, 0.0, 1e6), (200, 33, 0.0, 10.0),
             (200, 32, 0.9, 1e3), (500, 40, 0.97, 3.7), (501, 41, 0.975, 2.5e5)]
    for _ in range(60):
        n = int(rng.integers(8, 3000))
        length = int(rng.integers(8, n + 1))
        overlap = float(rng.choice([0.0, rng.uniform(0.0, 0.99), 0.99]))
        if round(overlap * length) < length:
            cases.append((n, length, overlap, float(10.0 ** rng.uniform(0.0, 6.0))))
    assert {length % 2 for _, length, _, _ in cases} == {0, 1}
    for n, length, overlap, fs in cases:
        samples = 1.0 + 0.01 * rng.standard_normal(n) + 0.02 * np.sin(0.3 * np.arange(n))
        psd = estimate_psd(TimeSeries(fs, samples), length, overlap)
        f, pxx = signal.welch(samples / samples.mean() - 1.0, fs=fs, window="hann",
                              nperseg=length, noverlap=round(overlap * length),
                              detrend="constant", scaling="density")
        assert psd.frequencies_hz == pytest.approx(f[1:], rel=1e-15)
        assert np.max(np.abs(psd.psd - pxx[1:])) <= 1e-12 * pxx[1:].max()


def test_estimate_psd_memory_bounded_at_high_overlap():
    # 99% overlap makes about 4900 segments of 2048 samples: 80 MB as one array
    series = TimeSeries(1e4, 1.0 + 0.01 * np.random.default_rng(5).standard_normal(100_000))
    tracemalloc.start()
    try:
        estimate_psd(series, segment_length=2048, overlap=0.99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_estimate_psd_kind_label():
    rng = np.random.default_rng(11)
    series = TimeSeries(1e3, 1.0 + 0.01 * rng.standard_normal(1024))
    assert estimate_psd(series, 128, kind="position").kind == "position"
    assert estimate_psd(series, 128).kind == "spring_fractional"
