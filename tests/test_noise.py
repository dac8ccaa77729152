"""Noise spectra, dBc conversions, and PSD estimation from time series."""

import bisect
import json
import math
import tracemalloc

import mpmath
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


@pytest.mark.parametrize("f", [math.nan, [1.0, math.nan], [math.nan, 5.0]],
                         ids=["scalar", "last", "first"])
def test_spectrum_refuses_nan(f):
    spec = NoiseSpectrum("spring_fractional", np.array([10.0, 100.0]), np.array([3e-11, 7e-13]))
    with pytest.raises(DomainError):
        spec.evaluate(f)


def test_spectrum_holds_its_end_value_at_inf():
    spec = NoiseSpectrum("spring_fractional", np.array([10.0, 100.0]), np.array([3e-11, 7e-13]))
    # exp(log S) of the end sample, the same value as at any f past the range
    assert spec.evaluate(math.inf) == spec.evaluate(1e5) == pytest.approx(7e-13, rel=1e-14)
    assert spec.evaluate([1.0, math.inf]).tolist() == spec.evaluate([0.5, 1e5]).tolist()
    assert spec.evaluate(np.array([])).shape == (0,)


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
    knots_by_zero = 0
    # NoiseSpectrum.zero() first, then the random spectra
    for spec in spectra:
        f, p = spec.frequencies_hz, spec.psd
        # every sample, one point below and one above the range, random points
        queries = np.concatenate([f, [f[0] / 3.0, 3.0 * f[-1]],
                                  10.0 ** rng.uniform(-4.0, 7.0, 20)])
        for q, got in zip(queries, spec.evaluate(queries)):
            want, scale, kind = loglog_reference(f.tolist(), p.tolist(), float(q))
            assert abs(got - want) <= 1e-13 * scale, (f, p, q)
            kinds.add(kind)
        # a float or np.float64 query takes the scalar branch, on Python floats
        # and math, and is held to the same bound; inf holds the last sample
        for q in np.append(queries, np.inf):
            want, scale, _ = loglog_reference(f.tolist(), p.tolist(), float(q))
            for one in (spec.evaluate(float(q)), spec.evaluate(np.float64(q))):
                assert type(one) is np.float64
                assert abs(one - want) <= 1e-13 * scale, (f, p, q)
        # samples are queried exactly, so every knot next to a zero sample is
        knots_by_zero += sum((i > 0 and p[i - 1] == 0.0) or (i + 1 < p.size and p[i + 1] == 0.0)
                             for i in range(p.size))
    assert kinds == {"hold", "loglog", "zero-ended"}
    assert knots_by_zero > 0
    assert spectra[0].evaluate(np.inf) == 0.0
    for bad in (0.0, -1.0, math.nan, -math.inf, np.float64(0.0), np.float64(math.nan),
                np.array([1.0, 0.0])):
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


def test_relative_variance_is_scale_free():
    # the samples are scaled by an exact power of two before the squares, so
    # 2^+-900 (whose squared deviations overflow or underflow) keep the bytes
    x = 1.0 + 0.01 * np.random.default_rng(7).standard_normal(1000)
    ratio = relative_variance(TimeSeries(1.0, x))
    for k in (900, -900):
        assert relative_variance(TimeSeries(1.0, np.ldexp(x, k))) == ratio
    assert ratio == float(x.std(ddof=0) / x.mean())


@pytest.mark.parametrize("level", [1e-308, 2.0 ** -1000, 1e-300, 1e-10, 1e100, 1e303, 1e304,
                                   1e306, 2.0 ** 1020, 1.43e308])
def test_psd_across_the_float_range(level):
    """20,000 rows of level * (1 + 0.01 z): the sums of samples past 1e304 would
    overflow, so both functions scale them by a power of two first. A trace at
    a power of two keeps the bytes of the level-1 trace; a decimal level rounds
    its samples apart from it, within a few ulps."""
    x = 1.0 + 0.01 * np.random.default_rng(25).standard_normal(20000)

    def psd_and_ratio(samples):
        series = TimeSeries(1e3, samples)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return estimate_psd(series, 1024).psd, relative_variance(series)

    psd, ratio = psd_and_ratio(level * x)
    psd_1, ratio_1 = psd_and_ratio(x)
    if math.frexp(level)[0] == 0.5:
        assert psd.tobytes() == psd_1.tobytes() and ratio == ratio_1
    assert ratio == pytest.approx(ratio_1, rel=1e-15)
    assert psd == pytest.approx(psd_1, rel=1e-13)


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
    # window / mean overflows below a mean of 1 / (largest float), 5.6e-309
    fluctuation = 1.0 + 0.01 * np.random.default_rng(0).standard_normal(256)
    with pytest.raises(DomainError, match="1/mean finite"):
        estimate_psd(TimeSeries(100.0, 1e-310 * fluctuation), segment_length=64)
    tiny = estimate_psd(TimeSeries(100.0, 1e-308 * fluctuation), segment_length=64)
    assert tiny.psd == pytest.approx(estimate_psd(TimeSeries(100.0, fluctuation), 64).psd,
                                     rel=1e-9)


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


def welch_40_digits(samples, fs, length, overlap):
    """Welch's estimate of the float `samples` in 40-digit arithmetic (exact
    window, mean, segment means and DFT), with the number of segments and,
    over them, the largest sum |y_j| of the normalized windowed samples."""
    step = length - round(overlap * length)
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(v)) for v in samples]
        mean = mpmath.fsum(x) / len(x)
        turn = [2 * mpmath.pi * j / length for j in range(length)]
        cos, sin = [mpmath.cos(a) for a in turn], [mpmath.sin(a) for a in turn]
        w = [(1 - c) / 2 for c in cos]
        power = [mpmath.mpf(0)] * (length // 2 + 1)
        abs_sum = 0
        starts = range(0, len(x) - length + 1, step)
        for lo in starts:
            seg = x[lo:lo + length]
            m = mpmath.fsum(seg) / length
            y = [(v - m) / mean * wj for v, wj in zip(seg, w)]
            abs_sum = max(abs_sum, mpmath.fsum(abs(v) for v in y))
            for k in range(len(power)):
                re = mpmath.fsum(y[j] * cos[j * k % length] for j in range(length))
                im = mpmath.fsum(y[j] * sin[j * k % length] for j in range(length))
                power[k] += re * re + im * im
        pxx = [p * 2 / (fs * mpmath.fsum(v * v for v in w) * len(starts)) for p in power]
        if length % 2 == 0:
            pxx[-1] /= 2
        return np.array([float(p) for p in pxx[1:]]), len(starts), float(abs_sum)


@pytest.mark.parametrize("length", [32, 63])
@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
def test_estimate_psd_within_its_rounding_bound_of_40_digits(length, overlap):
    """estimate_psd against Welch's sum in 40 digits, for fractional noise
    sigma_r = 1e-2 .. 1e-8 on a unit mean, eight segments, even and odd L.

    The bound, with u = 2^-53 and err = max|got - want| / max(want):
    - Per sample, in units of the mean, an error D that need not cancel in
      x - m: the segment mean's pairwise sum of L samples is off by at most
      (L/8 + 10) u of it, and its division adds u, so D <= (L/8 + 12) u (a
      quotient x / mean - 1 is off by about u, which this covers as well).
      Through the window (sum w_j = L/2) each DFT bin moves by (L/2) D.
    - Each y_j is off by 2u relative (w / mean and the product), and a DFT
      bin, a sum of L products with rounded twiddles, by at most
      (L + 2) u sum|y_j|; the FFT's error is below that of the direct sum.
      So every bin X of every segment is off by at most
      d = (L/2) D + (L + 4) u max_seg sum|y_j|.
    - Averaged over segments, |X|^2 moves by at most 2 d sqrt(P) + d^2
      (Cauchy-Schwarz), and the density is c P with c <= 2 / (fs sum w^2)
      = 2 / (fs 3L/8), so err <= 2 d sqrt(c / max want) + c d^2 / max want.
    - The mean of n samples (relative (n/8 + 12) u, squared in the
      density), the sum over S segments and the scale factor add
      (n/4 + S + L + 34) u.
    The 1/sigma_r in d / sqrt(max want) is the cancellation of x - m: both
    forms of the normalization lose about u / sigma_r, and the bound holds
    for either.
    """
    u = 2.0 ** -53
    step = length - round(overlap * length)
    n = length + 7 * step
    for e in range(2, 9):
        rng = np.random.default_rng([length, round(10 * overlap), e])
        samples = 1.0 + 10.0 ** -e * rng.standard_normal(n)
        got = estimate_psd(TimeSeries(1.0, samples), length, overlap).psd
        want, segments, abs_sum = welch_40_digits(samples, 1.0, length, overlap)
        top = want.max()
        d = (length / 2) * (length / 8 + 12) * u + (length + 4) * u * abs_sum
        c = 2.0 / (3.0 * length / 8.0)
        bound = (2.0 * d * math.sqrt(c / top) + c * d * d / top
                 + (n / 4 + segments + length + 34) * u)
        assert segments == 8
        assert np.max(np.abs(got - want)) <= bound * top


@pytest.mark.parametrize("length", [32, 63])
@pytest.mark.parametrize("overlap", [0.0, 0.5])
def test_estimate_psd_bin_1_within_its_rounding_bound(length, overlap):
    """Bin 1 against Welch's sum in 40 digits, relative to bin 1 itself, for
    fractional noise sigma_r = 1e-4 .. 1e-8 at a level of 0.02, four segments.

    A segment mean that is off by D moves every sample of the segment by D,
    and so bin 1 by |W_1| D = (L/4) D, W the DFT of the periodic Hann window.
    The samples less the trace mean are exact (Sterbenz), so D is the rounding
    of a mean of L fluctuations, D <= (L/8 + 12) u A in units of the mean, with
    A = max|x - mean| / mean: 1/A times less than the (L/8 + 12) u of a
    segment mean taken of the raw samples, which lets bin 1 drift by about
    u / sigma_r relative. The trace mean's own rounding shifts every sample
    alike, which each segment's mean removes. With the rounding of y and of
    the DFT as in the test above, each bin is off by at most
    d = (L/4) D + (L + 5) u max_seg sum|y_j|, and bin 1 by
    2 d sqrt(c / want) + c d^2 / want + (n/4 + S + L + 34) u relative,
    c = 2 / (3L/8) at fs = 1.
    """
    u = 2.0 ** -53
    step = length - round(overlap * length)
    n = length + 3 * step
    for e in (4, 6, 8):
        rng = np.random.default_rng([length, round(10 * overlap), e, 1])
        samples = 0.02 * (1.0 + 10.0 ** -e * rng.standard_normal(n))
        got = estimate_psd(TimeSeries(1.0, samples), length, overlap).psd[0]
        want, segments, abs_sum = welch_40_digits(samples, 1.0, length, overlap)
        mean = samples.mean()
        d = ((length / 4) * (length / 8 + 12) * u * float(np.abs(samples - mean).max() / mean)
             + (length + 5) * u * abs_sum)
        c = 2.0 / (3.0 * length / 8.0)
        bound = (2.0 * d * math.sqrt(c / want[0]) + c * d * d / want[0]
                 + (n / 4 + segments + length + 34) * u)
        assert segments == 4
        assert abs(got - want[0]) <= bound * want[0]


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


def one_array_welch(samples, fs, length, overlap):
    """The Welch sum over one (segment x sample) array: the bytes the blocked
    estimate_psd keeps. The samples less their mean are cut into segments, and
    each segment less its own mean is multiplied by window / mean."""
    step = length - round(overlap * length)
    mean = samples.mean()
    seg = np.lib.stride_tricks.sliding_window_view(samples - mean, length)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    x = (seg - seg.mean(axis=1, keepdims=True)) * (window / mean)
    spectra = np.fft.rfft(x, axis=1)
    power = (spectra.real ** 2).sum(axis=0) + (spectra.imag ** 2).sum(axis=0)
    pxx = power / len(seg) * (2.0 / (fs * window @ window))
    if length % 2 == 0:
        pxx[-1] /= 2.0
    return pxx[1:]


@pytest.mark.parametrize("length,overlap,n", [
    (1024, 0.5, 300_000),       # 585 segments, past 256: ten blocks of 64
    (2000, 0.9, 120_000),       # 591 segments: 19 blocks of 32
    (65_537, 0.5, 360_000),     # longer than one block: one segment a block
    (8, 0.0, 5_000),            # 625 segments in one block
])
def test_estimate_psd_blocks_keep_the_bytes(length, overlap, n):
    samples = 1.0 + 0.01 * np.random.default_rng(length).standard_normal(n)
    psd = estimate_psd(TimeSeries(1e4, samples), length, overlap)
    assert np.array_equal(psd.psd, one_array_welch(samples, 1e4, length, overlap))


def test_estimate_psd_memory_bounded_for_long_segments():
    # 206 segments of 2^16 samples: 108 MB for each whole-array temporary
    series = TimeSeries(1e4, 1.0 + 0.01 * np.random.default_rng(6).standard_normal(200_000))
    tracemalloc.start()
    try:
        estimate_psd(series, segment_length=2 ** 16, overlap=0.99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_estimate_psd_kind_label():
    rng = np.random.default_rng(11)
    series = TimeSeries(1e3, 1.0 + 0.01 * rng.standard_normal(1024))
    assert estimate_psd(series, 128, kind="position").kind == "position"
    assert estimate_psd(series, 128).kind == "spring_fractional"
