"""Pulse sequences, dephasing filter functions, and fringe synthesis."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcoh import (
    ConfigError,
    DecayParams,
    DomainError,
    FilterCurve,
    NoiseSpectrum,
    PulseSequence,
    cpmg,
    filter_function,
    filtered_sigma,
    ramsey,
    sample_filter,
    simulate_fringe,
    spin_echo,
)
from trapcoh import io, sequences


def phase_quadrature(seq, f_hz, dt):
    """Midpoint Riemann estimate of the filter from the sign trace itself.

    Integrates segment by segment so no quadrature cell straddles a sign
    flip; the midpoint rule is then second order in dt.
    """
    edges = seq.boundaries()
    omega = 2.0 * math.pi * f_hz
    integral = 0.0 + 0.0j
    for sign, a, b in zip(seq.signs(), edges[:-1], edges[1:]):
        m = max(1, int(math.ceil((b - a) / dt)))
        h = (b - a) / m
        tt = a + (np.arange(m) + 0.5) * h
        integral += sign * np.sum(np.exp(1j * omega * tt)) * h
    return abs(integral) ** 2 / seq.t_total_s ** 2


def test_sequence_validation():
    with pytest.raises(DomainError):
        PulseSequence(0.0, ())
    for t_total in (math.inf, math.nan):
        with pytest.raises(DomainError):
            PulseSequence(t_total, ())
    with pytest.raises(DomainError):
        PulseSequence(1.0, (0.0,))
    with pytest.raises(DomainError):
        PulseSequence(1.0, (1.0,))
    with pytest.raises(DomainError):
        PulseSequence(1.0, (0.6, 0.4))
    with pytest.raises(DomainError):
        PulseSequence(1.0, (0.4, 0.4))


def test_sequence_geometry():
    seq = PulseSequence(1.0, (0.2, 0.7))
    assert seq.n_pulses == 2
    assert seq.boundaries().tolist() == [0.0, 0.2, 0.7, 1.0]
    assert seq.signs().tolist() == [1.0, -1.0, 1.0]


def test_standard_sequences():
    assert ramsey(0.8).pi_pulses_s == ()
    assert spin_echo(0.8).pi_pulses_s == (0.4,)
    seq = cpmg(4, 0.8)
    assert seq.t_total_s == pytest.approx(3.2)
    assert seq.pi_pulses_s == pytest.approx((0.4, 1.2, 2.0, 2.8))
    assert cpmg(1, 0.8) == spin_echo(0.8)
    with pytest.raises(DomainError):
        cpmg(0, 0.8)
    with pytest.raises(DomainError):
        cpmg(3, 0.0)


def test_sequence_json_round_trip(tmp_path):
    seq = cpmg(3, 0.5)
    path = tmp_path / "seq.json"
    io.write_json(path, seq.to_json_obj())
    assert PulseSequence.from_json_obj(io.read_json(path)) == seq
    bad = tmp_path / "bad.json"
    bad.write_text('{"t_total_s": 1.0}')
    with pytest.raises(ConfigError) as err:
        PulseSequence.from_json_obj(io.read_json(bad))
    assert err.value.kind == "parse_error"


def test_ramsey_filter_is_sinc_squared():
    t_total = 0.8
    f = np.array([0.11, 0.5, 1.3, 2.2, 4.9])
    got = filter_function(ramsey(t_total), f)
    assert got == pytest.approx(np.sinc(f * t_total) ** 2, rel=1e-12)


def test_static_response():
    assert filter_function(ramsey(0.8), 0.0) == 1.0
    # balanced sequences cancel statics up to rounding in the pulse times
    assert filter_function(spin_echo(0.8), 0.0) == pytest.approx(0.0, abs=1e-28)
    assert filter_function(cpmg(4, 0.8), 0.0) == pytest.approx(0.0, abs=1e-28)
    assert filter_function(cpmg(5, 0.8), 0.0) == pytest.approx(0.0, abs=1e-28)
    # unbalanced sequence keeps a static residue
    lopsided = PulseSequence(1.0, (0.25,))
    assert filter_function(lopsided, 0.0) == pytest.approx(0.25)


def test_filter_validation():
    with pytest.raises(DomainError):
        filter_function(ramsey(0.8), -0.1)


@pytest.mark.parametrize("f", [math.nan, [1.0, math.nan]], ids=["scalar", "array"])
def test_filter_refuses_nan(f):
    for seq in (ramsey(0.8), cpmg(4, 0.8), PulseSequence(1.0, (0.25,))):
        with pytest.raises(DomainError):
            filter_function(seq, f)


def test_echo_known_zeros_and_peak():
    echo = spin_echo(0.8)
    # zeros where a full noise cycle fits in each half
    assert filter_function(echo, 2.5) < 1e-25
    assert filter_function(echo, 5.0) < 1e-25
    # first passband near f = 1/(2 tau) with tau = 0.4 s
    assert filter_function(echo, 1.25) > 0.4


def test_cpmg_comb_zeros():
    seq = cpmg(20, 0.8)
    comb = np.arange(1, 80) / 16.0
    values = filter_function(seq, comb)
    passband = np.isin(np.arange(1, 80), [10, 30, 50, 70])
    assert np.all(values[~passband] < 1e-12)
    # harmonic peaks fall off as 1/odd^2
    assert values[passband] == pytest.approx(
        0.4052847345693511 / np.array([1.0, 9.0, 25.0, 49.0]), rel=1e-9)
    assert filter_function(seq, 0.625) == pytest.approx(0.4052847345693511, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.floats(0.05, 2.0), st.floats(0.0, 20.0))
def test_filter_is_nonnegative(n, interval, f):
    assert filter_function(cpmg(n, interval), f) >= 0.0


def test_filter_matches_phase_quadrature():
    # independent route: integrate the sign trace numerically
    for seq in (spin_echo(0.8), cpmg(3, 0.5), PulseSequence(1.0, (0.3, 0.45, 0.9))):
        for f in (0.3, 0.7, 1.9):
            direct = phase_quadrature(seq, f, seq.t_total_s / 2 ** 14)
            assert filter_function(seq, f) == pytest.approx(direct, rel=1e-4, abs=1e-12)


def unblocked_filter(seq, f_hz):
    """The filter as one array: the bytes of the blocked one."""
    omega = 2.0 * np.pi * f_hz
    out = np.empty(f_hz.shape)
    edges, signs, t_tot = seq.boundaries(), seq.signs(), seq.t_total_s
    zero = (omega * t_tot) ** 2 == 0.0
    out[zero] = (np.sum(signs * np.diff(edges)) / t_tot) ** 2
    closed = sequences._closed_form(seq)
    if closed:
        out[~zero] = closed(omega[~zero])
        return out
    w = omega[~zero][:, None]
    amp = np.sum(signs[None, :] * np.diff(np.exp(1j * w * edges[None, :]), axis=1), axis=1)
    out[~zero] = np.abs(amp) ** 2 / (omega[~zero] * t_tot) ** 2
    return out


def udd(n, t_total):
    """Uhrig's layout: pulses at T sin^2(pi j / (2 n + 2))."""
    return PulseSequence(t_total, tuple(t_total * math.sin(math.pi * j / (2 * n + 2)) ** 2
                                        for j in range(1, n + 1)))


def nudged_cpmg10():
    """cpmg(10, 0.1) with its fifth pulse one ulp later: no longer the CPMG layout."""
    pulses = list(cpmg(10, 0.1).pi_pulses_s)
    pulses[4] = math.nextafter(pulses[4], 1.0)
    return PulseSequence(cpmg(10, 0.1).t_total_s, tuple(pulses))


@pytest.mark.parametrize("seq", [cpmg(10, 0.1), ramsey(1.0), spin_echo(0.5),
                                 PulseSequence(1.0, (0.3, 0.45, 0.9)), udd(8, 0.1),
                                 nudged_cpmg10()],
                         ids=["cpmg10", "ramsey", "echo", "lopsided", "udd8", "cpmg10_ulp"])
def test_filter_blocks_keep_the_bytes(seq):
    # 150,000 frequencies, with static points among them: 3 blocks of the closed
    # forms, 6,553 rows a block of the general sum for UDD-8
    f = np.logspace(-2, 3, 150_000)
    f[::7] = 0.0
    assert np.array_equal(filter_function(seq, f), unblocked_filter(seq, f))


def test_closed_form_detection(tmp_path):
    # the CPMG form needs the layout cpmg() builds, bit for bit
    for seq in (cpmg(1, 0.3), cpmg(4, 0.8), cpmg(20, 1e-3), cpmg(7, 0.013), spin_echo(0.1),
                spin_echo(1.0 / 3.0)):
        assert sequences._closed_form(seq) is not None
    path = tmp_path / "seq.json"
    io.write_json(path, cpmg(11, 0.037).to_json_obj())
    assert sequences._closed_form(PulseSequence.from_json_obj(io.read_json(path))) is not None
    for seq in (nudged_cpmg10(), udd(8, 0.1), PulseSequence(1.0, (0.3, 0.45, 0.9)),
                PulseSequence(math.nextafter(1.0, 2.0), (0.5,))):
        assert sequences._closed_form(seq) is None
    # the general sum of the nudged layout stays on the closed form of the exact one
    f = np.logspace(-4, 3, 2000)
    nudged = filter_function(nudged_cpmg10(), f)
    exact = filter_function(cpmg(10, 0.1), f)
    bulk = exact >= 1e-10 * exact.max()
    assert np.all(np.abs(nudged[bulk] - exact[bulk]) <= 1e-9 * exact[bulk])


def exact_layout_filter(n, interval, f_hz):
    """F of n pulses at (j - 1/2) tau, T = n tau, from the float tau, in 50 digits."""
    with mpmath.workdps(50):
        tau = mpmath.mpf(interval)
        edges = [mpmath.mpf(0), *((j - mpmath.mpf(0.5)) * tau for j in range(1, n + 1)), n * tau]
        out = []
        for f in f_hz:
            w = 2 * mpmath.pi * mpmath.mpf(float(f))
            amp = sum((-1) ** k * (mpmath.expj(w * b) - mpmath.expj(w * a))
                      for k, (a, b) in enumerate(zip(edges, edges[1:])))
            out.append(float(abs(amp) ** 2 / (w * n * tau) ** 2))
    return np.array(out)


@pytest.mark.parametrize("n, interval", [(1, 0.5), (3, 0.5), (10, 0.01), (20, 0.8)])
def test_cpmg_closed_form_matches_50_digits(n, interval):
    # a log grid to 10 / tau, plus the comb's first 20 peaks (2k + 1) / (2 tau)
    # and first 20 zeros k / T
    k = np.arange(20)
    f = np.concatenate((np.logspace(-4, math.log10(10.0 / interval), 300),
                        (2 * k + 1) / (2 * interval), (k + 1) / (n * interval)))
    got = filter_function(cpmg(n, interval), f)
    want = exact_layout_filter(n, interval, f)
    bulk = want >= 1e-10 * want.max()
    assert np.all(np.abs(got[bulk] - want[bulk]) <= 1e-10 * want[bulk])


def test_cpmg_closed_form_at_low_frequency():
    # the sum of edge exponentials cancels here: 13% off at 0.1 mHz
    f = np.array([1e-4, 1e-3, 1e-2])
    want = exact_layout_filter(10, 0.01, f)
    assert filter_function(cpmg(10, 0.01), f) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_closed_forms_are_finite_at_comb_peaks_and_zeros():
    # tau a power of two puts w tau exactly on pi at the first peak: sin y == 0
    for seq in (cpmg(1, 0.5), cpmg(3, 0.5), cpmg(10, 0.125), cpmg(20, 0.8), ramsey(0.5)):
        k = np.arange(1, 200)
        tau = seq.t_total_s / max(seq.n_pulses, 1)
        f = np.concatenate(((2 * k - 1) / (2 * tau), k / seq.t_total_s, k / tau, [0.0]))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = filter_function(seq, f)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
    first_peak = filter_function(cpmg(3, 0.5), 1.0)
    assert first_peak == pytest.approx(4.0 / math.pi ** 2, rel=1e-15)


def test_filter_memory_bounded():
    # CPMG-10 on 200,000 frequencies: 38 MB for each whole-array temporary
    f = np.linspace(0.0, 1e3, 200_000)
    seq = cpmg(10, 0.1)
    tracemalloc.start()
    try:
        filter_function(seq, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_filter_curve_round_trip(tmp_path):
    curve = sample_filter(cpmg(2, 0.8), np.linspace(0.01, 3.0, 50))
    path = tmp_path / "filter.csv"
    io.write_csv(path, FilterCurve.COLUMNS, curve.f_hz, curve.values)
    cols = io.read_csv(path, FilterCurve.COLUMNS)
    assert np.array_equal(cols["f_hz"], curve.f_hz)
    assert np.array_equal(cols["filter"], curve.values)
    assert path.read_text().splitlines()[0] == "f_hz,filter"


def test_filter_curve_header_check(tmp_path):
    path = tmp_path / "wrong.csv"
    path.write_text("freq,val\n1.0,0.5\n")
    with pytest.raises(ConfigError) as err:
        io.read_csv(path, FilterCurve.COLUMNS)
    assert err.value.kind == "parse_error"


def low_frequency_spectrum():
    # all weight below 0.01 Hz
    return NoiseSpectrum("spring_fractional",
                         np.array([1e-4, 0.01, 0.0101, 1.0]),
                         np.array([1.0, 1.0, 1e-30, 1e-30]))


def test_filtered_sigma_scaling():
    psd = low_frequency_spectrum()
    seq = cpmg(2, 0.8)
    base = filtered_sigma(seq, psd)
    assert filtered_sigma(seq, psd.scaled(4.0)) == pytest.approx(2.0 * base, rel=1e-12)
    with pytest.raises(DomainError):
        filtered_sigma(seq, psd, band=(1.0, 0.1))


@pytest.mark.parametrize("kwargs", [{"band": (1e-4, math.inf)}, {"band": (1e-300, 1e300)},
                                    {"points_per_decade": math.nan},
                                    {"points_per_decade": -5}],
                         ids=["f_max_inf", "band_ratio_overflows", "ppd_nan", "ppd_negative"])
def test_filtered_sigma_refuses_bad_grid(kwargs):
    with pytest.raises(DomainError):
        filtered_sigma(cpmg(2, 0.8), low_frequency_spectrum(), **kwargs)


@pytest.mark.parametrize("band", [(1e-4,), (1e-4, 1.0, 5.0), 1.0, (), ("low", 1.0), (None, 1.0)],
                         ids=["one", "three", "scalar", "empty", "text", "none"])
def test_filtered_sigma_refuses_band_not_two_numbers(band):
    with pytest.raises(DomainError):
        filtered_sigma(cpmg(2, 0.8), low_frequency_spectrum(), band=band)


def udd(n, t_total):
    """Uhrig's layout: pulses at T sin^2(pi j / (2 n + 2))."""
    return PulseSequence(t_total, tuple(t_total * math.sin(math.pi * j / (2 * n + 2)) ** 2
                                        for j in range(1, n + 1)))


def spectrum_with_zero_sample():
    return NoiseSpectrum("dls", np.array([1e-3, 0.05, 2.0, 40.0]),
                         np.array([3.0, 0.0, 0.2, 1e-4]))


@pytest.mark.parametrize("seq", [ramsey(0.8), spin_echo(0.8), cpmg(2, 0.8), cpmg(7, 0.03),
                                 cpmg(20, 0.8), udd(8, 0.5), PulseSequence(1.0, (0.25,)),
                                 ramsey(1e-300), cpmg(2, 5e-301)],
                         ids=["ramsey", "echo", "cpmg2", "cpmg7", "cpmg20", "udd8", "lopsided",
                              "ramsey_static", "cpmg_static"])
@pytest.mark.parametrize("psd", [low_frequency_spectrum(), spectrum_with_zero_sample()],
                         ids=["low_f", "zero_sample"])
@pytest.mark.parametrize("band", [sequences.DEFAULT_BAND, (0.01, 5.0)], ids=["default", "cli"])
def test_filtered_sigma_equals_trapezoid_of_filter(seq, psd, band):
    # the cached grid and the direct closed form keep the bytes of the plain quadrature
    n = max(math.ceil(math.log10(band[1] / band[0]) * 200), 16)
    f = np.logspace(np.log10(band[0]), np.log10(band[1]), n)
    var = np.trapezoid(filter_function(seq, f) * psd.evaluate(f), f)
    for _ in range(2):
        assert filtered_sigma(seq, psd, band=band) == math.sqrt(max(var, 0.0))


def test_filtered_sigma_equals_trapezoid_on_random_cases():
    rng = np.random.default_rng(18)
    for k in range(300):
        t_total = 10.0 ** rng.uniform(-4.0, 1.0)
        n = int(rng.integers(1, 25))
        seq = [ramsey(t_total), spin_echo(t_total), cpmg(n, t_total / n), udd(n, t_total)][k % 4]
        f = np.unique(10.0 ** rng.uniform(-5.0, 4.0, int(rng.integers(1, 8))))
        p = np.where(rng.random(f.size) < 0.3, 0.0, 10.0 ** rng.uniform(-8.0, 2.0, f.size))
        psd = NoiseSpectrum("dls", f, p)
        lo = 10.0 ** rng.uniform(-5.0, 2.0)
        band, ppd = (lo, lo * 10.0 ** rng.uniform(0.01, 5.0)), rng.uniform(1.0, 400.0)
        n_grid = max(math.ceil(math.log10(band[1] / band[0]) * ppd), 16)
        grid = np.logspace(np.log10(band[0]), np.log10(band[1]), n_grid)
        var = np.trapezoid(filter_function(seq, grid) * psd.evaluate(grid), grid)
        assert filtered_sigma(seq, psd, band=band, points_per_decade=ppd) == math.sqrt(max(var, 0.0))


def test_filtered_sigma_grid_cache():
    info = sequences._grid.cache_info()
    assert info.maxsize == 8
    filtered_sigma(ramsey(0.8), low_frequency_spectrum())
    for array in sequences._grid(*sequences.DEFAULT_BAND, 1400):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    psd = low_frequency_spectrum()
    for k in range(100):
        filtered_sigma(cpmg(3, 0.1), psd, band=(1e-3 * (1.0 + k / 100.0), 10.0))
    assert sequences._grid.cache_info().currsize == info.maxsize
    # a grid past 2^16 points is built per call and never held
    misses = sequences._grid.cache_info().misses
    filtered_sigma(cpmg(3, 0.1), psd, band=(1.0, 10.0), points_per_decade=70000)
    info = sequences._grid.cache_info()
    assert info.misses == misses and info.currsize == info.maxsize


def test_filtered_sigma_ramsey_flat_band():
    # ramsey integrates sinc^2; against an independent dense quadrature
    psd = NoiseSpectrum.flat(2.5, f_min=1e-4, f_max=1e3)
    seq = ramsey(0.8)
    got = filtered_sigma(seq, psd, band=(1e-2, 50.0), points_per_decade=600)
    f = np.linspace(1e-2, 50.0, 400001)
    expect = math.sqrt(np.trapezoid(np.sinc(f * 0.8) ** 2 * 2.5, f))
    assert got == pytest.approx(expect, rel=1e-3)


def test_decoupling_suppresses_slow_noise():
    psd = low_frequency_spectrum()
    slow = filtered_sigma(ramsey(16.0), psd)
    for n in (1, 5, 20):
        seq = cpmg(n, 16.0 / n)  # same total time
        assert filtered_sigma(seq, psd) < slow


def test_fringe_sample_statistics():
    from trapcoh import FringeSample
    sample = FringeSample(np.array([0.0, 1.0]), np.array([80, 50]), 100)
    assert sample.population == pytest.approx([0.8, 0.5])
    expect = math.sqrt(0.8 * 0.2 / 100)
    assert sample.sigma[0] == pytest.approx(expect, rel=1e-12)
    # degenerate counts keep the binomial floor p(1-p) >= 1/(4 shots)
    zero = FringeSample(np.array([0.0]), np.array([0]), 100)
    assert zero.sigma[0] == pytest.approx(math.sqrt(0.25 / 100 / 100), rel=1e-12)


def test_simulate_fringe_deterministic():
    params = DecayParams(15.0, 5.14)
    seq = spin_echo(0.08)
    phases = np.linspace(0.0, 2.0 * math.pi, 13)
    a = simulate_fringe(params, seq, phases, 300, 9)
    b = simulate_fringe(params, seq, phases, 300, 9)
    assert np.array_equal(a.successes, b.successes)


def test_simulate_fringe_tracks_contrast():
    params = DecayParams(15.0, 5.14)
    seq = spin_echo(0.08)
    contrast = math.exp(-0.5 * 15.0 ** 2 * 0.08 ** 2 - 5.14 * 0.08)
    phases = np.zeros(1)
    shots = 20000
    sample = simulate_fringe(params, seq, phases, shots, 21)
    expect = 0.5 * (1.0 + contrast)
    # binomial standard error bound
    assert abs(sample.population[0] - expect) < 4.0 * math.sqrt(0.25 / shots)
    with pytest.raises(DomainError):
        simulate_fringe(params, seq, phases, 0, 0)
