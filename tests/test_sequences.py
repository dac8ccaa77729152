"""Pulse sequences, dephasing filter functions, and fringe synthesis."""

import math

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
from trapcoh import io


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
