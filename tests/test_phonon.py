"""Phonon jumping rates: single transitions, axis totals, thermal estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcoh import (
    ConfigError,
    DomainError,
    FixedOccupation,
    NoiseSpectrum,
    ThermalOccupation,
    TrapConfig,
    TrapNoise,
    axis_jump_rate,
    classical_thermal_rate,
    first_jump_survival_mc,
    intensity_jump_rate,
    pointing_jump_rate,
    survival_probability,
    thermal_average_pjr,
    thermal_probability,
    total_jump_rate,
)
from trapcoh.constants import BOLTZMANN, CS133_MASS, HBAR
from trapcoh.trap import AXES, thermal_moments

OMEGA = 2.0 * math.pi * 30.3e3
S_K = 1e-12   # fractional spring PSD, angular convention
S_X = 1e-25   # position PSD, angular convention


def test_intensity_rate_formula():
    got = intensity_jump_rate(OMEGA, S_K, 3, 2)
    expect = math.pi * OMEGA ** 2 / 16.0 * S_K * 20.0  # (n+2)(n+1) = 20
    assert got == pytest.approx(expect, rel=1e-12)
    # downward path closes at the bottom two levels
    assert intensity_jump_rate(OMEGA, S_K, 0, -2) == 0.0
    assert intensity_jump_rate(OMEGA, S_K, 1, -2) == 0.0
    assert intensity_jump_rate(OMEGA, 0.0, 5, 2) == 0.0


def test_pointing_rate_formula():
    got = pointing_jump_rate(OMEGA, CS133_MASS, S_X, 4, 1)
    expect = math.pi / (2.0 * HBAR) * CS133_MASS * OMEGA ** 3 * S_X * 5.0
    assert got == pytest.approx(expect, rel=1e-12)
    assert pointing_jump_rate(OMEGA, CS133_MASS, S_X, 0, -1) == 0.0


def test_transition_validation():
    with pytest.raises(DomainError):
        intensity_jump_rate(OMEGA, S_K, 1, 1)
    with pytest.raises(DomainError):
        intensity_jump_rate(OMEGA, S_K, -1, 2)
    with pytest.raises(DomainError):
        intensity_jump_rate(OMEGA, -S_K, 1, 2)
    with pytest.raises(DomainError):
        pointing_jump_rate(OMEGA, CS133_MASS, S_X, 1, 2)
    with pytest.raises(DomainError):
        pointing_jump_rate(OMEGA, CS133_MASS, S_X, 1.5, 1)


def test_axis_rate_is_transition_sum():
    # closed form against the four escape channels, every level
    for n in range(0, 51):
        channels = (intensity_jump_rate(OMEGA, S_K, n, 2)
                    + intensity_jump_rate(OMEGA, S_K, n, -2)
                    + pointing_jump_rate(OMEGA, CS133_MASS, S_X, n, 1)
                    + pointing_jump_rate(OMEGA, CS133_MASS, S_X, n, -1))
        closed = axis_jump_rate(OMEGA, CS133_MASS, S_K, S_X, n)
        assert abs(closed / channels - 1.0) < 1e-12


def test_trap_noise_kind_checks():
    spring = NoiseSpectrum.flat(1e-12)
    position = NoiseSpectrum.flat(1e-25, kind="position")
    TrapNoise.uniform(spring=spring, position=position)
    with pytest.raises(ConfigError):
        TrapNoise.uniform(spring=position)
    with pytest.raises(ConfigError):
        TrapNoise.uniform(position=spring)
    with pytest.raises(ConfigError):
        TrapNoise({"w": spring}, {})


def test_missing_axis_spectrum():
    spring = NoiseSpectrum.flat(1e-12)
    noise = TrapNoise({"x": spring}, {})
    with pytest.raises(ConfigError) as err:
        noise.spring_omega("y", OMEGA)
    assert err.value.kind == "missing_spectrum"
    with pytest.raises(ConfigError) as err:
        noise.position_omega("x", OMEGA)
    assert err.value.kind == "missing_spectrum"


def test_spring_omega_applies_convention():
    spring = NoiseSpectrum.flat(4e-12, f_min=1.0, f_max=1e6)
    noise = TrapNoise.uniform(spring=spring)
    # flat spectrum: evaluate at f = omega / 2 pi, then divide by 2 pi
    assert noise.spring_omega("x", OMEGA) == pytest.approx(
        4e-12 / (2.0 * math.pi), rel=1e-12)


def test_total_rate_zero_noise():
    cfg = TrapConfig.load_preset("cs133")
    rates = total_jump_rate(cfg, TrapNoise.uniform(), FixedOccupation(0, 0, 0))
    assert rates.x == 0.0 and rates.y == 0.0 and rates.z == 0.0
    assert rates.total == 0.0


def test_total_rate_linear_in_psd():
    cfg = TrapConfig.load_preset("cs133")
    spring = NoiseSpectrum.load_preset("rin_40db")
    occ = FixedOccupation(2, 3, 10)
    one = total_jump_rate(cfg, TrapNoise.uniform(spring=spring), occ)
    two = total_jump_rate(cfg, TrapNoise.uniform(spring=spring.scaled(2.0)), occ)
    assert two.total == pytest.approx(2.0 * one.total, rel=1e-12)
    assert two.x == pytest.approx(2.0 * one.x, rel=1e-12)


def per_axis_noise(rng, shared):
    """A TrapNoise with its own spring and position spectrum on each axis, or
    with x and y sharing one of each when shared."""
    def draw(kind, low):
        f = np.sort(rng.uniform(1e3, 3e5, 5))
        return NoiseSpectrum(kind, f, 10.0 ** rng.uniform(low, low + 4.0, 5))
    spring = {ax: draw("spring_fractional", -14.0) for ax in AXES}
    position = {ax: draw("position", -26.0) for ax in AXES}
    if shared:
        spring["y"], position["y"] = spring["x"], position["x"]
    return TrapNoise(spring, position)


@pytest.mark.parametrize("shared", [False, True])
def test_batched_axis_lookup_matches_per_axis_loop(shared):
    cfg = TrapConfig.load_preset("cs133")
    noise = per_axis_noise(np.random.default_rng(13), shared)
    mass = cfg.species.mass_kg
    s_k = [noise.spring_omega(ax, 2.0 * w) for ax, w in zip(AXES, cfg.omegas)]
    s_x = [noise.position_omega(ax, w) for ax, w in zip(AXES, cfg.omegas)]
    numbers = (2, 5, 40)
    rates = total_jump_rate(cfg, noise, FixedOccupation(*numbers))
    loop = [axis_jump_rate(w, mass, k, x, n)
            for w, k, x, n in zip(cfg.omegas, s_k, s_x, numbers)]
    assert [rates.x, rates.y, rates.z] == pytest.approx(loop, rel=1e-14)

    dist = ThermalOccupation(3.5, 0.2, 60.0)
    expect = 0.0
    for w, k, x, nbar in zip(cfg.omegas, s_k, s_x, dist.means):
        m1, m2 = thermal_moments(nbar)
        expect += (math.pi * w ** 2 / 8.0 * k * (m2 + m1 + 1.0)
                   + math.pi / (2.0 * HBAR) * mass * w ** 3 * x * (2.0 * m1 + 1.0))
    assert thermal_average_pjr(cfg, noise, dist) == pytest.approx(expect, rel=1e-14)

    kt = BOLTZMANN * 2e-5
    classical = (math.pi / (8.0 * HBAR ** 2) * (kt / 2.0) ** 2 * sum(s_k)
                 + math.pi / (2.0 * HBAR ** 2) * mass * kt
                 * sum(w ** 2 * x for w, x in zip(cfg.omegas, s_x)))
    assert classical_thermal_rate(cfg, noise, 2e-5) == pytest.approx(classical, rel=1e-14)


def test_batched_axis_lookup_missing_axis():
    cfg = TrapConfig.load_preset("cs133")
    spring = NoiseSpectrum.flat(1e-12)
    position = NoiseSpectrum.flat(1e-25, kind="position")
    for noise in (TrapNoise({"x": spring, "y": spring}, {ax: position for ax in AXES}),
                  TrapNoise({ax: spring for ax in AXES}, {"x": position, "z": position})):
        for rate in (lambda: total_jump_rate(cfg, noise, FixedOccupation(0, 0, 0)),
                     lambda: thermal_average_pjr(cfg, noise, ThermalOccupation(1.0, 1.0, 1.0)),
                     lambda: classical_thermal_rate(cfg, noise, 1e-5)):
            with pytest.raises(ConfigError) as err:
                rate()
            assert err.value.kind == "missing_spectrum"


def test_classical_rates_at_table_inputs():
    cfg = TrapConfig.load_preset("cs133")
    forty = TrapNoise.uniform(spring=NoiseSpectrum.load_preset("rin_40db"))
    free = TrapNoise.uniform(spring=NoiseSpectrum.load_preset("rin_free"))
    r40 = classical_thermal_rate(cfg, forty, 14e-6)
    rfree = classical_thermal_rate(cfg, free, 14e-6)
    assert r40 == pytest.approx(6.5241780749600204, rel=1e-12)
    assert rfree == pytest.approx(0.4680961544031216, rel=1e-12)
    assert r40 - rfree == pytest.approx(6.056081920556899, rel=1e-12)


def test_classical_rate_validation():
    cfg = TrapConfig.load_preset("cs133")
    with pytest.raises(DomainError):
        classical_thermal_rate(cfg, TrapNoise.uniform(), 0.0)


def test_thermal_average_delta_limit():
    cfg = TrapConfig.load_preset("cs133")
    noise = TrapNoise.uniform(spring=NoiseSpectrum.load_preset("rin_40db"),
                              position=NoiseSpectrum.flat(1e-26, kind="position"))
    fixed = total_jump_rate(cfg, noise, FixedOccupation(0, 0, 0)).total
    avg = thermal_average_pjr(cfg, noise, ThermalOccupation(0.0, 0.0, 0.0))
    assert avg == pytest.approx(fixed, rel=1e-9)


def test_thermal_average_brute_force():
    cfg = TrapConfig.load_preset("cs133")
    noise = TrapNoise.uniform(spring=NoiseSpectrum.load_preset("rin_40db"),
                              position=NoiseSpectrum.flat(1e-26, kind="position"))
    nbars = (1.0, 0.5, 0.25)
    # the rate is additive across axes, so the product-distribution sum
    # splits into per-axis averages
    expect = 0.0
    for axis_index, nbar in enumerate(nbars):
        for n in range(201):
            numbers = [0, 0, 0]
            numbers[axis_index] = n
            axis_rate = getattr(total_jump_rate(cfg, noise, FixedOccupation(*numbers)),
                                "xyz"[axis_index])
            expect += thermal_probability(nbar, n) * axis_rate
    got = thermal_average_pjr(cfg, noise, ThermalOccupation(*nbars))
    # the reference drops a tail below 2**-200 of the mass, so only
    # rounding separates it from the closed-form moments
    assert got == pytest.approx(expect, rel=1e-12)


def test_thermal_average_at_table_inputs():
    cfg = TrapConfig.load_preset("cs133")
    noise = TrapNoise.uniform(spring=NoiseSpectrum.load_preset("rin_40db"))
    occ = ThermalOccupation.from_temperature(14e-6, cfg)
    assert thermal_average_pjr(cfg, noise, occ) == pytest.approx(
        13.138940951811716, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
def test_thermal_average_monotone(nbar_lo, nbar_hi):
    lo, hi = sorted((nbar_lo, nbar_hi))
    cfg = TrapConfig.load_preset("cs133")
    noise = TrapNoise.uniform(spring=NoiseSpectrum.load_preset("rin_40db"))
    r_lo = thermal_average_pjr(cfg, noise, ThermalOccupation(lo, 2.0, 2.0))
    r_hi = thermal_average_pjr(cfg, noise, ThermalOccupation(hi, 2.0, 2.0))
    assert r_hi >= r_lo * (1.0 - 1e-12)


def test_survival_probability():
    t = np.array([0.0, 0.1, 0.5])
    assert survival_probability(2.0, t) == pytest.approx(np.exp(-2.0 * t), rel=1e-12)
    assert survival_probability(0.0, 5.0) == 1.0
    with pytest.raises(DomainError):
        survival_probability(-1.0, 1.0)
    with pytest.raises(DomainError):
        survival_probability(1.0, -0.1)


def test_first_jump_mc_deterministic():
    t = np.linspace(0.0, 1.0, 11)
    a = first_jump_survival_mc(3.0, 5000, 42, t)
    b = first_jump_survival_mc(3.0, 5000, 42, t)
    assert np.array_equal(a, b)
    c = first_jump_survival_mc(3.0, 5000, 43, t)
    assert not np.array_equal(a, c)


def test_first_jump_mc_tracks_exponential():
    t = np.linspace(0.0, 0.8, 17)
    n = 40000
    emp = first_jump_survival_mc(2.5, n, 7, t)
    assert np.max(np.abs(emp - np.exp(-2.5 * t))) < 4.0 / math.sqrt(n)


def test_first_jump_mc_zero_rate():
    t = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(first_jump_survival_mc(0.0, 100, 0, t), np.ones(5))
    with pytest.raises(DomainError):
        first_jump_survival_mc(1.0, 0, 0, t)
