"""Trap configuration, occupancy statistics, and the DLS model."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcoh import (
    AtomSpecies,
    ConfigError,
    DomainError,
    FixedOccupation,
    ThermalOccupation,
    TrapConfig,
    cesium_eta,
    cesium_species,
    dls_mean,
    dls_sigma,
    effective_detuning,
    eta_from_detuning,
    mean_phonon_number,
    thermal_average_dls_sigma,
    thermal_moments,
    thermal_probability,
)
from trapcoh import io
from trapcoh.constants import (BOLTZMANN, CS_D1_WAVELENGTH, CS_D2_WAVELENGTH,
                               CS_HYPERFINE_SPLITTING, HBAR, SPEED_OF_LIGHT)

TWO_PI = 2.0 * math.pi


def brute_force_cutoff(nbar, tail_mass):
    """Smallest N with P(n > N) = (nbar / (nbar + 1))**(N + 1) below tail_mass."""
    if nbar == 0.0:
        return 0
    return max(math.ceil(math.log(tail_mass) / math.log(nbar / (nbar + 1.0))) - 1, 0)


def toy_config(**overrides):
    fields = dict(
        species=cesium_species(),
        eta=1.5e-4,
        u0_joule=-1.4e-26,
        omega_x_rad_s=TWO_PI * 30e3,
        omega_y_rad_s=TWO_PI * 30e3,
        omega_z_rad_s=TWO_PI * 3e3,
        p0_watt=0.02,
        sigma_p_watt=8e-6,
    )
    fields.update(overrides)
    return TrapConfig(**fields)


def test_species_validation():
    with pytest.raises(DomainError):
        AtomSpecies(mass_kg=-1.0, omega_hfs_rad_s=1.0)
    with pytest.raises(DomainError):
        AtomSpecies(mass_kg=1.0, omega_hfs_rad_s=0.0)
    with pytest.raises(DomainError):
        AtomSpecies(mass_kg=1.0, omega_hfs_rad_s=1.0, gamma_rad_s=-1.0)


def test_cesium_species_constants():
    cs = cesium_species()
    # clock transition 9.192631770 GHz defines the second
    assert cs.omega_hfs_rad_s == pytest.approx(TWO_PI * 9.192631770e9, rel=1e-12)
    assert cs.mass_kg == pytest.approx(132.905451961 * 1.6605390666e-27, rel=1e-9)


def test_config_validation():
    with pytest.raises(DomainError):
        toy_config(eta=-1e-4)
    with pytest.raises(DomainError):
        toy_config(omega_y_rad_s=0.0)
    with pytest.raises(DomainError):
        toy_config(p0_watt=0.0)
    with pytest.raises(DomainError):
        toy_config(sigma_p_watt=-1e-6)
    # the Gaussian power model needs sigma_P well below P0
    with pytest.raises(DomainError):
        toy_config(sigma_p_watt=0.011)


def test_config_round_trip(tmp_path):
    cfg = toy_config()
    path = tmp_path / "cfg.json"
    io.write_json(path, cfg.to_json_obj())
    again = TrapConfig.from_json_obj(io.read_json(path))
    assert again == cfg
    # a second save is byte-identical
    path2 = tmp_path / "cfg2.json"
    io.write_json(path2, again.to_json_obj())
    assert path.read_bytes() == path2.read_bytes()


def test_config_json_field_names(tmp_path):
    path = tmp_path / "cfg.json"
    io.write_json(path, toy_config().to_json_obj())
    obj = json.loads(path.read_text())
    assert set(obj) == {
        "mass_kg", "omega_hfs_rad_s", "gamma_rad_s", "eta", "u0_joule",
        "omega_x_rad_s", "omega_y_rad_s", "omega_z_rad_s", "p0_watt",
        "sigma_p_watt",
    }


def test_config_load_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        io.read_json(tmp_path / "missing.json")
    assert err.value.kind == "config_not_found"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        io.read_json(bad)
    assert err.value.kind == "parse_error"
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"eta": 1e-4}))
    with pytest.raises(ConfigError) as err:
        TrapConfig.from_json_obj(io.read_json(incomplete))
    assert err.value.kind == "parse_error"


def test_preset_cs133():
    cfg = TrapConfig.load_preset("cs133")
    assert cfg.eta == pytest.approx(1.5291931912736172e-4, rel=1e-12)
    assert cfg.omegas == pytest.approx(
        [TWO_PI * 30.3e3, TWO_PI * 30.3e3, TWO_PI * 2.7e3], rel=1e-12)
    assert cfg.relative_power_spread == pytest.approx(3.8e-4, rel=1e-12)
    assert cfg.u0_joule < 0.0  # red detuned


def test_preset_bbt780():
    cfg = TrapConfig.load_preset("bbt780")
    assert cfg.u0_joule > 0.0  # dark trap, residual center intensity
    assert cfg.eta == pytest.approx(2.5009109883279435e-4, rel=1e-12)


def test_unknown_preset():
    with pytest.raises(ConfigError) as err:
        TrapConfig.load_preset("nope")
    assert err.value.kind == "config_not_found"


def test_fixed_occupation_validation():
    occ = FixedOccupation(1, 2, 3)
    assert occ.numbers.tolist() == [1, 2, 3]
    with pytest.raises(DomainError):
        FixedOccupation(-1, 0, 0)


def test_thermal_occupation_validation():
    with pytest.raises(DomainError):
        ThermalOccupation(-0.1, 0.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ThermalOccupation(0.0, bad, 0.0)


def test_mean_phonon_clamp_boundary():
    omega = TWO_PI * 30e3
    t_edge = HBAR * omega / BOLTZMANN
    assert mean_phonon_number(t_edge, omega) == 0.0
    assert mean_phonon_number(t_edge / 2, omega) == 0.0
    with pytest.raises(DomainError):
        mean_phonon_number(-1e-6, omega)
    with pytest.raises(DomainError):
        mean_phonon_number(1e-6, 0.0)
    for bad in (math.nan, math.inf):  # NaN once passed as the ground state
        with pytest.raises(DomainError):
            mean_phonon_number(bad, omega)


def test_mean_phonon_values():
    assert mean_phonon_number(14e-6, TWO_PI * 30.3e3) == pytest.approx(
        4.313740391510278, rel=1e-12)
    assert mean_phonon_number(14e-6, TWO_PI * 2.7e3) == pytest.approx(
        53.520864393615334, rel=1e-12)


def test_from_temperature_matches_scalar_helper():
    cfg = TrapConfig.load_preset("cs133")
    occ = ThermalOccupation.from_temperature(14e-6, cfg)
    expect = [mean_phonon_number(14e-6, w) for w in cfg.omegas]
    assert occ.means == pytest.approx(expect, rel=1e-12)


@given(st.floats(1e-7, 1e-3), st.floats(1e3, 1e7))
def test_mean_phonon_monotone(temperature, omega):
    n = mean_phonon_number(temperature, omega)
    assert mean_phonon_number(2.0 * temperature, omega) >= n
    assert mean_phonon_number(temperature, 2.0 * omega) <= n


def test_thermal_probability_values():
    assert thermal_probability(0.0, 0) == 1.0
    assert thermal_probability(0.0, 1) == 0.0
    assert thermal_probability(1.0, 0) == 0.5
    with pytest.raises(DomainError):
        thermal_probability(-1.0, 0)
    with pytest.raises(DomainError):
        thermal_probability(1.0, -1)
    with pytest.raises(DomainError):
        thermal_probability(1.0, 0.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 2e3))
def test_thermal_probability_normalizes(nbar):
    cut = brute_force_cutoff(nbar, 1e-9)
    p = thermal_probability(nbar, np.arange(cut + 1))
    # the cutoff targets a 1e-9 tail; summation rounding can land a hair past
    assert abs(1.0 - np.sum(p)) < 5e-9


def test_thermal_moments_brute_force():
    for nbar in (0.0, 0.25, 1.0, 4.313740391510278, 53.520864393615334):
        m1, m2 = thermal_moments(nbar)
        # the sum runs until the dropped tail is far below double precision
        n = np.arange(brute_force_cutoff(nbar, 1e-30) + 1)
        p = thermal_probability(nbar, n)
        assert m1 == pytest.approx(np.sum(p * n), rel=1e-12)
        assert m2 == pytest.approx(np.sum(p * n * n), rel=1e-12)
    # no level ceiling: the closed form holds far past any summable range
    assert thermal_moments(1.6e6) == (1.6e6, 2.0 * 1.6e6 ** 2 + 1.6e6)
    with pytest.raises(DomainError):
        thermal_moments(-1.0)


def test_eta_from_detuning():
    assert eta_from_detuning(10.0, 5.0) == 2.0
    with pytest.raises(DomainError):
        eta_from_detuning(10.0, 0.0)


def test_effective_detuning_single_line():
    det = effective_detuning(100.0, np.array([130.0]), np.array([1.0]))
    assert det == pytest.approx(-30.0)
    with pytest.raises(DomainError):
        effective_detuning(100.0, np.array([100.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        effective_detuning(100.0, np.array([90.0, 110.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        effective_detuning(100.0, np.array([90.0]), np.array([-1.0]))


def test_effective_detuning_inverse_weighting():
    lines = np.array([200.0, 300.0])
    weights = np.array([2.0, 1.0])
    det = effective_detuning(100.0, lines, weights)
    inv = (2.0 / (100.0 - 200.0) + 1.0 / (100.0 - 300.0)) / 3.0
    assert det == pytest.approx(1.0 / inv, rel=1e-12)


def test_cesium_eta_values():
    assert cesium_eta(1052e-9) == pytest.approx(1.5291931912736172e-4, rel=1e-12)
    assert cesium_eta(780e-9) == pytest.approx(2.5009109883279435e-4, rel=1e-12)
    with pytest.raises(DomainError):
        cesium_eta(0.0)


def test_cesium_eta_derivation():
    """Kuhr et al., PRA 72, 023406 (2005): the two hyperfine ground states
    see the trap light with detunings that differ by omega_hfs, so their
    differential light shift is eta times the trap depth with
    eta = omega_hfs / |Delta_eff|. A far-detuned scalar shift sums the D lines
    as w_i / Delta_i, Delta_i = omega_trap - omega_i, with line strengths
    D2 : D1 = 2 : 1, so eta = omega_hfs |sum_i w_i / Delta_i| with weights
    2/3 and 1/3."""
    two_pi_c = TWO_PI * SPEED_OF_LIGHT
    for wavelength in (1064e-9, 1052e-9, 938e-9, 780e-9, 532e-9):
        omega = two_pi_c / wavelength
        inverse = (2.0 / (omega - two_pi_c / CS_D2_WAVELENGTH)
                   + 1.0 / (omega - two_pi_c / CS_D1_WAVELENGTH)) / 3.0
        assert cesium_eta(wavelength) == pytest.approx(
            CS_HYPERFINE_SPLITTING * abs(inverse), rel=1e-13)


def test_dls_sigma_no_power_noise():
    cfg = toy_config(sigma_p_watt=0.0)
    assert dls_sigma(cfg, FixedOccupation(0, 0, 0)) == 0.0
    assert dls_sigma(cfg, FixedOccupation(3, 1, 2)) == 0.0


def test_dls_sigma_zero_point_term():
    cfg = toy_config(u0_joule=0.0)
    got = dls_sigma(cfg, FixedOccupation(0, 0, 0))
    expect = cfg.eta / 8.0 * np.sum(cfg.omegas) * cfg.relative_power_spread
    assert got == pytest.approx(expect, rel=1e-12)


def test_dls_linearity_in_eta_and_spread():
    occ = FixedOccupation(2, 0, 5)
    base = toy_config()
    assert dls_sigma(toy_config(eta=3.0 * base.eta), occ) == pytest.approx(
        3.0 * dls_sigma(base, occ), rel=1e-12)
    assert dls_mean(toy_config(eta=3.0 * base.eta), occ) == pytest.approx(
        3.0 * dls_mean(base, occ), rel=1e-12)
    assert dls_sigma(toy_config(sigma_p_watt=2.0 * base.sigma_p_watt), occ) == pytest.approx(
        2.0 * dls_sigma(base, occ), rel=1e-12)


def test_dls_mean_structure():
    # trap-depth term plus half the phonon term of the sigma expression
    cfg = toy_config()
    occ = FixedOccupation(1, 2, 3)
    phonon = np.sum((occ.numbers + 0.5) * cfg.omegas)
    expect = -cfg.eta * cfg.u0_joule / HBAR + 0.5 * cfg.eta * phonon
    assert dls_mean(cfg, occ) == pytest.approx(expect, rel=1e-12)


def test_thermal_average_dls_sigma_delta_limit():
    cfg = toy_config()
    fixed = abs(dls_sigma(cfg, FixedOccupation(0, 0, 0)))
    avg = thermal_average_dls_sigma(cfg, ThermalOccupation(0.0, 0.0, 0.0))
    assert avg == pytest.approx(fixed, rel=1e-9)


def test_thermal_average_dls_sigma_brute_force():
    cfg = toy_config()
    dist = ThermalOccupation(1.0, 0.0, 0.0)
    total = 0.0
    for n in range(201):
        p = thermal_probability(1.0, n)
        total += p * dls_sigma(cfg, FixedOccupation(n, 0, 0)) ** 2
    assert thermal_average_dls_sigma(cfg, dist) == pytest.approx(
        math.sqrt(total), rel=1e-9)


def test_bbt_sigma_bound_scale():
    cfg = TrapConfig.load_preset("bbt780")
    value = abs(dls_sigma(cfg, FixedOccupation(0, 0, 0)))
    assert value == pytest.approx(3.2596486842558677e-3, rel=1e-12)
