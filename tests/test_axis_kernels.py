"""The three-axis budget kernels against numpy oracles, bit for bit.

The kernels loop over x, y, z on Python floats. Each oracle below is the
numpy form they replaced, on 3-vectors, with the spectra looked up by array
evaluate calls, one per distinct spectrum, so every value must keep its bytes:
results are compared with ==, never within a tolerance. Where a kernel moves
by one ulp (say x * x for a numpy scalar's ** 2, which calls libm pow, or
libm pow for numpy's array cube) some of the 12,000 cases fail.
"""

import dataclasses
import math

import numpy as np

from trapcoh import (FixedOccupation, NoiseSpectrum, ThermalOccupation, TrapConfig, TrapNoise,
                     classical_thermal_rate, dls_mean, dls_sigma, thermal_average_dls_sigma,
                     thermal_average_pjr, total_jump_rate)
from trapcoh.constants import BOLTZMANN, HBAR
from trapcoh.noise import TWO_PI, psd_f_to_omega
from trapcoh.trap import AXES

N_CASES = 12_000
SPRINGS = ("rin_40db", "rin_free", "rin_flat_140")


def oracle_nbars(temperature_k, cfg):
    return [max(0.0, BOLTZMANN * temperature_k / (2.0 * HBAR * w) - 0.5) for w in cfg.omegas]


def oracle_spectra(noise, omegas):
    """(S_k(2 omega), S_x(omega)) per axis as 3-vectors in angular convention:
    each distinct spectrum evaluated once, as an array, at every axis sharing it."""
    def per_axis(table, omegas):
        specs = [table[axis] for axis in AXES]
        out = np.empty(len(AXES))
        for spec in {id(spec): spec for spec in specs}.values():
            shared = np.array([other is spec for other in specs])
            out[shared] = spec.evaluate(omegas[shared] / TWO_PI)
        return psd_f_to_omega(out)
    return per_axis(noise._spring, 2.0 * omegas), per_axis(noise._position, omegas)


def oracle_dls_mean(cfg, occ):
    phonon = np.sum((occ.numbers + 0.5) * cfg.omegas)
    return float(-cfg.eta * cfg.u0_joule / HBAR + 0.5 * cfg.eta * phonon)


def oracle_dls_sigma(cfg, occ):
    phonon = np.sum((occ.numbers + 0.5) * cfg.omegas)
    core = -cfg.eta * cfg.u0_joule / HBAR + 0.25 * cfg.eta * phonon
    return float(core * cfg.relative_power_spread)


def oracle_thermal_average_dls_sigma(cfg, dist):
    rel = cfg.relative_power_spread
    base = rel * (-cfg.eta * cfg.u0_joule / HBAR + 0.125 * cfg.eta * np.sum(cfg.omegas))
    slope = rel * 0.25 * cfg.eta * cfg.omegas
    nbar = dist.means
    var_n = nbar * (nbar + 1.0)
    mean_sigma = base + np.sum(slope * nbar)
    return float(math.sqrt(mean_sigma ** 2 + np.sum(slope ** 2 * var_n)))


def oracle_axis_jump_rate(omega_rad_s, mass_kg, s_k_omega, s_x_omega, n):
    intensity = math.pi * omega_rad_s ** 2 / 8.0 * s_k_omega * ((n + 1) ** 2 - n)
    pointing = math.pi / (2.0 * HBAR) * mass_kg * omega_rad_s ** 3 * s_x_omega * (2 * n + 1)
    return intensity + pointing


def oracle_total_jump_rate(cfg, noise, occ):
    s_k, s_x = oracle_spectra(noise, cfg.omegas)
    return oracle_axis_jump_rate(cfg.omegas, cfg.species.mass_kg, s_k, s_x,
                                 occ.numbers).tolist()


def oracle_classical_thermal_rate(cfg, noise, temperature_k):
    kt = BOLTZMANN * temperature_k
    s_k, s_x = oracle_spectra(noise, cfg.omegas)
    intensity = math.pi / (8.0 * HBAR ** 2) * (kt / 2.0) ** 2 * s_k.sum()
    pointing = (math.pi / (2.0 * HBAR ** 2) * cfg.species.mass_kg * kt
                * (cfg.omegas ** 2 * s_x).sum())
    return intensity + pointing


def oracle_thermal_average_pjr(cfg, noise, dist):
    s_k, s_x = oracle_spectra(noise, cfg.omegas)
    omega, m1 = cfg.omegas, dist.means
    m2 = 2.0 * m1 * m1 + m1
    intensity = math.pi * omega ** 2 / 8.0 * s_k * (m2 + m1 + 1.0)
    pointing = (math.pi / (2.0 * HBAR) * cfg.species.mass_kg * omega ** 3
                * s_x * (2.0 * m1 + 1.0))
    return (intensity + pointing).sum()


def same(got, want):
    """Equal bytes: == and the same sign of zero."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_axis_kernels_keep_the_bytes_of_the_numpy_forms():
    rng = np.random.default_rng(22)
    traps = [TrapConfig.load_preset(p) for p in ("cs133", "bbt780")]
    springs = [NoiseSpectrum.load_preset(s) for s in SPRINGS]
    positions = [None] + [NoiseSpectrum.flat(level, kind="position", f_min=1.0, f_max=1e7)
                          for level in 10.0 ** rng.uniform(-30.0, -20.0, 3)]
    noises = [TrapNoise.uniform(spring=s, position=x) for s in springs for x in positions]
    # a spectrum of its own on each axis
    noises.append(TrapNoise(dict(zip(AXES, springs)), dict(zip(AXES, positions[1:]))))
    wrong = []
    for case in range(N_CASES):
        cfg = traps[case % 2]
        if case % 3 == 0:
            # axis frequencies off the presets, so that the per-axis squares,
            # cubes and sums see many values
            w = cfg.omegas * 10.0 ** rng.uniform(-0.5, 0.5, 3)
            cfg = dataclasses.replace(cfg, omega_x_rad_s=float(w[0]), omega_y_rad_s=float(w[1]),
                                      omega_z_rad_s=float(w[2]))
        noise = noises[int(rng.integers(len(noises)))]
        temperature = float(np.exp(rng.uniform(math.log(0.5e-6), math.log(1e-3))))
        occ = FixedOccupation(*(int(n) for n in rng.integers(0, 31, 3)))
        dist = ThermalOccupation.from_temperature(temperature, cfg)
        want_dist = ThermalOccupation(*oracle_nbars(temperature, cfg))
        pairs = [
            ("from_temperature", [dist.nbar_x, dist.nbar_y, dist.nbar_z],
             [want_dist.nbar_x, want_dist.nbar_y, want_dist.nbar_z]),
            ("dls_mean", [dls_mean(cfg, occ)], [oracle_dls_mean(cfg, occ)]),
            ("dls_sigma", [dls_sigma(cfg, occ)], [oracle_dls_sigma(cfg, occ)]),
            ("thermal_average_dls_sigma", [thermal_average_dls_sigma(cfg, dist)],
             [oracle_thermal_average_dls_sigma(cfg, want_dist)]),
            ("total_jump_rate", list(dataclasses.astuple(total_jump_rate(cfg, noise, occ))),
             oracle_total_jump_rate(cfg, noise, occ)),
            ("classical_thermal_rate", [classical_thermal_rate(cfg, noise, temperature)],
             [oracle_classical_thermal_rate(cfg, noise, temperature)]),
            ("thermal_average_pjr", [thermal_average_pjr(cfg, noise, dist)],
             [oracle_thermal_average_pjr(cfg, noise, want_dist)]),
        ]
        for name, got, want in pairs:
            if not all(same(g, w) for g, w in zip(got, want)):
                wrong.append((name, case, got, want))
    assert not wrong, f"{len(wrong)} results moved, first: {wrong[:3]}"


def test_axis_kernels_return_python_floats():
    cfg = TrapConfig.load_preset("cs133")
    noise = TrapNoise.uniform(spring=NoiseSpectrum.load_preset("rin_40db"))
    dist = ThermalOccupation.from_temperature(14e-6, cfg)
    occ = FixedOccupation(3, 4, 5)
    values = [dist.nbar_x, dist.nbar_y, dist.nbar_z, dls_mean(cfg, occ), dls_sigma(cfg, occ),
              thermal_average_dls_sigma(cfg, dist), classical_thermal_rate(cfg, noise, 14e-6),
              thermal_average_pjr(cfg, noise, dist),
              *dataclasses.astuple(total_jump_rate(cfg, noise, occ))]
    assert all(type(v) is float for v in values)
    assert type(dist.means) is np.ndarray and type(occ.numbers) is np.ndarray
    assert type(cfg.omegas) is np.ndarray
