"""The temperature conventions behind the thermal rows, derived and pinned.

Two conventions live side by side. `mean_phonon_number` sets
(nbar + 1/2) hbar omega = kB T / 2, and `classical_thermal_rate` uses the
same (kB T / 2)^2; the `pjr_thermal_*` report rows pass with it. Kuhr's
Ramsey thermometry factor, RAMSEY_THERMOMETRY_FACTOR = 0.97, is instead the
1/e time of the envelope of a thermal ensemble with nbar hbar omega -> kB T.
These tests derive that factor from the geometric law's generating function,
and pin how far the code's nbar is from it (a factor 2) without changing
either.
"""

import cmath
import math

import pytest

from trapcoh import (RAMSEY_THERMOMETRY_FACTOR, NoiseSpectrum, ThermalOccupation,
                     TrapConfig, TrapNoise, classical_thermal_rate, mean_phonon_number,
                     ramsey_t2star_from_temperature)
from trapcoh.constants import BOLTZMANN, HBAR

#: the 1/e point of [1 + a^2]^(-3/2), Kuhr et al., PRA 72, 023406 (2005)
KUHR = math.sqrt(math.exp(2.0 / 3.0) - 1.0)


def envelope(t, nbars, eta, omegas):
    """|E[exp(i delta t)]| over geometric phonon numbers: the DLS slope in
    n_q is eta omega_q / 2 (dls_mean), and E[z^n] = 1 / (1 + nbar (1 - z))."""
    value = 1.0
    for nbar, w in zip(nbars, omegas):
        value /= abs(1.0 + nbar * (1.0 - cmath.exp(0.5j * eta * w * t)))
    return value


def one_over_e_time(nbars, eta, omegas):
    """First t where the envelope falls to 1/e, by bisection (it decreases
    until eta omega t / 2 nears pi, far past 1/e for nbar >> 1)."""
    lo, hi = 0.0, 1e-6
    while envelope(hi, nbars, eta, omegas) > math.exp(-1.0):
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if envelope(mid, nbars, eta, omegas) > math.exp(-1.0) else (lo, mid)
    return lo


def bose_einstein(temperature_k, omegas):
    return [1.0 / math.expm1(HBAR * w / (BOLTZMANN * temperature_k)) for w in omegas]


@pytest.fixture(scope="module")
def cs133():
    return TrapConfig.load_preset("cs133")


def test_generating_function_envelope_gives_kuhrs_factor_in_the_classical_limit(cs133):
    # with nbar hbar omega = kB T on every axis, 1 + nbar (1 - z) -> 1 - i a
    # with a = eta kB T t / (2 hbar), so the envelope is [1 + a^2]^(-3/2) and
    # its 1/e point is a = sqrt(e^(2/3) - 1) = 0.9735
    eta, omegas = cs133.eta, cs133.omegas.tolist()
    gaps = []
    for temperature in (1e-3, 1e-2, 1e-1):
        kt = BOLTZMANN * temperature
        t = one_over_e_time([kt / (HBAR * w) for w in omegas], eta, omegas)
        gaps.append(abs(t * eta * kt / (2.0 * HBAR) - KUHR))
    assert gaps[0] < 1e-3 and gaps[2] < 1e-5
    assert gaps[0] > gaps[1] > gaps[2]          # it converges as nbar grows
    assert RAMSEY_THERMOMETRY_FACTOR == round(KUHR, 2)
    # Bose-Einstein nbar is kB T / (hbar omega) - 1/2 + O(hbar omega / kB T):
    # at 14 uK its envelope already falls to 1/e at ramsey_t2star_from_temperature
    t_be = one_over_e_time(bose_einstein(14e-6, omegas), eta, omegas)
    assert t_be == pytest.approx(6.951e-3, rel=1e-3)
    assert t_be == pytest.approx(ramsey_t2star_from_temperature(14e-6, eta), rel=5e-3)


def test_code_nbar_is_half_the_classical_occupation(cs133):
    # the code's convention, exactly: (nbar + 1/2) hbar omega = kB T / 2
    for temperature in (14e-6, 1e-3):
        for w in cs133.omegas.tolist():
            nbar = mean_phonon_number(temperature, w)
            assert (nbar + 0.5) * HBAR * w == pytest.approx(
                BOLTZMANN * temperature / 2.0, rel=1e-14)
    # so nbar + 1/2 is half of Bose-Einstein's in the classical limit, and the
    # envelope it gives decays 2x slower than the one Kuhr's factor stands on
    eta, omegas = cs133.eta, cs133.omegas.tolist()
    code = ThermalOccupation.from_temperature(14e-6, cs133).means.tolist()
    t_code = one_over_e_time(code, eta, omegas)
    t_be = one_over_e_time(bose_einstein(14e-6, omegas), eta, omegas)
    assert t_code == pytest.approx(13.96e-3, rel=1e-3)
    assert t_code / ramsey_t2star_from_temperature(14e-6, eta) == pytest.approx(2.017, rel=1e-3)
    assert t_code / t_be == pytest.approx(2.0, rel=5e-3)
    hot = ThermalOccupation.from_temperature(1e-3, cs133).means.tolist()
    ratio = one_over_e_time(hot, eta, omegas) / one_over_e_time(
        bose_einstein(1e-3, omegas), eta, omegas)
    assert ratio == pytest.approx(2.0, rel=1e-5)


def test_classical_thermal_rate_is_the_kt_over_2_form_the_report_rows_need(cs133):
    # the per-level rate at the mean thermal energy (n + 1/2) hbar omega = kB T / 2,
    # with (n + 1)^2 - n = (n + 1/2)^2 + 3/4 taken as (n + 1/2)^2 (hot atoms)
    spring = NoiseSpectrum.load_preset("rin_40db")
    position = NoiseSpectrum.flat(1e-24, kind="position")
    noise = TrapNoise.uniform(spring=spring, position=position)
    mass = cs133.species.mass_kg
    for temperature in (14e-6, 1e-3):
        expect = 0.0
        for axis, w in zip("xyz", cs133.omegas.tolist()):
            half = BOLTZMANN * temperature / (2.0 * HBAR * w)      # n + 1/2
            expect += (math.pi * w * w / 8.0 * noise.spring_omega(axis, 2.0 * w) * half * half
                       + math.pi / (2.0 * HBAR) * mass * w ** 3 * noise.position_omega(axis, w)
                       * 2.0 * half)
        assert classical_thermal_rate(cs133, noise, temperature) == pytest.approx(expect, rel=1e-12)
    # report's pjr_thermal_40db and pjr_thermal_free rows (6.5 and 0.5 /s within
    # 15% at 14 uK) pass with (kB T / 2)^2; the nbar hbar omega = kB T form,
    # (kB T)^2, is the rate at twice the temperature, 4x, and fails both
    for preset, row in (("rin_40db", 6.5), ("rin_free", 0.5)):
        spring_only = TrapNoise.uniform(spring=NoiseSpectrum.load_preset(preset))
        rate = classical_thermal_rate(cs133, spring_only, 14e-6)
        assert rate == pytest.approx(row, rel=0.15)
        as_kt = classical_thermal_rate(cs133, spring_only, 28e-6)
        assert as_kt == pytest.approx(4.0 * rate, rel=1e-12)
        assert as_kt != pytest.approx(row, rel=0.15)
