"""The three-axis budget kernels against exact oracles, within derived bounds.

The kernels run on Python floats, with squares and cubes as products. Each
oracle below computes the kernel's formula exactly, in fractions.Fraction,
from the same float inputs: the trap's fields, the phonon numbers, the mean
occupations the kernel was given, and the spectra as TrapNoise looks them
up on a float. A square root is checked by its square, which is exact.

Every result must lie within gamma(k) = k u / (1 - k u), u = 2**-53, of the
exact value, where k counts the roundings on the longest chain of
operations any term of the kernel goes through (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 3). The bound is relative
to the sum of the terms' magnitudes, so it holds where terms of both signs
cancel: dls_sigma at the bbt780 occupations (5, 3, 5) is 4.5e-7 rad/s, 6e-5
of its terms. Over the 12,000 cases the largest error of each kernel is 0.3
to 0.6 of its bound.
"""

import collections
import dataclasses
import functools
import math
from fractions import Fraction as F

import numpy as np

from trapcoh import (FixedOccupation, NoiseSpectrum, ThermalOccupation, TrapConfig, TrapNoise,
                     classical_thermal_rate, dls_mean, dls_sigma, thermal_average_dls_sigma,
                     thermal_average_pjr, total_jump_rate)
from trapcoh.constants import BOLTZMANN, HBAR
from trapcoh.trap import AXES

N_CASES = 12_000
SPRINGS = ("rin_40db", "rin_free", "rin_flat_140")
U = F(1, 2 ** 53)
PI, HBAR_, KB = F(math.pi), F(HBAR), F(BOLTZMANN)


@functools.cache
def gamma(k):
    return k * U / (1 - k * U)


def omegas(cfg):
    return (cfg.omega_x_rad_s, cfg.omega_y_rad_s, cfg.omega_z_rad_s)


# The oracles' parts that depend on the trap, or the trap and the noise, alone
# are kept for the most recent traps: two of three cases are on a preset.
Trap = collections.namedtuple("Trap", "ws two_hbar_ws depth rel eta slopes base base_scale")


@functools.lru_cache(maxsize=64)
def trap_parts(cfg):
    """Exactly: omega_q, 2 hbar omega_q, -eta U0 / hbar, rel = sigma_P / P0, eta,
    the slopes rel eta omega_q / 4 of dls_sigma in n_q, dls_sigma at n_q = 0 and
    the sum of its terms' magnitudes."""
    ws = [F(w) for w in omegas(cfg)]
    eta, rel = F(cfg.eta), F(cfg.sigma_p_watt) / F(cfg.p0_watt)
    depth = -eta * F(cfg.u0_joule) / HBAR_
    slopes = [rel * eta * w / 4 for w in ws]
    return Trap(ws, [2 * HBAR_ * w for w in ws], depth, rel, eta, slopes,
                rel * depth + sum(slopes) / 2, abs(rel * depth) + sum(slopes) / 2)


@functools.lru_cache(maxsize=64)
def coefficients(cfg, noise):
    """Per axis (a, b, S_k, omega**2 S_x) exactly: a = pi omega**2 S_k / 8 and
    b = pi M omega**3 S_x / (2 hbar), with the spectra as TrapNoise looks them up
    on a float, in the angular convention."""
    out = []
    for axis, w in zip(AXES, omegas(cfg)):
        s_k = F(float(noise.spring_omega(axis, 2.0 * w)))
        s_x = F(float(noise.position_omega(axis, w)))
        w2 = F(w) * F(w)
        out.append((PI * w2 / 8 * s_k, PI / (2 * HBAR_) * F(cfg.species.mass_kg) * w2 * F(w) * s_x,
                    s_k, w2 * s_x))
    return out


def exact_nbars(cfg, temperature_k):
    """Per axis max(0, x - 1/2), x = kB T / (2 hbar omega), and its bound: three
    roundings in x, one in the difference, relative to x + 1/2."""
    kt = KB * F(temperature_k)
    xs = [kt / d for d in trap_parts(cfg).two_hbar_ws]
    return [(max(F(0), x - F(1, 2)), gamma(4) * (x + F(1, 2))) for x in xs]


def exact_dls(cfg, occ):
    """(dls_mean, its bound), (dls_sigma, its bound).

    dls_mean = -eta U0 / hbar + (eta / 2) sum_q (n_q + 1/2) omega_q. The depth
    term takes eta U0, / hbar and the sum: 3; a phonon term its product, two of
    the three additions, the product with eta / 2 and the sum: 5. dls_sigma
    has eta / 4 for eta / 2, then sigma_P / P0 and the product with it: 7. Each
    bound is relative to the sum of the terms' magnitudes."""
    t = trap_parts(cfg)
    phonon = t.eta * sum(F(2 * n + 1, 2) * w for n, w in zip((occ.n_x, occ.n_y, occ.n_z), t.ws))
    mean, sigma = t.depth + phonon / 2, t.depth + phonon / 4
    return ((mean, gamma(5) * (abs(t.depth) + phonon / 2)),
            (sigma * t.rel, gamma(7) * (abs(t.depth) + phonon / 4) * t.rel))


def exact_thermal_average_dls_sigma(cfg, nbars):
    """Q**2 = M**2 + V, M = dls_sigma at the mean occupations and V its variance,
    and the bound on the square of the kernel's result Q', compared exactly,
    with no square root.

    M: the depth term takes eta U0, / hbar, the sum with the omega terms, the
    product with rel and rel's own rounding, then the three additions of the
    slopes times nbar: 8; an omega term two sums, its product with eta / 8 and
    the same four: 9; a slope term rel, eta, omega, nbar and three additions: 7.
    So |M' - M| <= gamma(9) S, S the sum of the magnitudes, and its square is
    within gamma(19) S**2. V: a squared slope 7, nbar (nbar + 1) 2, their
    product 1 and two additions: gamma(12) V. With the last addition, the
    argument of the square root is within D = gamma(20) (S**2 + V) of Q**2, and
    the root's own rounding puts Q'**2 within gamma(2) (Q**2 + D) of it."""
    t = trap_parts(cfg)
    shift = sum(s * n for s, n in zip(t.slopes, nbars))
    mean, scale = t.base + shift, t.base_scale + shift
    var = sum(s * s * n * (n + 1) for s, n in zip(t.slopes, nbars))
    square, spread = mean * mean + var, gamma(20) * (scale * scale + var)
    return square, spread + gamma(2) * (square + spread)


def exact_total_jump_rate(cfg, noise, occ):
    """Per axis a ((n + 1)**2 - n) + b (2 n + 1) and its bound. a: omega**2, pi
    times it, S_k: 3, and the product with the level factor; b: pi / (2 hbar), M,
    the cube (2), their product and S_x: 6, and the product with 2 n + 1; then
    the sum: 8. Both terms are nonnegative."""
    return [(a * ((n + 1) ** 2 - n) + b * (2 * n + 1), gamma(8))
            for (a, b, _, _), n in zip(coefficients(cfg, noise), (occ.n_x, occ.n_y, occ.n_z))]


def exact_classical_thermal_rate(cfg, noise, temperature_k):
    """The rate and its relative bound. Intensity: pi / (8 hbar hbar) 2,
    (kB T)**2 3, their product, the product with sum_k and two additions in it:
    9, then the sum with pointing: 10. Pointing: pi / (2 hbar hbar) 2, M 1,
    kB T 2, the product with sum_x 1, a term of sum_x (omega omega S_x) 2 and two
    additions in it: 10, then the sum: 11. All terms are positive."""
    kt = KB * F(temperature_k)
    intensity, pointing = classical_parts(cfg, noise)
    return intensity * (kt / 2) ** 2 + pointing * kt, gamma(11)


@functools.lru_cache(maxsize=64)
def classical_parts(cfg, noise):
    """pi / (8 hbar**2) sum_q S_k(2 omega_q) and
    pi M / (2 hbar**2) sum_q omega_q**2 S_x(omega_q), exactly."""
    parts = coefficients(cfg, noise)
    return (PI / (8 * HBAR_ * HBAR_) * sum(p[2] for p in parts),
            PI / (2 * HBAR_ * HBAR_) * F(cfg.species.mass_kg) * sum(p[3] for p in parts))


def exact_thermal_average_pjr(cfg, noise, nbars):
    """sum_q a (E[n^2] + E[n] + 1) + b (2 E[n] + 1), with E[n] = nbar and
    E[n^2] = 2 nbar^2 + nbar, so that a's factor is 2 nbar (nbar + 1) + 1, and
    its relative bound. a 3, m2 = 2 nbar nbar + nbar 2 and (m2 + m1) + 1 2, the
    product: 8; b 6, 2 m1 + 1 1, the product: 8; the sum of a's and b's parts,
    and two of the three additions over the axes: 11. All terms are
    nonnegative."""
    return sum(a * (2 * n * (n + 1) + 1) + b * (2 * n + 1)
               for (a, b, _, _), n in zip(coefficients(cfg, noise), nbars)), gamma(11)


def test_axis_kernels_within_their_rounding_bounds():
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
        nbars = [F(n) for n in (dist.nbar_x, dist.nbar_y, dist.nbar_z)]
        checks = [("from_temperature", float(got), *want)
                  for got, want in zip(nbars, exact_nbars(cfg, temperature))]
        (mean, mean_bound), (sigma, sigma_bound) = exact_dls(cfg, occ)
        checks += [("dls_mean", dls_mean(cfg, occ), mean, mean_bound),
                   ("dls_sigma", dls_sigma(cfg, occ), sigma, sigma_bound)]
        want, rel = exact_classical_thermal_rate(cfg, noise, temperature)
        checks.append(("classical_thermal_rate", classical_thermal_rate(cfg, noise, temperature),
                       want, rel * want))
        want, rel = exact_thermal_average_pjr(cfg, noise, nbars)
        checks.append(("thermal_average_pjr", thermal_average_pjr(cfg, noise, dist), want,
                       rel * want))
        for got, (want, rel) in zip(dataclasses.astuple(total_jump_rate(cfg, noise, occ)),
                                    exact_total_jump_rate(cfg, noise, occ)):
            checks.append(("total_jump_rate", got, want, rel * want))
        for name, got, want, bound in checks:
            if not abs(F(got) - want) <= bound:
                wrong.append((name, case, got, float(want)))
        square, bound = exact_thermal_average_dls_sigma(cfg, nbars)
        got = F(thermal_average_dls_sigma(cfg, dist))
        if not abs(got * got - square) <= bound:
            wrong.append(("thermal_average_dls_sigma", case, float(got), math.sqrt(square)))
    assert not wrong, f"{len(wrong)} results outside their bounds, first: {wrong[:3]}"


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
