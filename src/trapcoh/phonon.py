"""Phonon jumping induced by trap intensity and pointing noise.

Transition rates for a single trapped atom on one axis (Savard, O'Hara &
Thomas, PRA 56, R1095 (1997); angular-frequency PSD convention,
S(omega) = S(f) / (2 pi), applied before these formulas via
noise.psd_f_to_omega):

    intensity (spring-constant) noise, n -> n +/- 2:
        R = (pi * omega**2 / 16) * S_k(2 omega) * (n + 1 +/- 1) * (n +/- 1)
    pointing (position) noise, n -> n +/- 1:
        R = (pi / (2 hbar)) * M * omega**3 * S_x(omega) * (n + 1/2 +/- 1/2)

The total leaving rate from level n on one axis is

    R_q = a * ((n + 1)**2 - n) + b * (2 n + 1),
    a = (pi * omega**2 / 8) * S_k(2 omega),  b = (pi / (2 hbar)) * M * omega**3 * S_x(omega)

and the decay channel uses the sum over the three axes. Any jump scrambles
the accumulated qubit phase, so the coherence survival is exp(-R t). Each
formula is written once, on Python floats, with squares and cubes as
products: the budget does not depend on numpy's SIMD dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .constants import _BLOCK_ELEMENTS, BOLTZMANN, HBAR
from .errors import ConfigError, DomainError
from .noise import POSITION, SPRING_FRACTIONAL, TWO_PI, NoiseSpectrum, psd_f_to_omega
from .trap import AXES, FixedOccupation, ThermalOccupation, TrapConfig, thermal_moments

# distinct trap-frequency triples whose axis terms one TrapNoise keeps
_MEMO_SIZE = 4


@dataclass(frozen=True)
class AxisRates:
    """Per-axis phonon jumping rates in 1/s."""

    x: float
    y: float
    z: float

    @property
    def total(self) -> float:
        return self.x + self.y + self.z


class TrapNoise:
    """Per-axis spring-constant and position noise spectra.

    spring entries must be of kind 'spring_fractional' (units 1/Hz) and
    position entries of kind 'position' (units m^2/Hz). An axis without an
    entry is a configuration error; use TrapNoise.uniform() to share one
    spectrum across axes, with omitted inputs treated as zero noise.
    """

    def __init__(self, spring: Mapping[str, NoiseSpectrum], position: Mapping[str, NoiseSpectrum]):
        self._spring = dict(spring)
        self._position = dict(position)
        for label, kind, table in (("spring", SPRING_FRACTIONAL, self._spring),
                                   ("position", POSITION, self._position)):
            for axis, spec in table.items():
                if axis not in AXES:
                    raise ConfigError(f"unknown axis {axis!r}")
                if spec.kind != kind:
                    raise ConfigError(f"{label} spectrum for {axis!r} has kind {spec.kind!r}")
        self._memo = {}

    @classmethod
    def uniform(cls, spring: NoiseSpectrum | None = None,
                position: NoiseSpectrum | None = None) -> "TrapNoise":
        if spring is None:
            spring = NoiseSpectrum.zero(SPRING_FRACTIONAL)
        if position is None:
            position = NoiseSpectrum.zero(POSITION)
        return cls({ax: spring for ax in AXES}, {ax: position for ax in AXES})

    def _get(self, table, axis, label):
        if axis not in AXES:
            raise ConfigError(f"unknown axis {axis!r}")
        try:
            return table[axis]
        except KeyError:
            raise ConfigError(f"missing {label} spectrum for axis {axis!r}",
                              kind="missing_spectrum") from None

    def spring_omega(self, axis, omega_rad_s):
        """S_k(omega) in angular convention at angular frequency omega."""
        spec = self._get(self._spring, axis, "spring")
        return psd_f_to_omega(spec.evaluate(omega_rad_s / TWO_PI))

    def position_omega(self, axis, omega_rad_s):
        """S_x(omega) in angular convention at angular frequency omega."""
        spec = self._get(self._position, axis, "position")
        return psd_f_to_omega(spec.evaluate(omega_rad_s / TWO_PI))

    def _axis_terms(self, cfg: TrapConfig):
        """Per axis (omega, S_k(2 omega), S_x(omega)) as Python floats, the
        spectra in angular convention, for the trap frequencies of cfg.

        The terms are kept for up to 4 distinct frequency triples (all are
        dropped when a fifth comes) and returned again: they cannot go stale,
        because a spectrum's lookup reads only the tables built when the
        spectrum was constructed.
        """
        key = (cfg.omega_x_rad_s, cfg.omega_y_rad_s, cfg.omega_z_rad_s)
        terms = self._memo.get(key)
        if terms is None:
            terms = tuple((w, float(self.spring_omega(axis, 2.0 * w)),
                           float(self.position_omega(axis, w)))
                          for axis, w in zip(AXES, map(float, key)))
            if len(self._memo) >= _MEMO_SIZE:
                self._memo.clear()
            self._memo[key] = terms
        return terms


def intensity_jump_rate(omega_rad_s, s_k_omega, n, step) -> float:
    """Two-phonon transition rate n -> n + step for step in {+2, -2} (1/s).

    s_k_omega is the fractional spring-constant PSD at 2*omega, already in
    the angular convention.
    """
    if step not in (2, -2):
        raise DomainError("intensity noise drives steps of +/-2 only")
    if not 0 <= n < math.inf or int(n) != n:
        raise DomainError("phonon number must be a nonnegative integer")
    if not 0.0 <= s_k_omega < math.inf:
        raise DomainError("PSD value must be finite and nonnegative")
    factor = (n + 2) * (n + 1) if step == 2 else n * (n - 1)
    return math.pi * omega_rad_s ** 2 / 16.0 * s_k_omega * factor


def pointing_jump_rate(omega_rad_s, mass_kg, s_x_omega, n, step) -> float:
    """One-phonon transition rate n -> n + step for step in {+1, -1} (1/s)."""
    if step not in (1, -1):
        raise DomainError("pointing noise drives steps of +/-1 only")
    if not 0 <= n < math.inf or int(n) != n:
        raise DomainError("phonon number must be a nonnegative integer")
    if not 0.0 <= s_x_omega < math.inf:
        raise DomainError("PSD value must be finite and nonnegative")
    factor = n + 1 if step == 1 else n
    return math.pi / (2.0 * HBAR) * mass_kg * omega_rad_s ** 3 * s_x_omega * factor


def _coefficients(omega_rad_s, mass_kg, s_k_omega, s_x_omega):
    """(a, b) of one axis's leaving rate a ((n + 1)**2 - n) + b (2 n + 1):
    a = pi omega**2 S_k(2 omega) / 8 and b = pi M omega**3 S_x(omega) / (2 hbar)."""
    square = omega_rad_s * omega_rad_s
    return (math.pi * square / 8.0 * s_k_omega,
            math.pi / (2.0 * HBAR) * mass_kg * (square * omega_rad_s) * s_x_omega)


def axis_jump_rate(omega_rad_s, mass_kg, s_k_omega, s_x_omega, n) -> float:
    """Total leaving rate from level n on one axis (1/s)."""
    # written so that NaN fails the comparisons as well
    if not (0.0 < omega_rad_s < math.inf and 0.0 < mass_kg < math.inf):
        raise DomainError("trap frequency and mass must be positive and finite")
    if not 0 <= n < math.inf or int(n) != n:
        raise DomainError("phonon number must be a nonnegative integer")
    if not (0.0 <= s_k_omega < math.inf and 0.0 <= s_x_omega < math.inf):
        raise DomainError("PSD values must be finite and nonnegative")
    a, b = _coefficients(omega_rad_s, mass_kg, s_k_omega, s_x_omega)
    return a * ((n + 1) * (n + 1) - n) + b * (2 * n + 1)


def total_jump_rate(cfg: TrapConfig, noise: TrapNoise, occ: FixedOccupation) -> AxisRates:
    """Per-axis leaving rates at fixed phonon numbers (axis_jump_rate)."""
    return AxisRates(*[axis_jump_rate(w, cfg.species.mass_kg, sk, sx, n) for (w, sk, sx), n
                       in zip(noise._axis_terms(cfg), (occ.n_x, occ.n_y, occ.n_z))])


def classical_thermal_rate(cfg: TrapConfig, noise: TrapNoise, temperature_k) -> float:
    """Classical-regime thermal jumping rate (1/s).

    Evaluates the per-level rate at the mean thermal energy, using
    (nbar + 1/2) hbar omega = kB T / 2:

        R = (pi / (8 hbar**2)) * (kB T / 2)**2 * sum_q S_k(2 omega_q)
          + (pi / (2 hbar**2)) * M * kB * T * sum_q omega_q**2 * S_x(omega_q)

    This is the standard hot-atom estimate. Note it is not the mean of the
    per-level rate over the thermal distribution: the intensity channel is
    quadratic in n, and averaging over the geometric distribution roughly
    doubles that term (see thermal_average_pjr).
    """
    if not temperature_k > 0.0:
        raise DomainError("temperature must be positive")
    kt = BOLTZMANN * temperature_k
    sum_k = sum_x = 0.0
    for w, sk, sx in noise._axis_terms(cfg):
        sum_k += sk
        sum_x += w * w * sx
    intensity = math.pi / (8.0 * (HBAR * HBAR)) * (kt * kt / 4.0) * sum_k
    pointing = math.pi / (2.0 * (HBAR * HBAR)) * cfg.species.mass_kg * kt * sum_x
    return intensity + pointing


def thermal_average_pjr(cfg: TrapConfig, noise: TrapNoise, dist: ThermalOccupation) -> float:
    """Exact thermal average of the total jump rate (1/s).

    The rate is additive across axes and polynomial in each n_q, so the
    probability-weighted sum over the product distribution reduces to the
    per-axis moments E[n] = nbar and E[n^2] = 2 nbar^2 + nbar of the
    geometric distribution (thermal_moments):
    E[(n+1)^2 - n] = E[n^2] + E[n] + 1 and E[2n + 1] = 2 E[n] + 1.
    """
    total = 0.0
    means = (dist.nbar_x, dist.nbar_y, dist.nbar_z)
    for (w, sk, sx), nbar in zip(noise._axis_terms(cfg), means):
        m1, m2 = thermal_moments(nbar)
        a, b = _coefficients(w, cfg.species.mass_kg, sk, sx)
        total += a * (m2 + m1 + 1.0) + b * (2.0 * m1 + 1.0)
    return total


def survival_probability(rate, t):
    """No-jump probability exp(-rate * t); rate in 1/s, t in s."""
    if not 0.0 <= rate < math.inf:
        raise DomainError("rate must be finite and nonnegative")
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < math.inf)):
        raise DomainError("time must be finite and nonnegative")
    return np.exp(-rate * t) + 0.0


def first_jump_survival_mc(rate, n_traj, seed, times) -> np.ndarray:
    """Monte-Carlo fraction of trajectories with no jump before each time.

    Draws one exponential waiting time per trajectory, _BLOCK_ELEMENTS at a
    time, and counts the jumps before each time; deterministic and
    bit-identical for identical (seed, n_traj, times).
    """
    # written so that NaN fails the comparisons as well
    if not 0.0 <= rate < math.inf:
        raise DomainError("rate must be finite and nonnegative")
    if not n_traj >= 1:
        raise DomainError("need at least one trajectory")
    if n_traj % 1 != 0:
        raise DomainError("number of trajectories must be an integer")
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times < math.inf)):
        raise DomainError("times must be finite and nonnegative")
    if rate == 0.0:
        return np.ones(times.shape)
    rng = np.random.default_rng(seed)
    n_traj = int(n_traj)
    jumped = np.zeros(times.shape, dtype=np.intp)
    for done in range(0, n_traj, _BLOCK_ELEMENTS):
        jumps = np.sort(rng.exponential(1.0 / rate, size=min(_BLOCK_ELEMENTS, n_traj - done)))
        jumped += np.searchsorted(jumps, times, side="right")
    return 1.0 - jumped / float(n_traj)
