"""Phonon jumping induced by trap intensity and pointing noise.

Transition rates for a single trapped atom on one axis (angular-frequency
PSD convention, S(omega) = S(f) / (2 pi), applied before these formulas
via noise.psd_f_to_omega):

    intensity (spring-constant) noise, n -> n +/- 2:
        R = (pi * omega**2 / 16) * S_k(2 omega) * (n + 1 +/- 1) * (n +/- 1)
    pointing (position) noise, n -> n +/- 1:
        R = (pi / (2 hbar)) * M * omega**3 * S_x(omega) * (n + 1/2 +/- 1/2)

The total leaving rate from level n on one axis is

    R_q = (pi * omega**2 / 8) * S_k(2 omega) * ((n + 1)**2 - n)
        + (pi / (2 hbar)) * M * omega**3 * S_x(omega) * (2 n + 1)

and the decay channel uses the sum over the three axes. Any jump scrambles
the accumulated qubit phase, so the coherence survival is exp(-R t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .constants import BOLTZMANN, HBAR
from .errors import ConfigError, DomainError
from .noise import POSITION, SPRING_FRACTIONAL, TWO_PI, NoiseSpectrum, psd_f_to_omega
from .trap import AXES, FixedOccupation, ThermalOccupation, TrapConfig


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
        for axis, spec in self._spring.items():
            if axis not in AXES:
                raise ConfigError(f"unknown axis {axis!r}")
            if spec.kind != SPRING_FRACTIONAL:
                raise ConfigError(f"spring spectrum for {axis!r} has kind {spec.kind!r}")
        for axis, spec in self._position.items():
            if axis not in AXES:
                raise ConfigError(f"unknown axis {axis!r}")
            if spec.kind != POSITION:
                raise ConfigError(f"position spectrum for {axis!r} has kind {spec.kind!r}")

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

    def axis_spectra(self, omegas):
        """(S_k(2 omega_q), S_x(omega_q)) per axis, as 3-vectors in angular
        convention, for the axis trap frequencies omegas (rad/s).

        Each distinct spectrum is evaluated once, at every axis that shares it.
        """
        omegas = np.asarray(omegas, dtype=float)
        return (self._per_axis(self._spring, "spring", 2.0 * omegas),
                self._per_axis(self._position, "position", omegas))

    def _per_axis(self, table, label, omegas):
        specs = [self._get(table, axis, label) for axis in AXES]
        out = np.empty(len(AXES))
        for spec in {id(spec): spec for spec in specs}.values():
            shared = np.array([other is spec for other in specs])
            out[shared] = spec.evaluate(omegas[shared] / TWO_PI)
        return psd_f_to_omega(out)


def intensity_jump_rate(omega_rad_s, s_k_omega, n, step) -> float:
    """Two-phonon transition rate n -> n + step for step in {+2, -2} (1/s).

    s_k_omega is the fractional spring-constant PSD at 2*omega, already in
    the angular convention.
    """
    if step not in (2, -2):
        raise DomainError("intensity noise drives steps of +/-2 only")
    if n < 0 or int(n) != n:
        raise DomainError("phonon number must be a nonnegative integer")
    if s_k_omega < 0.0:
        raise DomainError("PSD value must be nonnegative")
    if step == 2:
        factor = (n + 2) * (n + 1)
    else:
        factor = n * (n - 1)
    return math.pi * omega_rad_s ** 2 / 16.0 * s_k_omega * factor


def pointing_jump_rate(omega_rad_s, mass_kg, s_x_omega, n, step) -> float:
    """One-phonon transition rate n -> n + step for step in {+1, -1} (1/s)."""
    if step not in (1, -1):
        raise DomainError("pointing noise drives steps of +/-1 only")
    if n < 0 or int(n) != n:
        raise DomainError("phonon number must be a nonnegative integer")
    if s_x_omega < 0.0:
        raise DomainError("PSD value must be nonnegative")
    factor = n + 1 if step == 1 else n
    return math.pi / (2.0 * HBAR) * mass_kg * omega_rad_s ** 3 * s_x_omega * factor


def axis_jump_rate(omega_rad_s, mass_kg, s_k_omega, s_x_omega, n) -> float:
    """Total leaving rate from level n on one axis (1/s)."""
    intensity = math.pi * omega_rad_s ** 2 / 8.0 * s_k_omega * ((n + 1) ** 2 - n)
    pointing = math.pi / (2.0 * HBAR) * mass_kg * omega_rad_s ** 3 * s_x_omega * (2 * n + 1)
    return intensity + pointing


def total_jump_rate(cfg: TrapConfig, noise: TrapNoise, occ: FixedOccupation) -> AxisRates:
    """Per-axis leaving rates at fixed phonon numbers."""
    s_k, s_x = noise.axis_spectra(cfg.omegas)
    rates = axis_jump_rate(cfg.omegas, cfg.species.mass_kg, s_k, s_x, occ.numbers)
    return AxisRates(*rates.tolist())


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
    s_k, s_x = noise.axis_spectra(cfg.omegas)
    intensity = math.pi / (8.0 * HBAR ** 2) * (kt / 2.0) ** 2 * s_k.sum()
    pointing = math.pi / (2.0 * HBAR ** 2) * cfg.species.mass_kg * kt * (cfg.omegas ** 2 * s_x).sum()
    return intensity + pointing


def thermal_average_pjr(cfg: TrapConfig, noise: TrapNoise, dist: ThermalOccupation) -> float:
    """Exact thermal average of the total jump rate (1/s).

    The rate is additive across axes and polynomial in each n_q, so the
    probability-weighted sum over the product distribution reduces to the
    per-axis moments E[n] = nbar and E[n^2] = 2 nbar^2 + nbar of the
    geometric distribution (thermal_moments), taken as 3-vectors over the
    axes: E[(n+1)^2 - n] = E[n^2] + E[n] + 1 and E[2n + 1] = 2 E[n] + 1.
    """
    s_k, s_x = noise.axis_spectra(cfg.omegas)
    omega, m1 = cfg.omegas, dist.means
    m2 = 2.0 * m1 * m1 + m1
    intensity = math.pi * omega ** 2 / 8.0 * s_k * (m2 + m1 + 1.0)
    pointing = (math.pi / (2.0 * HBAR) * cfg.species.mass_kg * omega ** 3
                * s_x * (2.0 * m1 + 1.0))
    return (intensity + pointing).sum()


def survival_probability(rate, t):
    """No-jump probability exp(-rate * t); rate in 1/s, t in s."""
    if rate < 0.0:
        raise DomainError("rate must be nonnegative")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise DomainError("time must be nonnegative")
    return np.exp(-rate * t) + 0.0


def first_jump_survival_mc(rate, n_traj, seed, times) -> np.ndarray:
    """Monte-Carlo fraction of trajectories with no jump before each time.

    Draws one exponential waiting time per trajectory; deterministic and
    bit-identical for identical (seed, n_traj, times).
    """
    if rate < 0.0:
        raise DomainError("rate must be nonnegative")
    if n_traj < 1:
        raise DomainError("need at least one trajectory")
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise DomainError("times must be nonnegative")
    if rate == 0.0:
        return np.ones(times.shape)
    rng = np.random.default_rng(seed)
    jumps = np.sort(rng.exponential(1.0 / rate, size=int(n_traj)))
    jumped = np.searchsorted(jumps, times, side="right")
    return 1.0 - jumped / float(n_traj)
