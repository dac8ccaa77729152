"""Trap configuration and differential light shift (DLS) statistics.

SI units throughout: angular frequencies in rad/s, energies in J, powers
in W. For a qubit encoded in the two hyperfine ground states, held in an
optical trap of depth U0 with oscillation frequencies omega_q and phonon
numbers n_q, the DLS between the qubit states is

    dls_mean = -eta * U0 / hbar + (eta / 2) * sum_q (n_q + 1/2) * omega_q

with eta = |omega_hfs / Delta_eff|. A Gaussian spread sigma_P of the trap
power P0 maps onto a Gaussian DLS spread; the phonon term picks up an
extra factor 1/2 because omega_q scales as sqrt(P):

    dls_sigma = [-eta * U0 / hbar + (eta / 4) * sum_q (n_q + 1/2) * omega_q]
                * sigma_P / P0

dls_sigma is signed; decay-model consumers use its magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants, io
from .errors import DomainError

AXES = ("x", "y", "z")


@dataclass(frozen=True)
class AtomSpecies:
    """Atomic constants needed by the decay model."""

    mass_kg: float
    omega_hfs_rad_s: float
    gamma_rad_s: float = 0.0  # excited-state linewidth, used by scattering ops only

    def __post_init__(self):
        if not self.mass_kg > 0.0:
            raise DomainError("atomic mass must be positive")
        if not self.omega_hfs_rad_s > 0.0:
            raise DomainError("hyperfine splitting must be positive")
        if self.gamma_rad_s < 0.0:
            raise DomainError("linewidth must be nonnegative")


def cesium_species() -> AtomSpecies:
    return AtomSpecies(
        mass_kg=constants.CS133_MASS,
        omega_hfs_rad_s=constants.CS_HYPERFINE_SPLITTING,
        gamma_rad_s=constants.CS_D2_LINEWIDTH,
    )


@dataclass(frozen=True)
class TrapConfig:
    """One trap scenario: species, relative shift ratio, depth, frequencies, power.

    u0_joule is the potential energy at the trap center relative to free
    space: negative for an attractive (red-detuned) trap, positive for the
    residual center intensity of a repulsive (blue-detuned) box or bottle.
    """

    species: AtomSpecies
    eta: float
    u0_joule: float
    omega_x_rad_s: float
    omega_y_rad_s: float
    omega_z_rad_s: float
    p0_watt: float
    sigma_p_watt: float

    def __post_init__(self):
        if not self.eta >= 0.0:
            raise DomainError("eta must be nonnegative")
        for ax in AXES:
            if not getattr(self, f"omega_{ax}_rad_s") > 0.0:
                raise DomainError(f"omega_{ax} must be positive")
        if not self.p0_watt > 0.0:
            raise DomainError("trap power must be positive")
        if self.sigma_p_watt < 0.0:
            raise DomainError("power spread must be nonnegative")
        if not self.sigma_p_watt / self.p0_watt < 0.5:
            raise DomainError("power spread must satisfy sigma_P / P0 < 0.5")

    @property
    def omegas(self) -> np.ndarray:
        return np.array([self.omega_x_rad_s, self.omega_y_rad_s, self.omega_z_rad_s])

    @property
    def relative_power_spread(self) -> float:
        return self.sigma_p_watt / self.p0_watt

    def to_json_obj(self):
        return {
            "mass_kg": self.species.mass_kg,
            "omega_hfs_rad_s": self.species.omega_hfs_rad_s,
            "gamma_rad_s": self.species.gamma_rad_s,
            "eta": self.eta,
            "u0_joule": self.u0_joule,
            "omega_x_rad_s": self.omega_x_rad_s,
            "omega_y_rad_s": self.omega_y_rad_s,
            "omega_z_rad_s": self.omega_z_rad_s,
            "p0_watt": self.p0_watt,
            "sigma_p_watt": self.sigma_p_watt,
        }

    @classmethod
    def from_json_obj(cls, obj):
        with io.parsing("trap config"):
            species = AtomSpecies(
                mass_kg=float(obj["mass_kg"]),
                omega_hfs_rad_s=float(obj["omega_hfs_rad_s"]),
                gamma_rad_s=float(obj.get("gamma_rad_s", 0.0)),
            )
            return cls(
                species=species,
                eta=float(obj["eta"]),
                u0_joule=float(obj["u0_joule"]),
                omega_x_rad_s=float(obj["omega_x_rad_s"]),
                omega_y_rad_s=float(obj["omega_y_rad_s"]),
                omega_z_rad_s=float(obj["omega_z_rad_s"]),
                p0_watt=float(obj["p0_watt"]),
                sigma_p_watt=float(obj["sigma_p_watt"]),
            )

    @classmethod
    def load_preset(cls, name):
        """Load a bundled preset by bare name, e.g. 'cs133' or 'bbt780'."""
        return cls.from_json_obj(io.read_preset(name))


@dataclass(frozen=True)
class FixedOccupation:
    """Definite phonon numbers on the three axes."""

    n_x: int
    n_y: int
    n_z: int

    def __post_init__(self):
        for ax in AXES:
            n = getattr(self, f"n_{ax}")
            if int(n) != n or n < 0:
                raise DomainError("phonon numbers must be nonnegative integers")

    @property
    def numbers(self) -> np.ndarray:
        return np.array([self.n_x, self.n_y, self.n_z], dtype=float)


@dataclass(frozen=True)
class ThermalOccupation:
    """Independent thermal (geometric) phonon distributions per axis."""

    nbar_x: float
    nbar_y: float
    nbar_z: float

    def __post_init__(self):
        for ax in AXES:
            if not 0.0 <= getattr(self, f"nbar_{ax}") < math.inf:
                raise DomainError("mean phonon numbers must be nonnegative and finite")

    @property
    def means(self) -> np.ndarray:
        return np.array([self.nbar_x, self.nbar_y, self.nbar_z])

    @classmethod
    def from_temperature(cls, temperature_k, cfg: TrapConfig):
        nb = [mean_phonon_number(temperature_k, w) for w in cfg.omegas]
        return cls(*nb)


def eta_from_detuning(omega_hfs, detuning):
    """Relative DLS ratio eta = |omega_hfs / Delta| for detuning Delta (rad/s)."""
    if detuning == 0.0:
        raise DomainError("detuning must be nonzero")
    return abs(omega_hfs / detuning)


def effective_detuning(omega_trap, line_omegas, weights):
    """Single effective detuning for a multi-line light shift.

    The shift sums line contributions proportional to w_i / Delta_i, so the
    equivalent single detuning satisfies 1/Delta_eff = sum_i w_i / Delta_i
    with the weights normalized to 1.
    """
    line_omegas = np.asarray(line_omegas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if line_omegas.shape != weights.shape or line_omegas.size == 0:
        raise DomainError("need one weight per line")
    if np.any(weights < 0.0) or weights.sum() <= 0.0:
        raise DomainError("weights must be nonnegative and not all zero")
    weights = weights / weights.sum()
    det = omega_trap - line_omegas
    if np.any(det == 0.0):
        raise DomainError("trap frequency coincides with a line")
    inv = np.sum(weights / det)
    if inv == 0.0:
        raise DomainError("line contributions cancel, no effective detuning")
    return 1.0 / inv


def cesium_eta(trap_wavelength_m):
    """eta for a cesium ground-state qubit in a trap at the given wavelength.

    Uses the D1/D2 doublet with line-strength weights (1/3, 2/3) on the
    inverse detunings.
    """
    if not trap_wavelength_m > 0.0:
        raise DomainError("wavelength must be positive")
    two_pi_c = 2.0 * math.pi * constants.SPEED_OF_LIGHT
    omega_trap = two_pi_c / trap_wavelength_m
    lines = np.array([two_pi_c / constants.CS_D2_WAVELENGTH,
                      two_pi_c / constants.CS_D1_WAVELENGTH])
    weights = np.array([constants.D2_WEIGHT, constants.D1_WEIGHT])
    det = effective_detuning(omega_trap, lines, weights)
    return eta_from_detuning(constants.CS_HYPERFINE_SPLITTING, det)


def dls_mean(cfg: TrapConfig, occ: FixedOccupation) -> float:
    """Mean differential light shift (rad/s) at fixed phonon numbers."""
    phonon = np.sum((occ.numbers + 0.5) * cfg.omegas)
    return float(-cfg.eta * cfg.u0_joule / constants.HBAR + 0.5 * cfg.eta * phonon)


def dls_sigma(cfg: TrapConfig, occ: FixedOccupation) -> float:
    """Signed DLS spread (rad/s) from the trap-power spread, fixed phonons."""
    phonon = np.sum((occ.numbers + 0.5) * cfg.omegas)
    core = -cfg.eta * cfg.u0_joule / constants.HBAR + 0.25 * cfg.eta * phonon
    return float(core * cfg.relative_power_spread)


def mean_phonon_number(temperature_k, omega_rad_s) -> float:
    """Mean occupancy from temperature via (nbar + 1/2) hbar omega = kB T / 2."""
    if not 0.0 <= temperature_k < math.inf:
        raise DomainError("temperature must be nonnegative and finite")
    if not omega_rad_s > 0.0:
        raise DomainError("trap frequency must be positive")
    return max(0.0, constants.BOLTZMANN * temperature_k / (2.0 * constants.HBAR * omega_rad_s) - 0.5)


def thermal_probability(nbar, n):
    """Geometric (thermal) occupancy probability P(n) = nbar^n / (nbar+1)^(n+1)."""
    if nbar < 0.0:
        raise DomainError("mean phonon number must be nonnegative")
    n = np.asarray(n)
    if np.any(n < 0) or not np.issubdtype(n.dtype, np.integer) and np.any(n != np.floor(n)):
        raise DomainError("phonon number must be a nonnegative integer")
    nf = n.astype(float)
    if nbar == 0.0:
        return np.where(nf == 0.0, 1.0, 0.0) + 0.0
    # log space keeps large-n tails finite
    return np.exp(nf * math.log(nbar) - (nf + 1.0) * math.log(nbar + 1.0))


def thermal_moments(nbar):
    """First and second moments (E[n], E[n^2]) = (nbar, 2 nbar^2 + nbar) of the
    geometric occupancy distribution, exact in closed form."""
    if nbar < 0.0:
        raise DomainError("mean phonon number must be nonnegative")
    return float(nbar), float(2.0 * nbar * nbar + nbar)


def thermal_average_dls_sigma(cfg: TrapConfig, dist: ThermalOccupation) -> float:
    """sqrt of the thermally averaged dls_sigma**2 (rad/s).

    dls_sigma is affine in the per-axis phonon numbers, so the average of
    its square reduces to the per-axis means nbar and variances
    nbar (nbar + 1) of the geometric distribution.
    """
    rel = cfg.relative_power_spread
    base = rel * (-cfg.eta * cfg.u0_joule / constants.HBAR
                  + 0.125 * cfg.eta * np.sum(cfg.omegas))
    slope = rel * 0.25 * cfg.eta * cfg.omegas  # per-axis coefficient of n_q
    nbar = dist.means
    var_n = nbar * (nbar + 1.0)
    mean_sigma = base + np.sum(slope * nbar)
    return float(math.sqrt(mean_sigma ** 2 + np.sum(slope ** 2 * var_n)))
