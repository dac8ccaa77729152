"""Combined qubit coherence model and its Monte-Carlo / ODE cross-checks.

The two decay channels act independently, so the fringe contrast is

    C(t) = exp(-sigma_dls**2 * t**2 / 2) * exp(-pjr * t)

a Gaussian channel from the shot-to-shot differential-light-shift spread
sigma_dls (rad/s) and an exponential channel from the phonon jumping rate
pjr (1/s). The 1/e coherence time solves sigma**2 t**2 / 2 + R t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import io
from .constants import BOLTZMANN, HBAR
from .errors import DomainError

#: calibration factor of the Ramsey-contrast thermometry relation
RAMSEY_THERMOMETRY_FACTOR = 0.97

#: validity window for normalized coherence samples
COHERENCE_MIN = -0.05
COHERENCE_MAX = 1.05


@dataclass(frozen=True)
class DecayParams:
    """Parameters of the two-channel decay law."""

    sigma_dls: float  # rad/s, Gaussian channel width (>= 0)
    pjr: float        # 1/s, exponential channel rate (>= 0)

    def __post_init__(self):
        # written so that NaN fails the comparisons as well
        if not (0.0 <= self.sigma_dls < math.inf and 0.0 <= self.pjr < math.inf):
            raise DomainError("decay parameters must be finite and nonnegative")

    def to_json_obj(self):
        return {"sigma_dls_rad_s": self.sigma_dls, "pjr_per_s": self.pjr}

    @classmethod
    def from_json_obj(cls, obj):
        with io.parsing("decay parameters"):
            return cls(float(obj["sigma_dls_rad_s"]), float(obj["pjr_per_s"]))


def coherence(params: DecayParams, t):
    """Fringe contrast C(t) of the two-channel model, t >= 0 (s)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise DomainError("time must be nonnegative")
    return np.exp(-0.5 * (params.sigma_dls * t) ** 2 - params.pjr * t) + 0.0


def t2_time(params: DecayParams) -> float:
    """1/e coherence time: positive root of sigma**2 t**2 / 2 + R t = 1.

    Uses t2 = 2 / (R + sqrt(R**2 + 2 sigma**2)), the root with the
    numerator rationalized: the textbook (-R + sqrt(...)) / sigma**2
    cancels when sigma << R. The square root is a hypot, so sigma**2
    cannot underflow to zero.
    """
    s, r = params.sigma_dls, params.pjr
    if s == 0.0 and r == 0.0:
        raise DomainError("no decay channel, 1/e time undefined")
    return 2.0 / (r + math.hypot(r, math.sqrt(2.0) * s))


def t2_gradient(params: DecayParams):
    """(d t2 / d sigma, d t2 / d R) of the closed form, for error propagation."""
    s, r = params.sigma_dls, params.pjr
    t2 = t2_time(params)
    d = math.hypot(r, math.sqrt(2.0) * s)
    # t2 = 2 / (R + d), so d t2 / d (R + d) = -t2**2 / 2
    return -t2 * t2 * s / d, -0.5 * t2 * t2 * (1.0 + r / d)


def lifetime_corrected_t2(t2_measured, atom_lifetime) -> float:
    """Remove the atom-loss contribution: 1/T2 = 1/T2_meas - 1/lifetime."""
    if not 0.0 < t2_measured:
        raise DomainError("measured coherence time must be positive")
    if not t2_measured < atom_lifetime:
        raise DomainError("measured coherence time must be below the atom lifetime")
    return 1.0 / (1.0 / t2_measured - 1.0 / atom_lifetime)


def temperature_from_ramsey_t2star(t2star, eta) -> float:
    """Atom temperature from the Ramsey 1/e time: T = 0.97 * 2 hbar / (eta kB T2*)."""
    if not t2star > 0.0:
        raise DomainError("coherence time must be positive")
    if not eta > 0.0:
        raise DomainError("eta must be positive")
    return RAMSEY_THERMOMETRY_FACTOR * 2.0 * HBAR / (eta * BOLTZMANN * t2star)


def ramsey_t2star_from_temperature(temperature_k, eta) -> float:
    """Inverse of temperature_from_ramsey_t2star (the relation is self-inverse)."""
    if not temperature_k > 0.0:
        raise DomainError("temperature must be positive")
    return temperature_from_ramsey_t2star(temperature_k, eta)


@dataclass(frozen=True)
class ScatteringParams:
    """Off-resonant scattering figures for a far-detuned trap beam.

    t2_s is None when the scattering rate is zero (unbounded coherence
    time); near_resonance flags |detuning| < 10 linewidths, where the
    adiabatic formulas degrade.
    """

    light_shift_rad_s: float
    scattering_rate_per_s: float
    t2_s: float | None
    near_resonance: bool


def scattering_params(rabi_rad_s, detuning_rad_s, linewidth_rad_s) -> ScatteringParams:
    """Adiabatic-elimination results for one far-detuned beam.

    light shift Omega**2 / (4 Delta), scattering rate Omega**2 Gamma /
    (4 Delta**2), coherence 1/e time 2 / rate.
    """
    if detuning_rad_s == 0.0:
        raise DomainError("detuning must be nonzero")
    if rabi_rad_s < 0.0 or linewidth_rad_s < 0.0:
        raise DomainError("Rabi frequency and linewidth must be nonnegative")
    shift = rabi_rad_s ** 2 / (4.0 * detuning_rad_s)
    rate = rabi_rad_s ** 2 * linewidth_rad_s / (4.0 * detuning_rad_s ** 2)
    t2 = None if rate == 0.0 else 2.0 / rate
    return ScatteringParams(
        light_shift_rad_s=shift,
        scattering_rate_per_s=rate,
        t2_s=t2,
        near_resonance=abs(detuning_rad_s) < 10.0 * linewidth_rad_s,
    )


def scattering_decay_rate_rk4(rabi_rad_s, detuning_rad_s, linewidth_rad_s,
                              dt=None, t_total=None, n_samples=400) -> float:
    """Coherence decay rate from fixed-step integration of the two-level system.

    Propagates the coupled linear equations for the ground-state coherence
    c_ab and the cross coherence c_ae,

        d c_ab / dt = -i (Omega/2) c_ae
        d c_ae / dt = -i (Omega/2) c_ab + (i Delta - Gamma/2) c_ae

    with a fixed-step fourth-order scheme, then extracts the exponential
    decay rate of |c_ab| by a least-squares slope of log |c_ab|. Serves as
    the independent cross-check of scattering_params; it does not assume
    the adiabatic elimination.
    """
    if detuning_rad_s == 0.0:
        raise DomainError("detuning must be nonzero")
    if not rabi_rad_s > 0.0 or not linewidth_rad_s > 0.0:
        raise DomainError("need positive Rabi frequency and linewidth")
    scale = max(abs(detuning_rad_s), linewidth_rad_s, rabi_rad_s)
    if dt is None:
        dt = 0.02 / scale
    if t_total is None:
        # window sized so log|c_ab| drops by an O(0.25) measurable amount;
        # only the window, never the extracted rate, uses this scaling
        t_total = 2.0 * detuning_rad_s ** 2 / (rabi_rad_s ** 2 * linewidth_rad_s)
    a = np.array([[0.0, -0.5j * rabi_rad_s],
                  [-0.5j * rabi_rad_s, 1j * detuning_rad_s - 0.5 * linewidth_rad_s]])
    adt = a * dt
    step = (np.eye(2) + adt + adt @ adt / 2.0
            + adt @ adt @ adt / 6.0 + adt @ adt @ adt @ adt / 24.0)
    n_sub = max(1, int(round(t_total / (n_samples * dt))))
    hop = np.linalg.matrix_power(step, n_sub)
    state = np.array([1.0 + 0.0j, 0.0 + 0.0j])
    ts = np.empty(n_samples)
    amps = np.empty(n_samples)
    for k in range(n_samples):
        state = hop @ state
        ts[k] = (k + 1) * n_sub * dt
        amps[k] = abs(state[0])
    # skip the initial transient (fast eigenmode dies off at Gamma/2)
    keep = ts > max(20.0 / linewidth_rad_s, 0.05 * t_total)
    if keep.sum() < 10 or np.any(amps[keep] <= 0.0):
        raise DomainError("integration window too short to extract a rate")
    slope = np.polyfit(ts[keep], np.log(amps[keep]), 1)[0]
    return float(-slope)


@dataclass(frozen=True)
class CoherenceSeries:
    """Sampled coherence curve with per-point 1-sigma uncertainties."""

    t_s: np.ndarray
    coherence: np.ndarray
    sigma: np.ndarray

    COLUMNS = ("t_s", "coherence", "sigma")

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.t_s, dtype=float))
        c = np.atleast_1d(np.asarray(self.coherence, dtype=float))
        s = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if not (t.shape == c.shape == s.shape) or t.ndim != 1 or t.size == 0:
            raise DomainError("series needs matching 1-d t, coherence, sigma arrays")
        if not np.all(np.isfinite([t, c, s])):
            raise DomainError("series values must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("times must be strictly increasing")
        if np.any(t < 0.0):
            raise DomainError("times must be nonnegative")
        if np.any(c < COHERENCE_MIN) or np.any(c > COHERENCE_MAX):
            raise DomainError(
                f"coherence values outside [{COHERENCE_MIN}, {COHERENCE_MAX}]")
        if np.any(s < 0.0):
            raise DomainError("uncertainties must be nonnegative")
        object.__setattr__(self, "t_s", t)
        object.__setattr__(self, "coherence", c)
        object.__setattr__(self, "sigma", s)

    def __len__(self):
        return self.t_s.size

    def to_json_obj(self):
        return {"points": [[float(t), float(c), float(s)]
                           for t, c, s in zip(self.t_s, self.coherence, self.sigma)]}

    @classmethod
    def from_json_obj(cls, obj):
        with io.parsing("series object"):
            pts = obj["points"]
            t = np.array([p[0] for p in pts], dtype=float)
            c = np.array([p[1] for p in pts], dtype=float)
            s = np.array([p[2] for p in pts], dtype=float)
        return cls(t, c, s)


def analytic_series(params: DecayParams, times) -> CoherenceSeries:
    """Noise-free coherence curve on the given strictly increasing grid."""
    times = np.asarray(times, dtype=float)
    c = coherence(params, times)
    return CoherenceSeries(times, c, np.zeros_like(c))


_MC_CHUNK = 65536  # trajectories per accumulation block, fixed for determinism


def gaussian_channel_mc(sigma_dls, n_traj, seed, times) -> CoherenceSeries:
    """Monte-Carlo Gaussian dephasing channel.

    Each trajectory draws a frozen detuning from N(0, sigma_dls); the
    ensemble mean of cos(delta * t) estimates exp(-sigma**2 t**2 / 2).
    The per-point sigma is the standard error of that mean. Bit-identical
    for identical (seed, n_traj, times).
    """
    if sigma_dls < 0.0:
        raise DomainError("sigma must be nonnegative")
    if n_traj < 2:
        raise DomainError("need at least two trajectories")
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise DomainError("times must be nonnegative")
    rng = np.random.default_rng(seed)
    n_traj = int(n_traj)
    total = np.zeros(times.size)
    total_sq = np.zeros(times.size)
    done = 0
    while done < n_traj:
        block = min(_MC_CHUNK, n_traj - done)
        deltas = rng.normal(0.0, sigma_dls, size=block) if sigma_dls > 0.0 else np.zeros(block)
        phases = np.cos(np.outer(deltas, times))
        total += phases.sum(axis=0)
        total_sq += (phases * phases).sum(axis=0)
        done += block
    mean = total / n_traj
    var = np.maximum(total_sq / n_traj - mean ** 2, 0.0)
    sem = np.sqrt(var / n_traj)
    return CoherenceSeries(times, np.clip(mean, COHERENCE_MIN, COHERENCE_MAX), sem)
