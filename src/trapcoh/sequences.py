"""Pulse sequences, dephasing filter functions, and fringe simulation.

Pi pulses are treated as instantaneous sign flips of the phase
sensitivity s(t) = +/-1. For noise at frequency f (Hz) the normalized
filter function of a sequence with segment boundaries {t_k} (including 0
and T) and alternating signs s_k is

    F(f) = | sum_k s_k (exp(i w t_{k+1}) - exp(i w t_k)) |^2 / (w T)^2,
    w = 2 pi f

so F(0) = 1 for a Ramsey sequence and F -> 0 at the zeros of the
sequence's comb. A DLS frequency-noise PSD S(f) (units (rad/s)^2/Hz)
filtered through a sequence gives the effective Gaussian channel width

    sigma_eff**2 = integral F(f) S(f) df.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import io
from .coherence import DecayParams, coherence
from .errors import DomainError
from .noise import NoiseSpectrum

TWO_PI = 2.0 * np.pi

#: default integration band for filtered_sigma, Hz
DEFAULT_BAND = (1e-4, 1e3)


@dataclass(frozen=True)
class PulseSequence:
    """Free evolution of length t_total_s with pi pulses at pi_pulses_s."""

    t_total_s: float
    pi_pulses_s: tuple

    def __post_init__(self):
        if not 0.0 < self.t_total_s < np.inf:
            raise DomainError("total time must be positive and finite")
        pulses = tuple(float(t) for t in self.pi_pulses_s)
        if any(not 0.0 < t < self.t_total_s for t in pulses):
            raise DomainError("pi pulses must lie strictly inside (0, t_total)")
        if any(b <= a for a, b in zip(pulses, pulses[1:])):
            raise DomainError("pi pulse times must be strictly increasing")
        object.__setattr__(self, "pi_pulses_s", pulses)

    @property
    def n_pulses(self) -> int:
        return len(self.pi_pulses_s)

    def boundaries(self) -> np.ndarray:
        """Segment edges [0, t_1, ..., t_n, T]."""
        return np.concatenate(([0.0], self.pi_pulses_s, [self.t_total_s]))

    def signs(self) -> np.ndarray:
        """Alternating sensitivity signs per segment, starting at +1."""
        return (-1.0) ** np.arange(self.n_pulses + 1)

    def to_json_obj(self):
        return {"t_total_s": self.t_total_s, "pi_pulses_s": list(self.pi_pulses_s)}

    @classmethod
    def from_json_obj(cls, obj):
        with io.parsing("pulse sequence"):
            return cls(float(obj["t_total_s"]), tuple(obj["pi_pulses_s"]))


def ramsey(t_total_s) -> PulseSequence:
    """Free precession, no refocusing pulses."""
    return PulseSequence(t_total_s, ())


def spin_echo(t_total_s) -> PulseSequence:
    """Single pi pulse at the midpoint."""
    return PulseSequence(t_total_s, (0.5 * t_total_s,))


def cpmg(n_pulses, interval_s) -> PulseSequence:
    """n pi pulses at (j - 1/2) * interval, total time n * interval."""
    if n_pulses < 1:
        raise DomainError("CPMG needs at least one pulse")
    if not interval_s > 0.0:
        raise DomainError("pulse interval must be positive")
    pulses = tuple((j - 0.5) * interval_s for j in range(1, n_pulses + 1))
    return PulseSequence(n_pulses * interval_s, pulses)


def filter_function(seq: PulseSequence, f_hz):
    """Normalized dephasing filter F(f) >= 0; F(0) is the static response."""
    f = np.asarray(f_hz, dtype=float)
    scalar = f.ndim == 0
    f = np.atleast_1d(f)
    if np.any(f < 0.0):
        raise DomainError("frequencies must be nonnegative")
    edges = seq.boundaries()
    signs = seq.signs()
    t_tot = seq.t_total_s
    omega = TWO_PI * f
    out = np.empty(f.shape)
    # frequencies whose squared phase accumulation underflows get the
    # static response, else the normalization divides by zero
    zero = (omega * t_tot) ** 2 == 0.0
    if np.any(zero):
        static = np.sum(signs * np.diff(edges)) / t_tot
        out[zero] = static ** 2
    nz = ~zero
    if np.any(nz):
        w = omega[nz][:, None]
        phases = np.exp(1j * w * edges[None, :])
        amp = np.sum(signs[None, :] * np.diff(phases, axis=1), axis=1)
        out[nz] = np.abs(amp) ** 2 / (omega[nz] * t_tot) ** 2
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class FilterCurve:
    """Filter function sampled on a frequency grid."""

    f_hz: np.ndarray
    values: np.ndarray

    COLUMNS = ("f_hz", "filter")


def sample_filter(seq: PulseSequence, f_hz) -> FilterCurve:
    f = np.asarray(f_hz, dtype=float)
    return FilterCurve(f, filter_function(seq, f))


def filtered_sigma(seq: PulseSequence, dls_psd: NoiseSpectrum,
                   band=DEFAULT_BAND, points_per_decade=200) -> float:
    """Effective Gaussian width sqrt(integral F(f) S(f) df) over the band.

    dls_psd is a one-sided PSD of DLS frequency noise in (rad/s)^2/Hz
    (any NoiseSpectrum container is accepted; the kind is not enforced
    here). Trapezoidal integration on a log-spaced grid.
    """
    f_lo, f_hi = band
    if not 0.0 < f_lo < f_hi:
        raise DomainError("band must satisfy 0 < f_min < f_max")
    n = max(int(np.ceil(np.log10(f_hi / f_lo) * points_per_decade)), 16)
    f = np.logspace(np.log10(f_lo), np.log10(f_hi), n)
    integrand = filter_function(seq, f) * dls_psd.evaluate(f)
    var = np.trapezoid(integrand, f)
    return float(np.sqrt(max(var, 0.0)))


@dataclass(frozen=True)
class FringeSample:
    """Binomially sampled Ramsey-type fringe."""

    phases_rad: np.ndarray
    successes: np.ndarray
    shots: int

    @property
    def population(self) -> np.ndarray:
        return self.successes / float(self.shots)

    @property
    def sigma(self) -> np.ndarray:
        """Binomial standard error per point (floored for empty bins)."""
        p = self.population
        return np.sqrt(np.maximum(p * (1.0 - p), 0.25 / self.shots) / self.shots)


def simulate_fringe(params: DecayParams, seq: PulseSequence, phases_rad,
                    shots, seed) -> FringeSample:
    """Sample P(phi) = (1 + C cos phi) / 2 with C = C(t_total), binomial shots.

    Deterministic for identical (seed, phases, shots).
    """
    phases = np.asarray(phases_rad, dtype=float)
    shots = int(shots)
    if shots < 1:
        raise DomainError("need at least one shot per phase")
    contrast = float(coherence(params, seq.t_total_s))
    prob = 0.5 * (1.0 + contrast * np.cos(phases))
    rng = np.random.default_rng(seed)
    successes = rng.binomial(shots, prob)
    return FringeSample(phases, successes, shots)
