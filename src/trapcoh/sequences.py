"""Pulse sequences, dephasing filter functions, and fringe simulation.

Pi pulses are treated as instantaneous sign flips of the phase
sensitivity s(t) = +/-1. For noise at frequency f (Hz) the normalized
filter function of a sequence with segment boundaries {t_k} (including 0
and T) and alternating signs s_k is

    F(f) = | sum_k s_k (exp(i w t_{k+1}) - exp(i w t_k)) |^2 / (w T)^2,
    w = 2 pi f

so F(0) = 1 for a Ramsey sequence and F -> 0 at the zeros of the
sequence's comb. Two layouts have closed forms, which need a few real
sines per frequency and do not cancel at low f:

    no pulses (ramsey):     F = 4 sin^2(w T / 2) / (w T)^2
    n >= 1 pulses at (j - 1/2) tau, T = n tau (cpmg, spin_echo = cpmg(1, T)):
                            F = 16 sin^4(w tau / 4) [sin(n y) / sin y]^2 / (w T)^2,
                            y = (w tau - pi) / 2

(Cywinski, Lutchyn, Nave & Das Sarma, PRB 77, 174509 (2008)). The squared
ratio is n^2 at the comb peaks, where sin y = 0. A sequence takes the CPMG form
only when its pulses and total time equal, bit for bit, those cpmg()
builds from tau = 2 * first pulse, so cpmg(), spin_echo(), a JSON round
trip of either and `filter --cpmg` qualify. The general sum above handles
any other layout (UDD, hand-edited times) and the static response at f = 0.

A DLS frequency-noise PSD S(f) (units (rad/s)^2/Hz) filtered through a
sequence gives the effective Gaussian channel width

    sigma_eff**2 = integral F(f) S(f) df.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import io
from .coherence import DecayParams, coherence
from .constants import _BLOCK_ELEMENTS
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


def _closed_form(seq: PulseSequence):
    """F(w) at w != 0 for the Ramsey and CPMG layouts; None for any other layout."""
    n, t_tot = seq.n_pulses, seq.t_total_s
    if n == 0:
        return lambda w: 4.0 * np.sin(0.5 * w * t_tot) ** 2 / (w * t_tot) ** 2
    # exact: doubling a float only shifts its exponent
    tau = 2.0 * seq.pi_pulses_s[0]
    if t_tot != n * tau or seq.pi_pulses_s != tuple((j - 0.5) * tau for j in range(1, n + 1)):
        return None

    def comb(w):
        x = w * tau
        # [sin(n y) / sin y]^2 has period pi in y; reducing y to [-pi/2, pi/2]
        # puts every comb peak at sin y == 0 exactly, where the ratio is n
        y = 0.5 * (x - np.pi)
        y -= np.pi * np.round(y / np.pi)
        s = np.sin(y)
        peak = s == 0.0
        ratio = np.where(peak, float(n), np.sin(n * y) / np.where(peak, 1.0, s))
        return 16.0 * np.sin(0.25 * x) ** 4 * ratio ** 2 / (w * t_tot) ** 2
    return comb


def filter_function(seq: PulseSequence, f_hz):
    """Normalized dephasing filter F(f) >= 0; F(0) is the static response."""
    f = np.asarray(f_hz, dtype=float)
    scalar = f.ndim == 0
    f = np.atleast_1d(f)
    # written so that NaN fails it as well
    if not f.min(initial=np.inf) >= 0.0:
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
        # rows are independent, so blocks of frequencies bound the temporaries
        # ((frequency x edge) ones for the general sum) without changing a byte
        w = omega[nz]
        values = np.empty(w.size)
        closed = _closed_form(seq)
        rows = _BLOCK_ELEMENTS if closed else max(1, _BLOCK_ELEMENTS // edges.size)
        for lo in range(0, w.size, rows):
            wb = w[lo:lo + rows]
            if closed:
                values[lo:lo + rows] = closed(wb)
                continue
            phases = np.exp(1j * wb[:, None] * edges[None, :])
            amp = np.sum(signs[None, :] * np.diff(phases, axis=1), axis=1)
            values[lo:lo + rows] = np.abs(amp) ** 2 / (wb * t_tot) ** 2
        out[nz] = values
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


@functools.lru_cache(maxsize=8)
def _grid(f_lo, f_hi, n):
    """filtered_sigma's grid: f, log f, w = 2 pi f and the steps of f, read-only."""
    f = np.logspace(np.log10(f_lo), np.log10(f_hi), n)
    arrays = (f, np.log(f), TWO_PI * f, np.diff(f))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def filtered_sigma(seq: PulseSequence, dls_psd: NoiseSpectrum,
                   band=DEFAULT_BAND, points_per_decade=200) -> float:
    """Effective Gaussian width sqrt(integral F(f) S(f) df) over the band.

    dls_psd is a one-sided PSD of DLS frequency noise in (rad/s)^2/Hz
    (any NoiseSpectrum container is accepted; the kind is not enforced
    here). Trapezoidal integration on a log-spaced grid.

    The grids of the last 8 distinct (band, point count) pairs of at most
    2^16 points are cached read-only (f, log f, 2 pi f and the steps of f),
    and a Ramsey or CPMG layout takes its closed form on the cached 2 pi f.
    The result keeps the bytes of np.trapezoid(filter_function(seq, f) *
    dls_psd.evaluate(f), f) with f = np.logspace of the band.
    """
    try:
        f_lo, f_hi = (float(edge) for edge in band)
    except (TypeError, ValueError):
        raise DomainError("band must be two numbers (f_min, f_max)") from None
    if not 0.0 < f_lo < f_hi < np.inf:
        raise DomainError("band must satisfy 0 < f_min < f_max < inf")
    if not 0.0 < points_per_decade < np.inf:
        raise DomainError("points_per_decade must be positive and finite")
    # in Python floats a band ratio or point count past the float range is inf,
    # not an error; numpy cannot index past intp either
    count = np.ceil(float(np.log10(f_hi / f_lo)) * float(points_per_decade))
    if not count <= np.iinfo(np.intp).max:
        raise DomainError("band and points_per_decade ask for more points than an array holds")
    n = max(int(count), 16)
    # larger grids are built per call, so the cache holds a few MB at most
    grid = _grid if n <= _BLOCK_ELEMENTS else _grid.__wrapped__
    f, log_f, omega, df = grid(f_lo, f_hi, n)
    closed = _closed_form(seq)
    # the same test as filter_function's static response: (w T)^2 grows with w
    if closed is not None and (omega[0] * seq.t_total_s) ** 2 != 0.0:
        response = closed(omega)
    else:
        response = filter_function(seq, f)
    y = response * dls_psd._at_log(log_f)
    # np.trapezoid's own sum
    var = (df * (y[1:] + y[:-1]) / 2.0).sum()
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
