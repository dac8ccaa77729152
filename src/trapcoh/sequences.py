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
any other layout (UDD, hand-edited times). Where (w T)^2 underflows, f = 0
included, F is the static response; where it overflows, w = inf included,
every layout has F = 0, its limit. filter_function and filtered_sigma share
one routine from w to F that makes these choices.

A DLS frequency-noise PSD S(f) (units (rad/s)^2/Hz) filtered through a
sequence gives the effective Gaussian channel width

    sigma_eff**2 = integral F(f) S(f) df.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import io
from .coherence import DecayParams, coherence
from .constants import _BLOCK_ELEMENTS
from .errors import DomainError
from .noise import TWO_PI, NoiseSpectrum

#: default integration band for filtered_sigma, Hz
DEFAULT_BAND = (1e-4, 1e3)

# np.iinfo costs microseconds a call
_INTP_MAX = np.iinfo(np.intp).max


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
    """F(w) where 0 < (w T)^2 < inf for the Ramsey and CPMG layouts; None for others."""
    n, t_tot = seq.n_pulses, seq.t_total_s
    if n == 0:
        return lambda w: 4.0 * np.sin(0.5 * w * t_tot) ** 2 / (w * t_tot) ** 2
    # exact: doubling a float only shifts its exponent
    tau = 2.0 * seq.pi_pulses_s[0]
    if t_tot != n * tau or seq.pi_pulses_s != tuple((j - 0.5) * tau for j in range(1, n + 1)):
        return None

    def comb(w):
        x = w * tau
        # sin^4 by squaring twice, as `** 4` is a libm pow per point
        out = np.sin(0.25 * x)
        out *= out
        out *= out
        out *= 16.0
        # for n = 1 the ratio sin(n y) / sin y is exactly 1
        if n > 1:
            # [sin(n y) / sin y]^2 has period pi in y; reducing y to [-pi/2, pi/2]
            # puts every comb peak at sin y == 0 exactly, where the ratio is n
            y = 0.5 * (x - np.pi)
            y -= np.pi * np.round(y / np.pi)
            s = np.sin(y)
            ratio = np.divide(np.sin(n * y), s, out=np.full(s.shape, float(n)), where=s != 0.0)
            ratio *= ratio
            out *= ratio
        out /= (w * t_tot) ** 2
        return out
    return comb


@np.errstate(all="ignore")
def _response(seq: PulseSequence, w):
    """F at the 1-D angular frequencies w >= 0, with no numpy warning."""
    form = _closed_form(seq)
    rows = _BLOCK_ELEMENTS
    if form is None:
        edges, signs = seq.boundaries(), seq.signs()
        rows = max(1, rows // edges.size)

        def form(wb):
            phases = np.exp(1j * wb[:, None] * edges[None, :])
            amp = np.sum(signs[None, :] * np.diff(phases, axis=1), axis=1)
            return np.abs(amp) ** 2 / (wb * seq.t_total_s) ** 2
    # rows are independent, so blocks of frequencies bound the temporaries
    # ((frequency x edge) ones for the general sum) without changing a byte;
    # one block, the common case, is returned without a copy
    if w.size <= rows:
        out = form(w)
    else:
        out = np.empty(w.size)
        for lo in range(0, w.size, rows):
            out[lo:lo + rows] = form(w[lo:lo + rows])
    # a row is non-finite only where (w T)^2 is 0 (x / 0) or overflows with a
    # sine of inf; a finite row whose (w T)^2 overflows is already 0, its limit.
    # F is in [0, 1] up to rounding, so a finite sum means no mask is needed
    if not math.isfinite(out.sum()):
        phase2 = (w * seq.t_total_s) ** 2
        out[phase2 == 0.0] = (np.sum(seq.signs() * np.diff(seq.boundaries()))
                              / seq.t_total_s) ** 2
        out[phase2 == np.inf] = 0.0
    return out


def filter_function(seq: PulseSequence, f_hz):
    """Normalized dephasing filter F(f) >= 0, of f's shape; F(0) is the static response.

    Where (w T)^2 underflows F is the static response, and where it overflows
    (f = inf included) F is 0, with no numpy warning either way. The CPMG and
    echo closed forms take sin^4 by squaring twice, so their values differ in
    the last few digits from releases that took it with a power.
    """
    f = np.asarray(f_hz, dtype=float)
    # written so that NaN fails it as well
    if not f.min(initial=np.inf) >= 0.0:
        raise DomainError("frequencies must be nonnegative")
    with np.errstate(over="ignore"):
        omega = TWO_PI * f
    out = _response(seq, omega.ravel()).reshape(f.shape)
    return float(out) if f.ndim == 0 else out


@dataclass(frozen=True)
class FilterCurve:
    """Filter function sampled on a frequency grid."""

    f_hz: np.ndarray
    values: np.ndarray

    COLUMNS = ("f_hz", "filter")


def sample_filter(seq: PulseSequence, f_hz) -> FilterCurve:
    f = np.asarray(f_hz, dtype=float)
    return FilterCurve(f, filter_function(seq, f))


def _log_grid(f_lo, f_hi, n):
    """np.logspace of the band, with f_hi for a point whose 10^log10 rounds to inf."""
    with np.errstate(over="ignore"):
        f = np.logspace(np.log10(f_lo), np.log10(f_hi), n)
    # not a clamp: logspace may overshoot a finite f_hi, and those bytes stay
    f[f == np.inf] = f_hi
    return f


@functools.lru_cache(maxsize=8)
def _grid(f_lo, f_hi, n):
    """filtered_sigma's grid: log f, w = 2 pi f and the steps of f, read-only."""
    f = _log_grid(f_lo, f_hi, n)
    # 2 pi f may overflow to inf, where F is 0
    with np.errstate(over="ignore"):
        omega = TWO_PI * f
    arrays = (np.log(f), omega, np.diff(f))
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
    2^16 points are cached read-only (log f, 2 pi f and the steps of f),
    and F comes from filter_function's own routine on the cached 2 pi f.
    The result keeps the bytes of np.trapezoid(filter_function(seq, f) *
    dls_psd.evaluate(f), f) with f = np.logspace of the band, whose top point
    is f_max where 10^log10(f_max) overflows.
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
    if not count <= _INTP_MAX:
        raise DomainError("band and points_per_decade ask for more points than an array holds")
    n = max(int(count), 16)
    # larger grids are built per call, so the cache holds a few MB at most
    grid = _grid if n <= _BLOCK_ELEMENTS else _grid.__wrapped__
    log_f, omega, df = grid(f_lo, f_hi, n)
    y = _response(seq, omega) * dls_psd._at_log(log_f)
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
