"""Noise spectra, PSD estimation and unit conversions.

Spectra are stored as one-sided power spectral densities against ordinary
frequency f in Hz. Rate formulas written in angular frequency use
S(omega) = S(f) / (2 pi); that conversion happens in exactly one place,
:func:`psd_f_to_omega`, so the 2 pi can never be applied twice.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import io
from .constants import _BLOCK_ELEMENTS
from .errors import DomainError

TWO_PI = 2.0 * np.pi

#: fractional spring-constant (relative intensity) noise, units 1/Hz
SPRING_FRACTIONAL = "spring_fractional"
#: trap-center position noise, units m^2/Hz
POSITION = "position"


def psd_f_to_omega(value):
    """One-sided PSD per Hz -> per (rad/s): S(omega) = S(f) / (2 pi).

    The single conversion point between f-space storage and the
    angular-frequency rate formulas.
    """
    return value / TWO_PI


def dbc_to_psd(level_dbc):
    """dBc/Hz noise floor -> linear one-sided PSD in 1/Hz."""
    return 10.0 ** (np.asarray(level_dbc, dtype=float) / 10.0) + 0.0


def psd_to_dbc(value):
    """Linear one-sided PSD in 1/Hz -> dBc/Hz. Requires value > 0."""
    value = np.asarray(value, dtype=float)
    if np.any(value <= 0.0):
        raise DomainError("PSD value must be positive to express in dBc/Hz")
    return 10.0 * np.log10(value) + 0.0


@dataclass(frozen=True)
class NoiseSpectrum:
    """Sampled one-sided PSD S(f) with log-log interpolation.

    frequencies_hz must be strictly increasing and positive, psd values
    nonnegative. Evaluation between samples interpolates linearly in
    (log f, log S); outside the sampled range the nearest sample is held.
    Segments with a zero-valued endpoint interpolate the PSD linearly
    against log f instead (log of zero is undefined), which preserves
    nonnegativity. Both lookups read one knot table: log f, S and log S (NaN at S = 0).
    """

    kind: str
    frequencies_hz: np.ndarray
    psd: np.ndarray

    COLUMNS = ("f_hz", "psd")

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.frequencies_hz, dtype=float))
        p = np.atleast_1d(np.asarray(self.psd, dtype=float))
        if f.ndim != 1 or f.shape != p.shape or f.size == 0:
            raise DomainError("spectrum needs matching 1-d frequency and psd arrays")
        if np.any(f <= 0.0) or np.any(np.diff(f) <= 0.0):
            raise DomainError("frequencies must be positive and strictly increasing")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)) or not np.all(np.isfinite(f)):
            raise DomainError("psd values must be finite and nonnegative")
        if not self.kind:
            raise DomainError("spectrum kind must be a non-empty string")
        object.__setattr__(self, "frequencies_hz", f)
        object.__setattr__(self, "psd", p)
        # the knots once, as Python floats: log f, S, and log S (NaN where S = 0);
        # log f and log S also as one array, which np.interp would convert per call
        object.__setattr__(self, "_log_f", tuple(map(math.log, f.tolist())))
        object.__setattr__(self, "_s", tuple(p.tolist()))
        object.__setattr__(self, "_log_s", tuple(math.log(v) if v else math.nan for v in self._s))
        object.__setattr__(self, "_knots", np.array([self._log_f, self._log_s]))
        object.__setattr__(self, "_has_zero", 0.0 in self._s)

    @classmethod
    def zero(cls, kind=SPRING_FRACTIONAL):
        """A spectrum that evaluates to 0 everywhere."""
        return cls(kind, np.array([1.0]), np.array([0.0]))

    @classmethod
    def flat(cls, level, f_min=1.0, f_max=1e6, kind=SPRING_FRACTIONAL):
        """A white spectrum at the given linear PSD level over [f_min, f_max]."""
        return cls(kind, np.array([f_min, f_max]), np.array([level, level], dtype=float))

    def evaluate(self, f_hz):
        """S(f) at the requested frequencies (Hz), held constant outside range;
        a numpy scalar for a scalar f_hz (computed on Python floats with math
        for a float or np.float64)."""
        if isinstance(f_hz, float):
            if not f_hz > 0.0:  # NaN fails it as well
                raise DomainError("evaluation frequencies must be positive")
            return np.float64(self._at_log_scalar(math.log(f_hz)))
        fq = np.asarray(f_hz, dtype=float)
        # written so that NaN fails it as well
        if not fq.min(initial=np.inf) > 0.0:
            raise DomainError("evaluation frequencies must be positive")
        return self._at_log(np.log(fq))

    def _at_log(self, log_f):
        """S at frequencies given by their natural log, unchecked."""
        s = np.exp(np.interp(log_f, *self._knots))
        if self._has_zero:  # log S is NaN on zero-ended segments and held zero ends,
            # where S is linear in log f, as in _at_log_scalar ([()]: a scalar stays one)
            s = np.where(np.isnan(s), np.interp(log_f, self._knots[0], self.psd), s)[()]
        return s

    def _at_log_scalar(self, x):
        """S at log f = x, unchecked: the end sample beyond the knots, else
        log S linear in log f on the segment, or S itself on a segment that
        ends at a zero sample."""
        log_f, s, log_s = self._log_f, self._s, self._log_s
        j = bisect_right(log_f, x)
        if j == 0 or j == len(log_f):
            return s[max(j - 1, 0)]
        i = j - 1
        w = (x - log_f[i]) / (log_f[j] - log_f[i])
        if math.isnan(log_s[i]) or math.isnan(log_s[j]):
            return s[i] + w * (s[j] - s[i])
        return math.exp(log_s[i] + w * (log_s[j] - log_s[i]))

    def scaled(self, factor):
        """Same spectrum with all PSD values multiplied by factor >= 0."""
        if factor < 0.0:
            raise DomainError("scale factor must be nonnegative")
        return NoiseSpectrum(self.kind, self.frequencies_hz.copy(), self.psd * factor)

    def to_json_obj(self):
        return {
            "kind": self.kind,
            "samples": [[float(f), float(p)] for f, p in zip(self.frequencies_hz, self.psd)],
        }

    @classmethod
    def from_json_obj(cls, obj):
        with io.parsing("spectrum object"):
            kind = obj["kind"]
            samples = obj["samples"]
            f = np.array([s[0] for s in samples], dtype=float)
            p = np.array([s[1] for s in samples], dtype=float)
        return cls(kind, f, p)

    @classmethod
    def load_preset(cls, name):
        """Load a bundled spectrum by bare name, e.g. 'rin_40db'."""
        return cls.from_json_obj(io.read_preset(name))


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled record, e.g. transmitted trap power in W."""

    sample_rate_hz: float
    samples: np.ndarray

    COLUMNS = ("t_s", "power_w")

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=float)
        if x.ndim != 1 or x.size < 2 or not np.all(np.isfinite(x)):
            raise DomainError("time series needs at least two samples, all finite")
        if not 0.0 < self.sample_rate_hz < np.inf:
            raise DomainError("sample rate must be positive and finite")
        object.__setattr__(self, "samples", x)

    @property
    def duration_s(self):
        return self.samples.size / self.sample_rate_hz

    @classmethod
    def parse(cls, data, source):
        """Record from the CSV bytes `data` read from `source` (io.parse_csv): the
        COLUMNS by header name, others ignored; two or more rows at uniform times."""
        cols = io.parse_csv(data, source, cls.COLUMNS)
        with io.parsing(source):
            dt = np.diff(cols["t_s"])
            if dt.size < 1 or np.any(dt <= 0.0) or (dt.max() - dt.min()) > 1e-6 * dt.mean():
                raise ValueError("needs two rows, with times uniform and increasing")
        return cls(1.0 / dt.mean(), cols["power_w"])


def _scaled_down(samples):
    """(samples times 2**-e, e), e >= 0 the least power of two that takes every
    |sample| below 1: exact, and no sum of up to 2**1023 of them overflows."""
    e = max(int(np.frexp(np.abs(samples).max())[1]), 0)
    return (np.ldexp(samples, -e) if e else samples), e


def relative_variance(series: TimeSeries) -> float:
    """Population standard deviation divided by the mean (dimensionless), both
    of the samples times 2**-k for mean = m 2**k, after _scaled_down: exact, and
    neither a sum nor a square overflows."""
    x, _ = _scaled_down(series.samples)
    mean = x.mean()
    if mean <= 0.0:
        raise DomainError("relative variance needs a positive mean level")
    m, k = np.frexp(mean)
    return float(np.ldexp(x, -k).std(ddof=0) / m)


def estimate_psd(series: TimeSeries, segment_length: int, overlap: float = 0.5,
                 kind: str = SPRING_FRACTIONAL) -> NoiseSpectrum:
    """Welch PSD of the mean-normalized series (Hann window, one sided).

    The series is divided by its mean (positive, 1/mean finite) and offset
    to zero, so the result is the PSD of fractional fluctuations, whose
    integral approximates relative_variance**2 (Parseval); DC is dropped.

    Welch's estimator (IEEE Trans. Audio Electroacoust. 15, 70 (1967)):
    segments of `segment_length` samples overlapping by
    round(overlap * segment_length), of the samples after _scaled_down less
    their mean, each less its own mean times w / mean, w the periodic Hann
    window (the one place the 1/mean is applied), averaged |rfft|^2 scaled
    to a one-sided density by 2 / (fs sum w^2) (Heinzel, Ruediger &
    Schilling, "Spectrum and spectral density estimation by the DFT",
    2002); the Nyquist bin of an even segment is not doubled. Blocks of
    _BLOCK_ELEMENTS samples sum to the bytes of the one-array form at any
    number of segments.
    """
    n = series.samples.size
    segment_length = int(segment_length)
    if not 8 <= segment_length <= n:
        raise DomainError(f"segment length must be in [8, {n}]")
    if not 0.0 <= overlap < 1.0:
        raise DomainError("overlap fraction must be in [0, 1)")
    step = segment_length - round(overlap * segment_length)
    if step < 1:
        raise DomainError(
            f"overlap {overlap} of {segment_length} samples rounds to the whole segment")
    # the fractional fluctuations do not change with the samples' scale
    samples, e = _scaled_down(series.samples)
    mean = samples.mean()
    if not np.ldexp(mean, e) > 1.0 / np.finfo(float).max:
        raise DomainError("PSD of fractional fluctuations needs a positive mean, 1/mean finite")
    fs = series.sample_rate_hz
    segments = np.lib.stride_tricks.sliding_window_view(samples, segment_length)[::step]
    rows = min(len(segments), max(1, _BLOCK_ELEMENTS // segment_length))
    window = 0.5 - 0.5 * np.cos(TWO_PI * np.arange(segment_length) / segment_length)
    scaled = window / mean
    x = np.empty((rows, segment_length))
    spectra = np.empty((rows, segment_length // 2 + 1), dtype=complex)
    # sums of re^2 and of im^2, interleaved as in the spectra's float view
    power = np.zeros(2 * spectra.shape[1])
    for lo in range(0, len(segments), rows):
        seg = segments[lo:lo + rows]
        # exact by Sterbenz for samples within a factor 2 of the mean, so a segment mean
        # rounds only the fluctuations, not the level: its rounding would reach bin 1
        xk = np.subtract(seg, mean, out=x[:len(seg)])
        xk -= xk.mean(axis=1, keepdims=True)
        xk *= scaled
        v = np.fft.rfft(xk, axis=1, out=spectra[:len(seg)]).view(float)
        v *= v
        # numpy sums over axis 0 row by row, in order: carrying the partial sum
        # in the first row gives the bytes of one sum over all segments
        v[0] += power
        v.sum(axis=0, out=power)
    pxx = (power[::2] + power[1::2]) / len(segments) * (2.0 / (fs * window @ window))
    if segment_length % 2 == 0:
        pxx[-1] /= 2.0
    f = np.fft.rfftfreq(segment_length, 1.0 / fs)
    return NoiseSpectrum(kind, f[1:], pxx[1:])
