"""Noise spectra, PSD estimation and unit conversions.

Spectra are stored as one-sided power spectral densities against ordinary
frequency f in Hz. Rate formulas written in angular frequency use
S(omega) = S(f) / (2 pi); that conversion happens in exactly one place,
:func:`psd_f_to_omega`, so the 2 pi can never be applied twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import io
from .errors import DomainError

TWO_PI = 2.0 * np.pi

#: fractional spring-constant (relative intensity) noise, units 1/Hz
SPRING_FRACTIONAL = "spring_fractional"
#: trap-center position noise, units m^2/Hz
POSITION = "position"

#: segments that estimate_psd transforms at once; bounds its memory at any overlap
WELCH_BLOCK = 256


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
    nonnegativity. The log tables are built once, at construction.
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
        # S in the real part and log S in the imaginary part, so that one
        # np.interp gives both; log S is NaN at zero samples, and so on every
        # segment with a zero endpoint
        table = p.astype(complex)
        table.imag = np.log(np.where(p > 0.0, p, np.nan))
        object.__setattr__(self, "_log_f", np.log(f))
        object.__setattr__(self, "_table", table)

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
        a numpy scalar for a scalar f_hz."""
        fq = np.asarray(f_hz, dtype=float)
        if fq.min(initial=np.inf) <= 0.0:
            raise DomainError("evaluation frequencies must be positive")
        both = np.interp(np.log(fq), self._log_f, self._table)
        # where a zero sample ends the segment (or is held), log S is NaN and
        # fmax takes the linear value; elsewhere the linear term is 0
        return np.fmax(np.exp(both.imag), both.real * np.isnan(both.imag))

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


def relative_variance(series: TimeSeries) -> float:
    """Population standard deviation divided by the mean (dimensionless)."""
    mean = series.samples.mean()
    if mean <= 0.0:
        raise DomainError("relative variance needs a positive mean level")
    return float(series.samples.std(ddof=0) / mean)


def estimate_psd(series: TimeSeries, segment_length: int, overlap: float = 0.5,
                 kind: str = SPRING_FRACTIONAL) -> NoiseSpectrum:
    """Welch PSD of the mean-normalized series (Hann window, one sided).

    The series is divided by its mean and offset to zero, so the result is
    the PSD of fractional fluctuations; its integral over f approximates
    relative_variance**2 (Parseval). The DC bin is dropped.

    Welch's estimator (IEEE Trans. Audio Electroacoust. 15, 70 (1967)):
    segments of `segment_length` samples overlapping by
    round(overlap * segment_length), each with its mean removed and a
    periodic Hann window w applied, averaged |rfft|^2 scaled to a one-sided
    density by 2 / (fs sum w^2) (Heinzel, Ruediger & Schilling, "Spectrum
    and spectral density estimation by the DFT", 2002); the Nyquist bin of
    an even segment is not doubled.
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
    mean = series.samples.mean()
    if mean <= 0.0:
        raise DomainError("PSD of fractional fluctuations needs a positive mean")
    fs = series.sample_rate_hz
    segments = np.lib.stride_tricks.sliding_window_view(
        series.samples / mean - 1.0, segment_length)[::step]
    window = 0.5 - 0.5 * np.cos(TWO_PI * np.arange(segment_length) / segment_length)
    power = np.zeros(segment_length // 2 + 1)
    for seg in np.split(segments, range(WELCH_BLOCK, len(segments), WELCH_BLOCK)):
        spectra = np.fft.rfft((seg - seg.mean(axis=1, keepdims=True)) * window, axis=1)
        power += (spectra.real ** 2 + spectra.imag ** 2).sum(axis=0)
    pxx = power / len(segments) * (2.0 / (fs * window @ window))
    if segment_length % 2 == 0:
        pxx[-1] /= 2.0
    f = np.fft.rfftfreq(segment_length, 1.0 / fs)
    return NoiseSpectrum(kind, f[1:], pxx[1:])
