"""Combined qubit coherence model, its Monte-Carlo cross-check and the scattering limit.

The two decay channels act independently, so the fringe contrast is

    C(t) = exp(-sigma_dls**2 * t**2 / 2) * exp(-pjr * t)

a Gaussian channel from the shot-to-shot differential-light-shift spread
sigma_dls (rad/s) and an exponential channel from the phonon jumping rate
pjr (1/s). The 1/e coherence time solves sigma**2 t**2 / 2 + R t = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import io
from .constants import _BLOCK_ELEMENTS, BOLTZMANN, HBAR
from .errors import DomainError, TrapcohError

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


def _check_beam(rabi_rad_s, detuning_rad_s, linewidth_rad_s):
    """Domain of the two scattering functions; NaN fails every comparison."""
    if not 0.0 < abs(detuning_rad_s) < math.inf:
        raise DomainError("detuning must be finite and nonzero")
    if not (0.0 <= rabi_rad_s < math.inf and 0.0 <= linewidth_rad_s < math.inf):
        raise DomainError("Rabi frequency and linewidth must be finite and nonnegative")


def scattering_params(rabi_rad_s, detuning_rad_s, linewidth_rad_s) -> ScatteringParams:
    """Adiabatic-elimination results for one far-detuned beam.

    light shift q Omega / 2 = Omega**2 / (4 Delta), scattering rate q**2 Gamma and
    coherence 1/e time 2 / rate, from q = Omega / (2 Delta), so no square overflows.
    """
    _check_beam(rabi_rad_s, detuning_rad_s, linewidth_rad_s)
    q = 0.5 * rabi_rad_s / detuning_rad_s
    shift, rate = q * (0.5 * rabi_rad_s), q * (q * linewidth_rad_s)  # q Gamma <= max(Gamma, rate)
    t2 = None if rate == 0.0 else 2.0 / rate
    if not all(map(math.isfinite, (shift, rate, t2 or 0.0))):
        raise TrapcohError("scattering figures exceed the float range", kind="non_finite")
    return ScatteringParams(
        light_shift_rad_s=shift,
        scattering_rate_per_s=rate,
        t2_s=t2,
        near_resonance=abs(detuning_rad_s) < 10.0 * linewidth_rad_s,
    )


def scattering_decay_rate(rabi_rad_s, detuning_rad_s, linewidth_rad_s) -> float:
    """Exact coherence decay rate of the driven two-level system.

    The ground-state and cross coherences obey d/dt (c_ab, c_ae) = A (c_ab, c_ae),
    A = [[0, -i Omega/2], [-i Omega/2, b]] with b = i Delta - Gamma/2, and |c_ab|
    decays at -Re of A's slow eigenvalue. With q the larger-modulus root
    (b +- sqrt(b**2 - Omega**2)) / 2 of lambda**2 - b lambda + Omega**2 / 4 = 0,
    that eigenvalue is (Omega**2 / 4) / q by Vieta's product; the textbook
    (b + sqrt(...)) / 2 cancels, with relative error about eps (Delta / Omega)**2.
    No adiabatic elimination is made, so this cross-checks scattering_params.
    """
    _check_beam(rabi_rad_s, detuning_rad_s, linewidth_rad_s)
    # in units of a power of two, which is exact, so that b * b cannot overflow
    k = math.frexp(max(abs(detuning_rad_s), linewidth_rad_s, rabi_rad_s))[1]
    rabi = math.ldexp(rabi_rad_s, -k)
    b = complex(-0.5 * math.ldexp(linewidth_rad_s, -k), math.ldexp(detuning_rad_s, -k))
    root = cmath.sqrt(b * b - rabi * rabi)
    fast = max(b + root, b - root, key=abs) / 2.0
    return math.ldexp(-(0.25 * rabi * rabi / fast).real, k) + 0.0


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


def _cosine_sums(rng, sigma, n_traj, times):
    """Sums over the trajectories of cos(delta t) and its square, one libm
    cosine per (trajectory, time). Equal bit for bit to the sums of the one
    array np.cos(np.outer(deltas, times)) with two or more times (numpy sums a
    lone column pairwise: with one time, up to one block)."""
    rows = max(1, _BLOCK_ELEMENTS // max(times.size, 1))
    cosines, squares = np.empty((2, min(rows, n_traj), times.size))
    total = total_sq = np.zeros(times.size)
    for lo in range(0, n_traj, rows):
        # the generator's stream does not depend on how the draws are split
        d = rng.normal(0.0, sigma, size=(min(rows, n_traj - lo), 1))
        cos, sq = cosines[:d.size], squares[:d.size]
        np.cos(np.multiply(d, times.ravel(), out=cos), out=cos)
        np.multiply(cos, cos, out=sq)
        # numpy sums over axis 0 row by row, in order: carrying the partial sum
        # in the first row gives the bytes of one sum over all trajectories
        cos[0] += total
        sq[0] += total_sq
        total, total_sq = cos.sum(axis=0), sq.sum(axis=0)
    return total, total_sq


def _rotations(table, step):
    """Fill rows 1.. of table with table[0] * step**j: rows [k, 2k) are rows
    [0, k) times step**k, so row j takes one product per set bit of j and
    step**k comes from log2(k) squarings."""
    k, n = 1, table.shape[0]
    while k < n:
        np.multiply(table[:min(k, n - k)], step, out=table[k:2 * k])
        k *= 2
        if k < n:
            step = step * step


def _phase_tables(deltas, t0, h, coarse, fine):
    """Fill coarse[j] = exp(i delta (t0 + a j h)) and fine[b] = exp(-i delta b h),
    j < m and b < a the rows of the two complex (rows, trajectories) arrays,
    from one sincos of the three phases delta (-h, a h, t0) and _rotations.

    Each squaring doubles the error of step, so row j is off by about j eps
    and exp(i delta t) = coarse[j] conj(fine[b]), t = t0 + (a j + b) h, by
    about (a + m) eps, on top of the eps |delta t| that rounding the phase
    itself costs."""
    a = fine.shape[0]
    base = np.empty((3, deltas.size), complex)
    np.multiply.outer((-h, a * h, t0), deltas, out=base.real)
    np.sin(base.real, out=base.imag)
    np.cos(base.real, out=base.real)
    fine[0] = 1.0
    coarse[0] = base[2]
    _rotations(coarse, base[1])
    _rotations(fine, base[0])


def _uniform_sums(rng, sigma, n_traj, times):
    """The sums of _cosine_sums on a uniform grid t_k = t0 + k h.

    With a = ceil(sqrt(n)) and m = ceil(n / a) for n times, k = a j + b. A block
    of trajectories fills the tables Z[j] = exp(i delta (t0 + a j h)) and
    F[b] = exp(i delta b h) and adds the (m, a) matrix Re(Z^T F), whose cell
    (j, b) is the sum of cos(delta t_k); likewise cos**2 = (1 + cos 2 delta t) / 2
    from Re((Z**2)^T F**2). The tables store F conjugated, so the real part of a
    complex product is the real matrix product of the two arrays viewed as
    (re, im) pairs: one BLAS call per sum, no cosine per time.
    """
    a = math.isqrt(times.size - 1) + 1
    m = -(-times.size // a)
    t0, h = times[0], (times[-1] - times[0]) / (times.size - 1)
    rows = max(1, _BLOCK_ELEMENTS // (2 * a))
    coarse = np.empty((m, min(rows, n_traj)), complex)
    fine = np.empty((a, min(rows, n_traj)), complex)
    total, doubled = np.zeros((2, m, a))
    for lo in range(0, n_traj, rows):
        d = rng.normal(0.0, sigma, size=min(rows, n_traj - lo))
        # the cosine form overflows where the largest phase delta t does, which
        # the tables never form: refuse here as it would
        if not np.isfinite(np.abs(d).max() * times[-1]):
            raise DomainError("Monte-Carlo phases exceed the float range")
        z, f = coarse[:, :d.size], fine[:, :d.size]
        _phase_tables(d, t0, h, z, f)
        total += z.view(float) @ f.view(float).T
        z *= z
        f *= f
        doubled += z.view(float) @ f.view(float).T
    total_sq = 0.5 * (n_traj + doubled)
    return total.ravel()[:times.size], total_sq.ravel()[:times.size]


def gaussian_channel_mc(sigma_dls, n_traj, seed, times) -> CoherenceSeries:
    """Monte-Carlo Gaussian dephasing channel.

    Each trajectory draws a frozen detuning from N(0, sigma_dls); the
    ensemble mean of cos(delta * t) estimates exp(-sigma**2 t**2 / 2).
    The per-point sigma is the standard error of that mean. Bit-identical
    for identical (seed, n_traj, times) on one numpy build and BLAS thread
    count. Draws blocks of trajectories, each within _BLOCK_ELEMENTS values
    per temporary, from one generator stream whatever the block size.

    A grid equal bit for bit to np.linspace(times[0], times[-1], times.size),
    with three or more times, sums its cosines from two tables of complex
    rotations and one matrix product per block (_uniform_sums); the sums
    agree with one cosine per (trajectory, time) to about 2 sqrt(n) eps +
    eps |delta t| per phase, and their last digits depend on the BLAS build
    and its thread count. Any other grid takes one libm cosine per
    (trajectory, time) and keeps the bytes of the one-array form
    np.cos(np.outer(deltas, times)).sum(axis=0) (_cosine_sums): so do one
    and two times, where that is no more than the tables' sincos of three
    phases per trajectory.
    """
    # written so that NaN fails the comparisons as well
    if not 0.0 <= sigma_dls < math.inf:
        raise DomainError("sigma must be finite and nonnegative")
    if not n_traj >= 2:
        raise DomainError("need at least two trajectories")
    if n_traj % 1 != 0:
        raise DomainError("number of trajectories must be an integer")
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times < math.inf)):
        raise DomainError("times must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    n_traj = int(n_traj)
    sigma_dls = abs(sigma_dls)  # -0.0 passes the check; numpy's normal refuses its sign bit
    uniform = times.ndim == 1 and times.size >= 3 and np.array_equal(
        times, np.linspace(times[0], times[-1], times.size))
    total, total_sq = (_uniform_sums if uniform else _cosine_sums)(rng, sigma_dls, n_traj, times)
    mean = total / n_traj
    var = np.maximum(total_sq / n_traj - mean ** 2, 0.0)
    sem = np.sqrt(var / n_traj)
    return CoherenceSeries(times, np.clip(mean, COHERENCE_MIN, COHERENCE_MAX), sem)
