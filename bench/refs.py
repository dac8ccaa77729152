"""Reference values computed apart from trapcoh (stdlib and numpy only).

Every output the benchmark times is checked against one of these. They
restate the physics from its closed forms, so a refactor of trapcoh that
keeps its results keeps passing, and one that changes them fails:

- thermal moments of the geometric distribution, E[n] = nbar and
  E[n^2] = 2 nbar^2 + nbar, applied to the occupation means trapcoh
  reports (so a corrected nbar convention still passes);
- PSD values by log-log interpolation of a spectrum's own samples;
- Ramsey and spin-echo filter functions from their closed forms, CPMG by
  a direct sum over the sequence's segments;
- the Welch level of white fractional noise, 2 sigma_r^2 / f_s.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

HBAR = 6.62607015e-34 / (2.0 * math.pi)   # J s, from the exact SI Planck constant
BOLTZMANN = 1.380649e-23                   # J/K, exact
RAMSEY_THERMOMETRY = 0.97   # calibration factor of T = 0.97 * 2 hbar / (eta kB T2*)


def thermal_moments(nbar):
    """(E[n], E[n^2]) of the geometric occupation distribution with mean nbar."""
    return nbar, 2.0 * nbar * nbar + nbar


def loglog(freqs, values, f):
    """One-sided PSD at f (Hz) from samples (freqs, values).

    Linear in (log f, log S) between neighbouring samples, linear in
    (log f, S) on a segment with a zero endpoint, and the nearest sample
    held outside the sampled range.
    """
    freqs = [float(x) for x in freqs]
    values = [float(x) for x in values]
    if len(freqs) == 1 or f <= freqs[0]:
        return values[0]
    if f >= freqs[-1]:
        return values[-1]
    k = bisect.bisect_right(freqs, f) - 1
    w = (math.log(f) - math.log(freqs[k])) / (math.log(freqs[k + 1]) - math.log(freqs[k]))
    lo, hi = values[k], values[k + 1]
    if lo > 0.0 and hi > 0.0:
        return math.exp((1.0 - w) * math.log(lo) + w * math.log(hi))
    return (1.0 - w) * lo + w * hi


def ramsey_filter(f_hz, t_total):
    """Free-precession filter 4 sin^2(wT/2) / (wT)^2, w = 2 pi f."""
    x = 2.0 * math.pi * np.asarray(f_hz, dtype=float) * t_total
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, 4.0 * np.sin(x / 2.0) ** 2 / safe ** 2)


def echo_filter(f_hz, t_total):
    """Spin-echo filter 16 sin^4(wT/4) / (wT)^2, w = 2 pi f."""
    x = 2.0 * math.pi * np.asarray(f_hz, dtype=float) * t_total
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 0.0, 16.0 * np.sin(x / 4.0) ** 4 / safe ** 2)


def cpmg_pulses(n_pulses, interval):
    """Pi-pulse times of an n-pulse CPMG train: (j - 1/2) * interval."""
    return [(j - 0.5) * interval for j in range(1, n_pulses + 1)]


def segment_filter(f_hz, pulses, t_total):
    """Filter function of any pi-pulse train by a direct segment sum.

    The sensitivity is +1, -1, +1, ... on the segments between 0, the
    pulses and T; F = |sum_k s_k (e^{i w t_k+1} - e^{i w t_k})|^2 / (wT)^2,
    summed segment by segment in real arithmetic.
    """
    w = 2.0 * math.pi * np.asarray(f_hz, dtype=float)
    edges = [0.0, *pulses, t_total]
    re = np.zeros(w.shape)
    im = np.zeros(w.shape)
    sign = 1.0
    for a, b in zip(edges, edges[1:]):
        re += sign * (np.cos(w * b) - np.cos(w * a))
        im += sign * (np.sin(w * b) - np.sin(w * a))
        sign = -sign
    static = sum((1.0 if k % 2 == 0 else -1.0) * (b - a)
                 for k, (a, b) in enumerate(zip(edges, edges[1:]))) / t_total
    wt = w * t_total
    safe = np.where(wt == 0.0, 1.0, wt)
    return np.where(wt == 0.0, static ** 2, (re * re + im * im) / safe ** 2)


def sequence_filter(kind, f_hz, t_total, pulses):
    if kind == "ramsey":
        return ramsey_filter(f_hz, t_total)
    if kind == "echo":
        return echo_filter(f_hz, t_total)
    return segment_filter(f_hz, pulses, t_total)


def filtered_sigma(kind, t_total, pulses, psd, band, points_per_decade=200):
    """sqrt of the trapezoid integral of F(f) psd(f) on a log grid over band.

    The grid has ceil(decades * points_per_decade) points, at least 16.
    """
    f_lo, f_hi = band
    n = max(int(math.ceil(math.log10(f_hi / f_lo) * points_per_decade)), 16)
    f = np.logspace(math.log10(f_lo), math.log10(f_hi), n)
    y = sequence_filter(kind, f, t_total, pulses) * psd(f)
    return math.sqrt(max(float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(f))), 0.0))


def white_welch_level(sigma_r, sample_rate_hz):
    """One-sided PSD of white fractional noise with rms sigma_r: 2 sigma_r^2 / f_s."""
    return 2.0 * sigma_r ** 2 / sample_rate_hz


def decay(sigma, rate, t):
    """Two-channel coherence exp(-sigma^2 t^2 / 2 - R t)."""
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * (sigma * t) ** 2 - rate * t)


def t2_residual(sigma, rate, t2):
    """sigma^2 T^2 / 2 + R T - 1, zero at the 1/e coherence time."""
    return 0.5 * (sigma * t2) ** 2 + rate * t2 - 1.0


def t2(sigma, rate):
    """1/e time by bisection on t2_residual, which increases in T."""
    lo, hi = 0.0, 1.0
    while t2_residual(sigma, rate, hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t2_residual(sigma, rate, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ramsey_temperature(t2star, eta):
    return RAMSEY_THERMOMETRY * 2.0 * HBAR / (eta * BOLTZMANN * t2star)


def dls_sigma(trap, numbers_or_moments):
    """(|DLS spread|, scale of its terms), rad/s, for fixed numbers or thermal moments.

    trap: dict with eta, u0_joule, omegas, rel (sigma_P / P0).
    numbers_or_moments: per axis either an integer n or a pair (E[n], E[n^2]).
    The spread is affine in n, rel * (-eta U0 / hbar + eta/4 sum (n+1/2) w),
    so its thermal rms needs only the first two moments. Where the depth
    and phonon terms nearly cancel (a blue-detuned trap), the spread is
    known only to a rounding error of the terms, hence the scale.
    """
    depth = -trap["rel"] * trap["eta"] * trap["u0_joule"] / HBAR
    mean, var = depth, 0.0
    scale = abs(depth)
    for w, m in zip(trap["omegas"], numbers_or_moments):
        slope = trap["rel"] * 0.25 * trap["eta"] * w
        m1, m2 = (m, m * m) if np.ndim(m) == 0 else m
        mean += slope * (m1 + 0.5)
        var += slope * slope * (m2 - m1 * m1)
        scale += abs(slope) * (m1 + 0.5)
    return math.sqrt(mean * mean + var), scale


def spring_rate(omega, s_k_f, m1, m2):
    """Intensity-noise leaving rate averaged over n: pi w^2/8 S(w) (E[n^2] + E[n] + 1).

    s_k_f is the one-sided spring PSD per Hz at 2 w; S(w) = S(f) / (2 pi).
    """
    return math.pi * omega ** 2 / 8.0 * s_k_f / (2.0 * math.pi) * (m2 + m1 + 1.0)


def classical_rate(temperature_k, s_k_fs):
    """Hot-atom estimate pi/(8 hbar^2) (kB T / 2)^2 sum_q S_k(2 w_q)."""
    kt = BOLTZMANN * temperature_k
    return math.pi / (8.0 * HBAR ** 2) * (kt / 2.0) ** 2 * sum(s_k_fs) / (2.0 * math.pi)


def mc_decay_z(sigma, rate, n_traj, t, mc_values):
    """Largest |MC - C(t)| in combined standard errors over a grid.

    The Monte-Carlo curve is the product of two independent means over
    n_traj trajectories: G, the mean of cos(delta t) with delta ~ N(0,
    sigma), and S, the share with no exponential jump before t. Their
    standard errors come from the exact per-trajectory variances,
    var cos = (1 + g^4) / 2 - g^2 with g = exp(-sigma^2 t^2 / 2) and
    var S = s (1 - s) with s = exp(-R t). The product of independent
    means has var(GS) = vG vS + vG s^2 + vS g^2. The error adds 1/n_traj,
    the resolution of a share of n_traj trajectories, so that a grid point
    expecting far less than one jump is not failed by the one that comes.
    """
    t = np.asarray(t, dtype=float)
    g = np.exp(-0.5 * (sigma * t) ** 2)
    s = np.exp(-rate * t)
    v_g = np.maximum((1.0 + g ** 4) / 2.0 - g * g, 0.0) / n_traj
    v_s = s * (1.0 - s) / n_traj
    err = np.sqrt(v_g * v_s + v_g * s * s + v_s * g * g) + 1.0 / n_traj
    return float(np.max(np.abs(np.asarray(mc_values, dtype=float) - g * s) / err))
