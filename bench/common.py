"""Pieces shared by the three workloads."""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

import refs

PRESETS = ("cs133", "bbt780")
SPRINGS = ("rin_40db", "rin_free", "rin_flat_140")
T_MIN, T_MAX = 0.5e-6, 1e-3   # K; 1 mK is the cs133 trap depth
COLD_BELOW, HOT_FROM = 50e-6, 100e-6
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CHILD_TIMEOUT_S = 120.0   # a child still running after this is killed

# check tolerances shared by the workloads
MOMENT_REL = 1e-6   # truncated thermal sums drop < 1e-9 tail mass per axis
T2_TOL = 1e-12      # a stable root of s^2 T^2 / 2 + R T = 1 is good to < 1e-15
MC_Z = 5.0          # combined standard errors allowed at any grid point
WELCH_REL = 0.03    # white Welch level and Parseval integral


@dataclass
class Op:
    """One timed operation: run() is timed, check(result) is not.

    check returns None when the result matches its reference, else a
    one-line description of the mismatch. extra, when set, is untimed
    work that only the traced run does after the operation.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    extra: Callable[[], None] | None = None


class KnownFault(Exception):
    """Raised by a check for a mismatch that a known fault of trapcoh causes.

    The operation counts as failed, not as a wrong output. Checks raise
    it only on inputs that do not depend on the seed, so that every run
    fails the same share of its operations (see the FOUND line on
    t2_time in CHANGES.md).
    """


@contextlib.contextmanager
def child_timeout(proc, seconds):
    """Kill the child process if the block has not ended within seconds."""
    killer = threading.Timer(seconds, proc.kill)
    killer.start()
    try:
        yield
    finally:
        killer.cancel()


# Host-speed calibration. The 2-core Linux VM these figures come from
# drifts by up to 60% over minutes (fresh-interpreter set-up 1.2 .. 2.7 s
# within ten runs), and set-up and operation times move together
# (correlation 0.9).
# A fixed kernel that does not touch trapcoh, timed between operations,
# measures that drift; timings are reported at the kernel's reference time.
CALIBRATION_REF_S = 3.0e-3    # the kernel's median on that VM at its usual speed
CALIBRATION_EVERY_S = 0.25    # during a loop, three kernels this often
_CAL_SMALL = np.linspace(0.1, 10.0, 64)
_CAL_BULK = np.linspace(0.0, 50.0, 100_000)


def calibration_kernel():
    """Small numpy calls in a Python loop, then one bulk array pass."""
    acc = 0.0
    for i in range(100):
        x = _CAL_SMALL * (1.0 + 1e-3 * i)
        acc += float(np.sum(np.exp(-x) * np.cos(x))) + math.sin(i)
    return acc + float(np.cos(_CAL_BULK).sum())


def calibrate(n=3):
    """Wall times of n calibration kernels."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - t0)
    return times


def round_rng(seed, workload_id, round_index):
    """Inputs of round r depend only on (seed, workload, r)."""
    return np.random.default_rng([seed, workload_id, round_index])


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def even_uniform(offset, index):
    """Point index of the golden-ratio sequence shifted by offset, in [0, 1).

    Any run of consecutive indices, or every k-th index, covers [0, 1)
    evenly, so the costly draws of a run do not hinge on its seed.
    """
    return (offset + index * GOLDEN) % 1.0


def log_between(lo, hi, u):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def stratified_temperatures(offsets, index):
    """One temperature in each equal log-stratum of [T_MIN, T_MAX], spread over rounds."""
    n = len(offsets)
    return [log_between(T_MIN, T_MAX, (j + even_uniform(off, index)) / n)
            for j, off in enumerate(offsets)]


def temperature_band(t):
    return "cold" if t < COLD_BELOW else "hot" if t >= HOT_FROM else "mid"


def trap_dict(cfg):
    """The trap fields the references need, read off a TrapConfig."""
    return {"eta": cfg.eta, "u0_joule": cfg.u0_joule,
            "omegas": [cfg.omega_x_rad_s, cfg.omega_y_rad_s, cfg.omega_z_rad_s],
            "rel": cfg.sigma_p_watt / cfg.p0_watt}


def spring_samples(spectrum):
    return [float(f) for f in spectrum.frequencies_hz], [float(p) for p in spectrum.psd]


def loglog_array(freqs, values, f):
    """Vectorised reference interpolation for spectra with positive samples."""
    return np.exp(np.interp(np.log(f), np.log(freqs), np.log(values)))


def power_law_dls(rng):
    """A seeded DLS frequency-noise PSD, (rad/s)^2/Hz: S0 f^-alpha with jitter.

    Eight positive samples, log-spaced over 1e-4..1e3 Hz.
    """
    f = np.logspace(-4.0, 3.0, 8)
    alpha = rng.uniform(0.0, 2.0)
    s0 = log_uniform(rng, 1e-3, 1.0)
    return f, s0 * f ** -alpha * np.exp(rng.normal(0.0, 0.3, f.size))


def rel_err(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


def t2_problem(t2, sigma, rate, sigma_tol=0.0, rate_tol=0.0):
    """None when t2 solves s^2 T^2 / 2 + R T = 1 to T2_TOL for some s, R
    within the tolerances of sigma and rate, else a mismatch line.

    The 1/e time falls as s and R grow, so those are the times between
    the ends of the two intervals.
    """
    lo = refs.t2(sigma + sigma_tol, rate + rate_tol) * (1.0 - T2_TOL)
    hi = refs.t2(max(sigma - sigma_tol, 0.0), max(rate - rate_tol, 0.0)) * (1.0 + T2_TOL)
    if lo <= t2 <= hi:
        return None
    return (f"t2 {t2!r} outside [{lo!r}, {hi!r}], the 1/e times of "
            f"s = {sigma!r} +- {sigma_tol!r}, R = {rate!r} +- {rate_tol!r}")


def decay_data(rng, n_points=40):
    """Noisy two-channel decay to C = e^-3 from (sigma, R) drawn here."""
    sigma, rate = log_uniform(rng, 5.0, 20.0), log_uniform(rng, 2.0, 10.0)
    t = np.linspace(0.0, refs.t2(sigma / math.sqrt(3.0), rate / 3.0), n_points)
    noise = log_uniform(rng, 0.005, 0.02)
    y = np.clip(refs.decay(sigma, rate, t) + rng.normal(0.0, noise, t.size), -0.05, 1.05)
    return sigma, rate, t, y, np.full(t.size, noise)


def within(name, got, want, unc, n_sigma=5.0):
    """None when |got - want| <= n_sigma * unc, else a mismatch line."""
    if abs(got - want) <= n_sigma * unc:
        return None
    return f"{name}={got!r} vs {want!r}, {abs(got - want) / unc:.2f} uncertainties"


def first_problem(*problems):
    return next((p for p in problems if p), None)
