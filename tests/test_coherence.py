"""Two-channel decay model, coherence times, thermometry, scattering limit."""

import importlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcoh import (
    CoherenceSeries,
    ConfigError,
    DecayParams,
    DomainError,
    RAMSEY_THERMOMETRY_FACTOR,
    TrapcohError,
    analytic_series,
    coherence,
    gaussian_channel_mc,
    lifetime_corrected_t2,
    ramsey_t2star_from_temperature,
    scattering_decay_rate,
    scattering_params,
    t2_gradient,
    t2_time,
    temperature_from_ramsey_t2star,
)
from trapcoh import io
from trapcoh.coherence import _phase_tables
from trapcoh.constants import BOLTZMANN, CS_D2_LINEWIDTH, HBAR

# the module, which the package's coherence function shadows
COHERENCE_MODULE = importlib.import_module("trapcoh.coherence")

ETA_1052 = 1.5291931912736172e-4
ETA_780 = 2.5009109883279435e-4


def test_decay_params_validation():
    with pytest.raises(DomainError):
        DecayParams(-1.0, 0.0)
    with pytest.raises(DomainError):
        DecayParams(0.0, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            DecayParams(bad, 1.0)
        with pytest.raises(DomainError):
            DecayParams(1.0, bad)


def test_decay_params_json_round_trip():
    p = DecayParams(15.0, 5.14)
    assert DecayParams.from_json_obj(p.to_json_obj()) == p
    with pytest.raises(ConfigError):
        DecayParams.from_json_obj({"sigma_dls_rad_s": 1.0})


def test_coherence_values():
    p = DecayParams(15.0, 5.14)
    assert coherence(p, 0.0) == 1.0
    assert coherence(p, 0.08) == pytest.approx(0.3226458490054852, rel=1e-12)
    t = np.array([0.0, 0.05, 0.1])
    expect = np.exp(-0.5 * 15.0 ** 2 * t ** 2 - 5.14 * t)
    assert coherence(p, t) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(DomainError):
        coherence(p, -0.1)


def test_t2_closed_form_values():
    assert t2_time(DecayParams(7.54, 0.0)) == pytest.approx(0.1875614804208349, rel=1e-12)
    assert t2_time(DecayParams(15.0, 5.14)) == pytest.approx(0.07416461456998058, rel=1e-12)
    assert t2_time(DecayParams(0.51, 0.0)) == pytest.approx(2.77296776935901, rel=1e-12)
    assert t2_time(DecayParams(0.02, 0.058)) == pytest.approx(16.32265804901679, rel=1e-12)
    # sigma << R: the 1/e time is 1/R to first order
    assert t2_time(DecayParams(1e-9, 0.172)) == pytest.approx(5.813953488372094, rel=1e-12)


def test_t2_single_channel_limits():
    # pure Gaussian: sqrt(2)/sigma; pure exponential: 1/R
    assert t2_time(DecayParams(7.54, 0.0)) == pytest.approx(math.sqrt(2.0) / 7.54, rel=1e-12)
    assert t2_time(DecayParams(0.0, 4.0)) == 0.25
    with pytest.raises(DomainError):
        t2_time(DecayParams(0.0, 0.0))


def test_t2_survives_sigma_squared_underflow():
    # sigma**2 = 1e-600 underflows to zero; the hypot form never squares sigma
    assert t2_time(DecayParams(1e-300, 0.0)) == pytest.approx(math.sqrt(2.0) * 1e300,
                                                               rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(0.0, 1e3))
def test_t2_is_one_over_e_time(sigma, rate):
    p = DecayParams(sigma, rate)
    assert coherence(p, t2_time(p)) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_t2_gradient_finite_difference():
    for sigma, rate in [(7.54, 0.0), (15.0, 5.14), (0.02, 0.058), (0.0, 2.0)]:
        ds, dr = t2_gradient(DecayParams(sigma, rate))
        h = 1e-6
        ref = t2_time(DecayParams(sigma, rate))
        num_dr = (t2_time(DecayParams(sigma, rate + h)) - ref) / h
        assert dr == pytest.approx(num_dr, rel=2e-5)
        if sigma > 0.0:
            num_ds = (t2_time(DecayParams(sigma + h, rate)) - ref) / h
            assert ds == pytest.approx(num_ds, rel=2e-5)


def test_t2_gradient_pure_exponential_limit():
    ds, dr = t2_gradient(DecayParams(0.0, 2.0))
    assert ds == 0.0
    assert dr == -0.25  # d(1/R)/dR = -1/R^2


def test_lifetime_correction():
    assert lifetime_corrected_t2(16.6, 105.5) == pytest.approx(19.69966254218223, rel=1e-12)
    # removing the correction inverts exactly
    t2 = lifetime_corrected_t2(16.6, 105.5)
    assert 1.0 / (1.0 / t2 + 1.0 / 105.5) == pytest.approx(16.6, rel=1e-12)
    with pytest.raises(DomainError):
        lifetime_corrected_t2(0.0, 105.5)
    with pytest.raises(DomainError):
        lifetime_corrected_t2(106.0, 105.5)


def test_thermometry_values():
    assert temperature_from_ramsey_t2star(5.49e-3, ETA_1052) == pytest.approx(
        1.7650617687260866e-05, rel=1e-12)
    assert temperature_from_ramsey_t2star(5.29e-3, ETA_1052) == pytest.approx(
        1.8317937826665814e-05, rel=1e-12)
    assert temperature_from_ramsey_t2star(0.298, ETA_780) == pytest.approx(
        1.9882917455204463e-07, rel=1e-12)


def test_thermometry_formula():
    t2star = 5.49e-3
    expect = RAMSEY_THERMOMETRY_FACTOR * 2.0 * HBAR / (ETA_1052 * BOLTZMANN * t2star)
    assert temperature_from_ramsey_t2star(t2star, ETA_1052) == pytest.approx(expect, rel=1e-12)
    assert RAMSEY_THERMOMETRY_FACTOR == 0.97


@given(st.floats(1e-4, 10.0))
def test_thermometry_self_inverse(t2star):
    temp = temperature_from_ramsey_t2star(t2star, ETA_1052)
    assert ramsey_t2star_from_temperature(temp, ETA_1052) == pytest.approx(t2star, rel=1e-12)


def test_thermometry_validation():
    with pytest.raises(DomainError):
        temperature_from_ramsey_t2star(0.0, ETA_1052)
    with pytest.raises(DomainError):
        temperature_from_ramsey_t2star(1.0, 0.0)
    with pytest.raises(DomainError):
        ramsey_t2star_from_temperature(0.0, ETA_1052)


def test_scattering_params_formulas():
    gamma = CS_D2_LINEWIDTH
    sp = scattering_params(gamma, 100.0 * gamma, gamma)
    assert sp.light_shift_rad_s == pytest.approx(gamma / 400.0, rel=1e-12)
    assert sp.scattering_rate_per_s == pytest.approx(gamma / 4.0e4, rel=1e-12)
    assert sp.t2_s == pytest.approx(2.0 / sp.scattering_rate_per_s, rel=1e-12)
    assert not sp.near_resonance


def test_scattering_params_edge_cases():
    gamma = CS_D2_LINEWIDTH
    off = scattering_params(0.0, 100.0 * gamma, gamma)
    assert off.scattering_rate_per_s == 0.0
    assert off.t2_s is None  # no photon scattering, no bound from it
    close = scattering_params(gamma, 2.0 * gamma, gamma)
    assert close.near_resonance
    with pytest.raises(DomainError):
        scattering_params(gamma, 0.0, gamma)
    with pytest.raises(DomainError):
        scattering_params(-gamma, 10.0 * gamma, gamma)
    # Omega**2 alone overflows here, the results do not: they are formed from
    # q = Omega / (2 Delta) = 0.05
    huge = scattering_params(1e200, 1e201, 1.0)
    assert huge.light_shift_rad_s == pytest.approx(2.5e198, rel=1e-15)
    assert huge.scattering_rate_per_s == pytest.approx(2.5e-3, rel=1e-15)
    assert huge.t2_s == pytest.approx(800.0, rel=1e-15)
    # a light shift Omega**2 / (4 Delta) = 2.5e309 that exceeds the float range
    with pytest.raises(TrapcohError) as err:
        scattering_params(1e300, 1e291, 1.0)
    assert err.value.kind == "non_finite"


@pytest.mark.parametrize("ratio", [1e2, 1e3, 1e4, 1e5, 1e6])
def test_scattering_rate_approaches_adiabatic_rate(ratio):
    # with Omega = Gamma the exact slow root is Omega**2 Gamma / (8 Delta**2)
    # (1 - (Gamma/Delta)**2 + ...), so the gap to 1 / t2_s closes as (Gamma/Delta)**2;
    # a fixed-step integrator misses this bound at 1e3 (2.0e-5), the textbook
    # root (b + sqrt(b**2 - Omega**2)) / 2 at 1e6 (8e-6)
    gamma = CS_D2_LINEWIDTH
    rate = scattering_decay_rate(gamma, ratio * gamma, gamma)
    t2 = scattering_params(gamma, ratio * gamma, gamma).t2_s
    assert abs(rate * t2 - 1.0) <= 2.0 / ratio ** 2


@pytest.mark.parametrize("ratio", [3.0, 10.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_scattering_rate_is_the_slow_eigenvalue(ratio, sign):
    gamma = CS_D2_LINEWIDTH
    detuning = sign * ratio * gamma
    generator = np.array([[0.0, -0.5j * gamma],
                          [-0.5j * gamma, 1j * detuning - 0.5 * gamma]])
    slowest = -np.max(np.linalg.eigvals(generator).real)
    assert scattering_decay_rate(gamma, detuning, gamma) == pytest.approx(slowest, rel=1e-10)


def test_scattering_rate_edge_cases():
    gamma = CS_D2_LINEWIDTH
    # no drive or no decay channel: the coherence never decays
    assert scattering_decay_rate(0.0, 100.0 * gamma, gamma) == 0.0
    assert scattering_decay_rate(gamma, 100.0 * gamma, 0.0) == 0.0
    with pytest.raises(DomainError):
        scattering_decay_rate(gamma, 0.0, gamma)
    # the rate scales with its arguments, also where b**2 would overflow
    big = 2.0 ** 600
    exact = big * scattering_decay_rate(1.0, 10.0, 1.0)
    assert scattering_decay_rate(big, 10.0 * big, big) == exact


@pytest.mark.parametrize("function", [scattering_params, scattering_decay_rate])
@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scattering_rejects_non_finite_inputs(function, position, bad):
    args = [CS_D2_LINEWIDTH, 100.0 * CS_D2_LINEWIDTH, CS_D2_LINEWIDTH]
    args[position] = bad
    with pytest.raises(DomainError):
        function(*args)


def test_analytic_series_matches_pointwise():
    p = DecayParams(15.0, 5.14)
    t = np.linspace(0.0, 0.2, 9)
    series = analytic_series(p, t)
    assert series.coherence == pytest.approx(coherence(p, t), rel=1e-12)
    assert np.all(series.sigma == 0.0)


def test_gaussian_mc_deterministic():
    for n_traj, n_times in ((4000, 7), (65536 + 4500, 81)):
        t = np.linspace(0.0, 0.3, n_times)
        a = gaussian_channel_mc(12.0, n_traj, 5, t)
        b = gaussian_channel_mc(12.0, n_traj, 5, t)
        assert np.array_equal(a.coherence, b.coherence)
        assert np.array_equal(a.sigma, b.sigma)


def test_gaussian_mc_tracks_analytic():
    t = np.linspace(0.0, 0.25, 11)
    n = 40000
    mc = gaussian_channel_mc(12.0, n, 3, t)
    expect = np.exp(-0.5 * 12.0 ** 2 * t ** 2)
    assert np.max(np.abs(mc.coherence - expect)) < 4.0 / math.sqrt(n)
    assert mc.coherence[0] == 1.0


def test_gaussian_mc_zero_width():
    # normal draws of scale 0 are +-0, whose cosines and rotations are exactly 1
    for t in (np.linspace(0.0, 0.5, 5), np.array([0.0, 0.1, 0.5])):
        mc = gaussian_channel_mc(0.0, 100_000, 0, t)
        assert np.array_equal(mc.coherence, np.ones(t.size))
        assert np.array_equal(mc.sigma, np.zeros(t.size))


def test_gaussian_mc_exact_at_zero_time():
    # t = 0 is row 0 of both tables, exp(0) = 1 + 0j: a sum of n exact ones
    for n_traj in (2, 50, 70_000):
        mc = gaussian_channel_mc(12.0, n_traj, 4, np.linspace(0.0, 0.3, 81))
        assert mc.coherence[0] == 1.0 and mc.sigma[0] == 0.0


def one_array_gaussian_mc(sigma, n_traj, seed, times):
    """The kernel as one (trajectory x time) array: the bytes the blocked kernel keeps."""
    phases = np.cos(np.outer(np.random.default_rng(seed).normal(0.0, sigma, size=n_traj),
                             times))
    mean = phases.sum(axis=0) / n_traj
    sem = np.sqrt(np.maximum((phases * phases).sum(axis=0) / n_traj - mean ** 2, 0.0)
                  / n_traj)
    return np.clip(mean, -0.05, 1.05), sem


def squared_grid(n_times):
    """n_times points on [0, 0.3], denser at 0: a grid that is not linspace's."""
    times = 0.3 * np.linspace(0.0, 1.0, n_times) ** 2
    assert n_times < 3 or not np.array_equal(times, np.linspace(0.0, 0.3, n_times))
    return times


@pytest.mark.parametrize("n_traj,n_times", [
    (65536 + 4500, 81),   # 87 blocks of 809 trajectories, past 65,536 draws
    (100_000, 2),         # the report's shape: four blocks of 32,768
    (100_000, 3),         # five blocks of up to 21,845
    (50, 70_000),         # more times than one block holds: one trajectory a block
    (70_000, 1),          # t = 0 alone: two blocks of cosines that are all 1
])
def test_gaussian_mc_blocks_keep_the_bytes(n_traj, n_times):
    # non-uniform grids, and one or two times, take one cosine per (trajectory, time)
    times = squared_grid(n_times)
    mc = gaussian_channel_mc(12.0, n_traj, 9, times)
    mean, sem = one_array_gaussian_mc(12.0, n_traj, 9, times)
    assert np.array_equal(mc.coherence, mean)
    assert np.array_equal(mc.sigma, sem)


def test_gaussian_mc_one_time():
    # numpy sums a lone column pairwise, not row by row: one block of 65,536
    # trajectories keeps the bytes of the one-array form, more only its value
    times = np.array([0.1])
    mc = gaussian_channel_mc(12.0, 65536, 9, times)
    assert np.array_equal([mc.coherence, mc.sigma], one_array_gaussian_mc(12.0, 65536, 9, times))
    mc = gaussian_channel_mc(12.0, 200_000, 9, times)
    np.testing.assert_allclose([mc.coherence, mc.sigma],
                               one_array_gaussian_mc(12.0, 200_000, 9, times), rtol=1e-14)


def test_gaussian_mc_grid_one_ulp_off_linspace():
    times = np.linspace(0.0, 0.3, 81)
    times[40] = np.nextafter(times[40], 1.0)
    mc = gaussian_channel_mc(12.0, 5000, 9, times)
    assert np.array_equal([mc.coherence, mc.sigma], one_array_gaussian_mc(12.0, 5000, 9, times))


def test_gaussian_mc_path_choice(monkeypatch):
    def refuse(*args):
        raise AssertionError("wrong path")

    # simulate's grids and an 81-point grid to twice T2; the report's [0, 1] and
    # any other two times cost the cosine loop less than the tables' sincos
    uniform = [np.linspace(0.0, 0.16, 33), np.linspace(0.0, 1.0, 3),
               np.linspace(0.0, 2.0 * t2_time(DecayParams(12.0, 3.0)), 81),
               np.linspace(0.05, 0.3, 70)]
    nudged = np.linspace(0.0, 0.3, 81)
    nudged[-2] = np.nextafter(nudged[-2], 0.0)
    other = [np.array([0.1]), np.array([0.0]), np.array([0.0, 1.0]), nudged,
             squared_grid(3)]
    monkeypatch.setattr(COHERENCE_MODULE, "_cosine_sums", refuse)
    for times in uniform:
        gaussian_channel_mc(12.0, 100, 1, times)
    monkeypatch.undo()
    monkeypatch.setattr(COHERENCE_MODULE, "_uniform_sums", refuse)
    for times in other:
        gaussian_channel_mc(12.0, 100, 1, times)


U = 2.0 ** -53  # unit roundoff of float64


def table_split(n_times):
    """(a, m) of the uniform-grid tables: t_k = t0 + (a j + b) h, b < a, j < m."""
    a = math.isqrt(n_times - 1) + 1
    return a, -(-n_times // a)


def phase_bound(n_times, delta_t):
    """Bound on |coarse[j] conj(fine[b]) - exp(i delta t_k)|, k = a j + b, with
    t_k the float time of np.linspace, for the tables of _phase_tables.

    - libm sin and cos are within 1 ulp, so each base exp(i theta) is off by
      at most sqrt(2) u; a complex product adds at most sqrt(5) u relative
      (Brent, Percival & Zimmermann, Math. Comp. 76, 1469 (2007)).
    - step**(2**p) after p squarings is then off by at most 2**p (sqrt(2) +
      sqrt(5)) u, and row j is one product per set bit of j, so it is off by at
      most (sqrt(2) + sqrt(5)) j u + sqrt(5) log2(2 j) u, plus sqrt(2) u for the
      coarse table's row 0. With j < m, b < a and one more product, the two rows
      give less than 4 (a + m + 3 + log2(a m)) u.
    - The phases delta (-h, a h, t0) are rounded once (a h twice), which moves
      the table's phase by at most 2 u |delta| (t0 + k h); linspace's t_k is
      t0 + k h rounded twice, or stop itself, at most 2 u t_k away: 4 u |delta t_k|.
    """
    a, m = table_split(n_times)
    return (4.0 * (a + m + 3 + math.log2(a * m)) + 4.0 * np.abs(delta_t)) * U


@pytest.mark.parametrize("sigma,times", [
    (300.0, np.linspace(0.0, 1.0, 81)),    # |delta t| up to about 800
    (300.0, np.linspace(0.25, 1.0, 70)),   # t0 > 0: the coarse table's row 0 is a sincos
    (3.0, np.linspace(0.0, 300.0, 3)),     # the fewest times the tables take
])
def test_phase_tables_match_50_digits(sigma, times):
    deltas = np.random.default_rng(5).normal(0.0, sigma, 200)
    a, m = table_split(times.size)
    coarse, fine = np.empty((m, 200), complex), np.empty((a, 200), complex)
    _phase_tables(deltas, times[0], (times[-1] - times[0]) / (times.size - 1), coarse, fine)
    table = (coarse[:, None] * fine.conj()[None]).reshape(m * a, 200)[:times.size]
    with mpmath.workdps(50):
        exact = np.array([[complex(mpmath.expj(mpmath.mpf(float(d)) * mpmath.mpf(float(t))))
                           for d in deltas] for t in times])
    assert np.all(np.abs(table - exact) <= phase_bound(times.size, np.outer(times, deltas)))


@pytest.mark.parametrize("n_traj,n_times", [
    (65536 + 4500, 81),   # 20 blocks of 3,640 trajectories
    (100_000, 3),         # the fewest times the tables take
    (50, 70_000),         # tables of 265 rows
])
def test_uniform_mc_matches_cosine_form(n_traj, n_times):
    """Mean and variance within derived bounds of the one-array cosine form.

    Per phase the tables are within phase_bound of exp(i delta t), and the
    libm cosine of the rounded phase within u |delta t| + u, less than
    phase_bound. Any order of summing K terms is off by at most (K - 1) u
    times the sum of their moduli: the cosine form sums n cosines, the tables
    2 n products (n real pairs of modulus <= 1) with their block partials, so
    the two means differ by at most 2 phase_bound + 3 n u + 2 u. The means of
    cos**2 = (1 + cos 2 delta t) / 2 differ by at most 2 phase_bound + 2 n u +
    4 u (squaring a row doubles its error), mean**2 by twice the mean's bound,
    and forming var = n sem**2 adds at most 8 u. The variance is compared, not
    sem: at t near 0 it is a cancelled difference, whose square root amplifies
    the error.
    """
    times = np.linspace(0.0, 0.3, n_times)
    mc = gaussian_channel_mc(12.0, n_traj, 9, times)
    mean, sem = one_array_gaussian_mc(12.0, n_traj, 9, times)
    reach = np.abs(np.random.default_rng(9).normal(0.0, 12.0, n_traj)).max() * times
    mean_bound = 2.0 * phase_bound(n_times, reach) + (3 * n_traj + 2) * U
    var_bound = 2.0 * phase_bound(n_times, reach) + (2 * n_traj + 12) * U + 2.0 * mean_bound
    assert np.all(np.abs(mc.coherence - mean) <= mean_bound)
    assert np.all(np.abs(n_traj * mc.sigma ** 2 - n_traj * sem ** 2) <= var_bound)


def test_gaussian_mc_memory_bounded():
    # whole-array temporaries would take 64 MB each at 20,000 trajectories x 400
    # times, on either path, and 1.1 GB at 2,000 x 70,000 (tables of 265 rows)
    for n_traj, times in ((20_000, np.linspace(0.0, 0.3, 400)), (20_000, squared_grid(400)),
                          (2_000, np.linspace(0.0, 0.3, 70_000))):
        tracemalloc.start()
        try:
            gaussian_channel_mc(12.0, n_traj, 1, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


@pytest.mark.parametrize("sigma,n_traj,times", [
    (math.nan, 100, [0.0, 1.0]),
    (math.inf, 100, [0.0, 1.0]),
    (-1.0, 100, [0.0, 1.0]),
    (1.0, 100, [0.0, math.nan]),
    (1.0, 100, [0.0, math.inf]),
    (1.0, 100, [-1.0, 0.0]),
    (1.0, math.nan, [0.0, 1.0]),
    (1.0, 1, [0.0, 1.0]),
    (1.0, 2.5, [0.0, 1.0]),          # once floored to 2 trajectories
    (1.0, math.inf, [0.0, 1.0]),     # once an OverflowError from int()
])
def test_gaussian_mc_domain(sigma, n_traj, times):
    # NaN once passed the sign check and gave C = 1 with sem 0
    with pytest.raises(DomainError):
        gaussian_channel_mc(sigma, n_traj, 1, times)


def test_gaussian_mc_takes_integral_floats():
    for times in (np.linspace(0.0, 0.3, 5), squared_grid(5)):
        a = gaussian_channel_mc(12.0, 1e4, 3, times)
        b = gaussian_channel_mc(12.0, 10_000, 3, times)
        assert np.array_equal([a.coherence, a.sigma], [b.coherence, b.sigma])


def test_gaussian_mc_phase_past_the_float_range():
    # delta t overflows at the last time, though not in the tables' phases
    # delta (-h, a h, t0), below 6e306: both paths refuse, with numpy's warning
    # or, where numpy raises (as in the CLI), its FloatingPointError
    nudged = np.linspace(0.0, 2e8, 10_000)
    nudged[1] = np.nextafter(nudged[1], 0.0)
    for times in (np.linspace(0.0, 2e8, 10_000), nudged):
        with pytest.warns(RuntimeWarning), pytest.raises(DomainError):
            gaussian_channel_mc(1e300, 100, 1, times)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            gaussian_channel_mc(1e300, 100, 1, times)


def test_series_validation():
    t = np.array([0.0, 0.1, 0.2])
    c = np.array([1.0, 0.8, 0.5])
    s = np.zeros(3)
    CoherenceSeries(t, c, s)
    with pytest.raises(DomainError):
        CoherenceSeries(t[::-1].copy(), c, s)
    with pytest.raises(DomainError):
        CoherenceSeries(t - 0.1, c, s)
    with pytest.raises(DomainError):
        CoherenceSeries(t, c + 2.0, s)
    with pytest.raises(DomainError):
        CoherenceSeries(t, c, s - 1.0)
    with pytest.raises(DomainError):
        CoherenceSeries(t, c[:2], s)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            CoherenceSeries(t, np.array([1.0, bad, 0.5]), s)
        with pytest.raises(DomainError):
            CoherenceSeries(t, c, np.array([0.0, bad, 0.0]))


def test_series_csv_round_trip(tmp_path):
    t = np.linspace(0.0, 0.16, 12)
    series = analytic_series(DecayParams(15.0, 5.14), t)
    path = tmp_path / "series.csv"
    io.write_csv(path, CoherenceSeries.COLUMNS, series.t_s, series.coherence, series.sigma)
    cols = io.read_csv(path, CoherenceSeries.COLUMNS)
    again = CoherenceSeries(*(cols[name] for name in CoherenceSeries.COLUMNS))
    assert np.array_equal(again.t_s, series.t_s)
    assert np.array_equal(again.coherence, series.coherence)
    assert np.array_equal(again.sigma, series.sigma)


def test_series_csv_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        io.read_csv(tmp_path / "missing.csv", CoherenceSeries.COLUMNS)
    assert err.value.kind == "config_not_found"
    bad = tmp_path / "bad.csv"
    for text in ("t_s,coherence,sigma\n0.0,one,0.0\n", "t_s,coherence,sigma\n0.0,nan,0.0\n"):
        bad.write_text(text)
        with pytest.raises(ConfigError) as err:
            io.read_csv(bad, CoherenceSeries.COLUMNS)
        assert err.value.kind == "parse_error"


def test_series_json_round_trip(tmp_path):
    t = np.linspace(0.0, 0.1, 6)
    series = analytic_series(DecayParams(7.54, 0.0), t)
    path = tmp_path / "series.json"
    io.write_json(path, series.to_json_obj())
    again = CoherenceSeries.from_json_obj(io.read_json(path))
    assert np.array_equal(again.t_s, series.t_s)
    assert np.array_equal(again.coherence, series.coherence)
