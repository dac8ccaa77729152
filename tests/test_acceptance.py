"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 4 has two clauses; the second (classical thermal form within 3%
of the exact thermal average for nbar >= 20) is mathematically unattainable
for the geometric distribution, where E[n^2] = 2 nbar^2 + nbar makes the
exact average approach twice the classical form. It is asserted as stated
and fails honestly; every other criterion passes.
"""

import math

import numpy as np

import trapcoh as tc
from trapcoh.constants import CS_D2_LINEWIDTH


def verdict(number, ok, description):
    state = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {state} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def test_criterion_1_t2_closed_form():
    checks = [
        (tc.t2_time(tc.DecayParams(7.54, 0.0)), 0.188, 0.03),
        (tc.t2_time(tc.DecayParams(15.0, 5.14)), 0.075, 0.03),
        (tc.t2_time(tc.DecayParams(0.51, 0.0)), 2.8, 0.05),
        (tc.t2_time(tc.DecayParams(0.02, 0.058)), 16.6, 0.05),
    ]
    ok = all(within(got, target, rel) for got, target, rel in checks)
    verdict(1, ok, "T2 closed form reproduces the four reference coherence times")


def test_criterion_2_thermal_rate_estimates():
    cfg = tc.TrapConfig.load_preset("cs133")
    forty = tc.TrapNoise.uniform(spring=tc.NoiseSpectrum.load_preset("rin_40db"))
    free = tc.TrapNoise.uniform(spring=tc.NoiseSpectrum.load_preset("rin_free"))
    r40 = tc.classical_thermal_rate(cfg, forty, 14e-6)
    rfree = tc.classical_thermal_rate(cfg, free, 14e-6)
    ok = within(r40, 6.5, 0.15) and within(r40 - rfree, 6.0, 0.15)
    verdict(2, ok, "thermal jumping rate at 14 uK: 40-dB case ~6.5/s, excess ~6.0/s")


def test_criterion_3_lifetime_correction():
    got = tc.lifetime_corrected_t2(16.6, 105.5)
    verdict(3, within(got, 19.7, 0.01), "lifetime correction maps (16.6 s, 105.5 s) to 19.7 s")


def test_criterion_4_rate_identity_and_classical_limit():
    cfg = tc.TrapConfig.load_preset("cs133")
    noise = tc.TrapNoise.uniform(
        spring=tc.NoiseSpectrum.load_preset("rin_40db"),
        position=tc.NoiseSpectrum.flat(1e-22, kind="position"))
    mass = cfg.species.mass_kg

    identity_ok = True
    for axis, omega in zip("xyz", cfg.omegas):
        s_k = noise.spring_omega(axis, 2.0 * omega)
        s_x = noise.position_omega(axis, omega)
        for n in range(0, 51):
            channels = (tc.intensity_jump_rate(omega, s_k, n, 2)
                        + tc.intensity_jump_rate(omega, s_k, n, -2)
                        + tc.pointing_jump_rate(omega, mass, s_x, n, 1)
                        + tc.pointing_jump_rate(omega, mass, s_x, n, -1))
            closed = tc.axis_jump_rate(omega, mass, s_k, s_x, n)
            if abs(closed / channels - 1.0) >= 1e-12:
                identity_ok = False

    # clause 2: classical form vs exact thermal average, all axes nbar >= 20;
    # spring noise only, the dominant mechanism, so the quadratic channel is
    # actually exercised rather than hidden under a linear one
    spring_only = tc.TrapNoise.uniform(spring=tc.NoiseSpectrum.load_preset("rin_40db"))
    classical_ok = True
    ratios = []
    for temperature in (60e-6, 120e-6):
        occ = tc.ThermalOccupation.from_temperature(temperature, cfg)
        assert min(occ.means) >= 20.0
        classical = tc.classical_thermal_rate(cfg, spring_only, temperature)
        exact = tc.thermal_average_pjr(cfg, spring_only, occ)
        ratios.append(exact / classical)
        if not within(classical, exact, 0.03):
            classical_ok = False

    ok = identity_ok and classical_ok
    identity_word = "holds" if identity_ok else "broken"
    classical_word = ("holds" if classical_ok
                      else "fails, the exact average of the occupation-squared "
                           "channel approaches twice the classical form "
                           f"(exact/classical = {ratios[0]:.3f}, {ratios[1]:.3f})")
    verdict(4, ok, "per-level rate identity to 1e-12; classical form within 3% "
                   "of the exact thermal average for nbar >= 20 "
                   f"(identity {identity_word}; classical clause {classical_word})")


def test_criterion_5_monte_carlo_vs_analytic():
    n_traj = 100000
    bound = 4.0 / math.sqrt(n_traj)
    ok = True
    worst = 0.0
    for i, sigma in enumerate((0.0, 0.5, 5.0)):
        for j, rate in enumerate((0.0, 0.5, 5.0)):
            if sigma == 0.0 and rate == 0.0:
                t_max = 1.0
            else:
                t_max = 2.0 * tc.t2_time(tc.DecayParams(sigma, rate))
            t = np.linspace(0.0, t_max, 17)
            gauss = tc.gaussian_channel_mc(sigma, n_traj, 300 + i, t)
            jump = tc.first_jump_survival_mc(rate, n_traj, 600 + j, t)
            product = gauss.coherence * jump
            expect = np.exp(-0.5 * sigma ** 2 * t ** 2 - rate * t)
            gap = float(np.max(np.abs(product - expect)))
            worst = max(worst, gap)
            if gap >= bound:
                ok = False
    verdict(5, ok, "product-channel Monte Carlo matches the closed form on the "
                   f"3x3 parameter grid (worst gap {worst:.2e}, bound {bound:.2e})")


def test_criterion_6_scattering_oracle():
    gamma = CS_D2_LINEWIDTH
    exact = tc.scattering_decay_rate(gamma, 100.0 * gamma, gamma)
    adiabatic = tc.scattering_params(gamma, 100.0 * gamma, gamma)
    rel = abs(exact * adiabatic.t2_s - 1.0)
    verdict(6, rel < 0.01, "the exact two-level eigenvalue confirms the far-detuned "
                           f"scattering decay rate (relative gap {rel:.2e})")


def local_minima(f, values, depth):
    inner = (values[1:-1] < values[:-2]) & (values[1:-1] <= values[2:])
    return f[1:-1][inner & (values[1:-1] < depth)]


def phase_quadrature_sweep(seq, freqs, dt):
    edges = seq.boundaries()
    tt = np.arange(0.0, seq.t_total_s, dt) + 0.5 * dt
    signs = (-1.0) ** (np.searchsorted(edges, tt, side="right") - 1)
    out = np.empty(freqs.size)
    for start in range(0, freqs.size, 400):
        w = 2.0 * math.pi * freqs[start:start + 400][:, None]
        amp = np.sum(signs[None, :] * np.exp(1j * w * tt[None, :]), axis=1) * dt
        out[start:start + 400] = np.abs(amp) ** 2 / seq.t_total_s ** 2
    return out


def test_criterion_7_filter_zeros_and_suppression():
    # grid step divides the 1/16 Hz comb so every zero lands on a sample;
    # 1e-3 Hz is the match tolerance
    step = 2.5e-4
    freqs = np.arange(step, 5.0, step)
    zeros_ok = True
    counts = []
    for n in (1, 5, 20):
        seq = tc.cpmg(n, 0.8)
        analytic = tc.filter_function(seq, freqs)
        za = local_minima(freqs, analytic, 1e-10)
        quadrature = phase_quadrature_sweep(seq, freqs, 0.4 / 128.0)
        zt = local_minima(freqs, quadrature, float(np.max(quadrature)) * 1e-4)
        counts.append((n, za.size, zt.size))
        if za.size == 0 or za.size != zt.size:
            zeros_ok = False
            continue
        if np.max(np.min(np.abs(za[:, None] - zt[None, :]), axis=1)) > 1e-3:
            zeros_ok = False

    low = tc.NoiseSpectrum("spring_fractional",
                           np.array([1e-4, 0.01, 0.0101, 1.0]),
                           np.array([1.0, 1.0, 1e-30, 1e-30]))
    slow = tc.filtered_sigma(tc.ramsey(16.0), low)
    fast = tc.filtered_sigma(tc.cpmg(20, 0.8), low)
    suppression = slow / fast
    ok = zeros_ok and suppression > 100.0
    verdict(7, ok, "analytic filter zeros coincide with the time-domain sweep "
                   f"(counts {counts}); 20-pulse train suppresses slow noise "
                   f"x{suppression:.0f}")


def test_criterion_8_fit_recovery():
    truth = tc.DecayParams(15.0, 5.14)
    t = np.linspace(0.0, 0.16, 12)
    clean = tc.coherence(truth, t)
    hits = 0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        noisy = np.clip(clean + rng.normal(0.0, 0.03, size=t.size), -0.05, 1.05)
        result = tc.fit_coherence_decay(t, noisy, sigma=np.full(t.size, 0.03))
        ok_sigma = abs(result.params["sigma_dls_rad_s"] - 15.0) \
            <= 3.0 * result.uncertainties["sigma_dls_rad_s"]
        ok_rate = abs(result.params["pjr_per_s"] - 5.14) \
            <= 3.0 * result.uncertainties["pjr_per_s"]
        hits += ok_sigma and ok_rate

    series = tc.analytic_series(truth, t)
    exact = tc.fit_coherence_decay(series)
    clean_ok = (within(exact.params["sigma_dls_rad_s"], 15.0, 1e-6)
                and within(exact.params["pjr_per_s"], 5.14, 1e-6))
    ok = hits >= 95 and clean_ok
    verdict(8, ok, f"seeded refits recover both decay parameters within 3 sigma "
                   f"in {hits}/100 runs; noiseless round trip to 1e-6")


def test_criterion_9_psd_pipeline():
    rng = np.random.default_rng(909)
    fs = 50e3
    series = tc.TimeSeries(fs, 1.0 + 4e-3 * rng.standard_normal(2 ** 16))
    psd = tc.estimate_psd(series, segment_length=4096)
    integral = float(np.trapezoid(psd.psd, psd.frequencies_hz))
    parseval_ok = within(integral, tc.relative_variance(series) ** 2, 0.05)

    levels = np.linspace(-180.0, 0.0, 241)
    round_trip = max(abs(tc.psd_to_dbc(tc.dbc_to_psd(lv)) - lv) for lv in levels)
    table_ok = (within(tc.dbc_to_psd(-104.0), 3.98e-11, 0.005)
                and within(tc.dbc_to_psd(-146.0), 2.51e-15, 0.005)
                and tc.dbc_to_psd(0.0) == 1.0)
    ok = parseval_ok and round_trip < 1e-12 and table_ok
    verdict(9, ok, "white-noise Parseval within 5%; dBc round trip bit-stable; "
                   "table entries convert to the stated linear values")


def test_criterion_10_declared_scale_checks():
    bbt = tc.TrapConfig.load_preset("bbt780")
    sigma = abs(tc.dls_sigma(bbt, tc.FixedOccupation(0, 0, 0)))
    sigma_ok = abs(math.log10(sigma / 3.0e-3)) <= 0.5
    flat = tc.TrapNoise.uniform(spring=tc.NoiseSpectrum.load_preset("rin_flat_140"))
    rate = tc.total_jump_rate(bbt, flat, tc.FixedOccupation(0, 0, 0)).total
    rate_ok = rate < 1e-5 and abs(math.log10(rate / 2.5e-6)) <= 0.5

    eta_1052 = tc.cesium_eta(1052e-9)
    eta_780 = tc.cesium_eta(780e-9)
    temps_ok = (
        within(tc.temperature_from_ramsey_t2star(5.49e-3, eta_1052), 17.6e-6, 0.25)
        and within(tc.temperature_from_ramsey_t2star(5.29e-3, eta_1052), 18.3e-6, 0.25)
        and within(tc.temperature_from_ramsey_t2star(0.298, eta_780), 200e-9, 0.25))
    ok = sigma_ok and rate_ok and temps_ok
    verdict(10, ok, "ground-state DLS spread and jump-rate bounds at the "
                    "declared order of magnitude; derived shift ratios "
                    "reproduce the reference temperatures within 25%")
