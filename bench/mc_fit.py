"""mc_fit: one in-process loop over the measurement pipeline.

A round is seven operations, an odd number of kinds so that the median
operation falls inside one kind's spread and not in a gap between two:
- mc: gaussian_channel_mc and first_jump_survival_mc on an 81-point grid
  to twice T2, 1e4..1e5 trajectories, log-spread evenly over rounds (so
  every run reaches the 65536-trajectory block that sets peak memory);
- fit_coherence, fit_ramsey, fit_exponential: weighted fits of data drawn
  here from known parameters with Gaussian noise;
- fringe: simulate_fringe after a CPMG sequence, then fit_fringe;
- filter: sample_filter of that sequence on 2000..20000 frequencies;
- welch: estimate_psd of a seeded white RIN trace (a pool of four traces
  of 2^18, 2^19, 2^20 and 2^19 samples at 250 kHz, used in turn), fed as
  the spring spectrum into thermal_average_pjr.
"""

from __future__ import annotations

import math

import numpy as np

import refs
from common import (MC_Z, PRESETS, WELCH_REL, Op, decay_data, even_uniform, first_problem,
                    log_between, log_uniform, rel_err, round_rng, within)

WORKLOAD_ID = 3
FS = 250e3                      # Hz; Nyquist above every preset's 2 omega / 2 pi
TRACE_SIZES = (2 ** 18, 2 ** 19, 2 ** 20, 2 ** 19)
GRID = 81


class McFit:
    name = "mc_fit"

    def __init__(self, tc, tracer, seed, workdir):
        self.tc = tc
        self.tr = tracer
        self.seed = seed
        self.traps = {p: tc.TrapConfig.load_preset(p) for p in PRESETS}
        self.eta = self.traps["cs133"].eta
        self._traces = {}
        self.traj_offset = np.random.default_rng([seed, WORKLOAD_ID]).random()
        self.first_round = False

    def count_nfev(self, fit):
        """Fit evaluations, over round 0 only, so that the count repeats
        exactly for a seed however many rounds a run reaches."""
        if self.first_round:
            self.tr.count("fitting.nfev", fit.n_iter)

    def trace(self, i):
        """Pool trace i: (sigma_r, TimeSeries) of white fractional noise."""
        if i not in self._traces:
            rng = np.random.default_rng([self.seed, WORKLOAD_ID, 1000 + i])
            sigma_r = log_uniform(rng, 1e-4, 1e-2)
            x = 0.02 * (1.0 + sigma_r * rng.standard_normal(TRACE_SIZES[i]))
            self._traces[i] = (sigma_r, self.tc.TimeSeries(FS, x))
        return self._traces[i]

    def mc(self, sigma, rate, n_traj, seed):
        tc, tr = self.tc, self.tr
        grid = np.linspace(0.0, 2.0 * refs.t2(sigma, rate), GRID)

        def run():
            g = tr.call("coherence.gaussian_channel_mc", tc.gaussian_channel_mc,
                        sigma, n_traj, seed, grid)
            s = tr.call("phonon.first_jump_survival_mc", tc.first_jump_survival_mc,
                        rate, n_traj, seed + 1, grid)
            tr.count("coherence.mc_cos", n_traj * grid.size)
            return g.coherence * s

        def check(curve):
            z = refs.mc_decay_z(sigma, rate, n_traj, grid, curve)
            return None if z <= MC_Z else f"mc curve {z:.2f} standard errors off C(t)"

        return Op("mc", run, check)

    def fit_coherence(self, rng):
        tc, tr = self.tc, self.tr
        sigma, rate, t, y, err = decay_data(rng)
        series = tc.CoherenceSeries(t, y, err)

        def run():
            fit = tr.call("fitting.fit_coherence_decay", tc.fit_coherence_decay, series)
            self.count_nfev(fit)
            return fit

        def check(fit):
            p, u = fit.params, fit.uncertainties
            return first_problem(
                within("sigma_dls", p["sigma_dls_rad_s"], sigma, u["sigma_dls_rad_s"]),
                within("pjr", p["pjr_per_s"], rate, u["pjr_per_s"]))

        return Op("fit_coherence", run, check)

    def fit_ramsey(self, rng):
        tc, tr = self.tc, self.tr
        sigma, rate, t, y, err = decay_data(rng)
        series = tc.CoherenceSeries(t, y, err)

        def run():
            fit = tr.call("fitting.fit_ramsey_decay", tc.fit_ramsey_decay, series, self.eta)
            self.count_nfev(fit)
            return fit

        def check(fit):
            p, u = fit.params, fit.uncertainties
            temp = refs.ramsey_temperature(p["t2star_s"], self.eta)
            if rel_err(p["temperature_k"], temp) > 1e-9:
                return f"ramsey temperature {p['temperature_k']!r} vs {temp!r}"
            return within("t2star", p["t2star_s"], refs.t2(sigma, rate), u["t2star_s"])

        return Op("fit_ramsey", run, check)

    def fringe(self, rng):
        """A fringe op and a filter op on the same seeded CPMG sequence."""
        tc, tr = self.tc, self.tr
        sigma, rate = log_uniform(rng, 5.0, 20.0), log_uniform(rng, 2.0, 10.0)
        loss = rng.uniform(0.1, 1.5)            # -ln C at the end of the sequence
        n = int(rng.integers(1, 21))
        interval = refs.t2(sigma / math.sqrt(loss), rate / loss) / n
        t_total = n * interval
        seq = tc.cpmg(n, interval)
        params = tc.DecayParams(sigma, rate)
        phases = np.linspace(-math.pi, math.pi, 24, endpoint=False)
        shots, fseed = int(rng.integers(200, 1001)), int(rng.integers(2 ** 31))
        freqs = np.logspace(math.log10(0.1 / t_total), math.log10(1e3 / t_total),
                            int(rng.integers(2000, 20001)))

        def run_fringe():
            sample = tr.call("sequences.simulate_fringe", tc.simulate_fringe,
                             params, seq, phases, shots, fseed)
            fit = tr.call("fitting.fit_fringe", tc.fit_fringe,
                          sample.phases_rad, sample.population, sample.sigma)
            self.count_nfev(fit)
            return fit

        def check_fringe(fit):
            p, u = fit.params, fit.uncertainties
            dphi = (p["phase_rad"] + math.pi) % (2.0 * math.pi) - math.pi
            return first_problem(
                within("amplitude", p["amplitude"], float(refs.decay(sigma, rate, t_total)),
                       u["amplitude"]),
                within("phase", dphi, 0.0, u["phase_rad"]),
                within("baseline", p["baseline"], 0.5, u["baseline"]))

        def run_filter():
            curve = tr.call("sequences.sample_filter", tc.sample_filter, seq, freqs)
            tr.count("sequences.filter_points", freqs.size)
            return curve

        def check_filter(curve):
            want = refs.segment_filter(freqs, refs.cpmg_pulses(n, interval), t_total)
            off = np.abs(curve.values - want) > 1e-9 + 1e-7 * want
            if np.any(off):
                return f"cpmg-{n} filter off the segment sum at {int(off.sum())} points"
            return None

        return [Op("fringe", run_fringe, check_fringe), Op("filter", run_filter, check_filter)]

    def fit_exponential(self, rng):
        tc, tr = self.tc, self.tr
        p0, tau = rng.uniform(0.8, 1.0), log_uniform(rng, 0.5, 10.0)
        t = np.linspace(0.0, 3.0 * tau, 30)
        noise = log_uniform(rng, 0.005, 0.02)
        y = p0 * np.exp(-t / tau) + rng.normal(0.0, noise, t.size)
        err = np.full(t.size, noise)

        def run():
            fit = tr.call("fitting.fit_exponential", tc.fit_exponential, t, y, err)
            self.count_nfev(fit)
            return fit

        def check(fit):
            p, u = fit.params, fit.uncertainties
            return first_problem(within("amplitude", p["amplitude"], p0, u["amplitude"]),
                                 within("lifetime", p["lifetime_s"], tau, u["lifetime_s"]))

        return Op("fit_exponential", run, check)

    def welch(self, sigma_r, series, segment, preset, temperature):
        tc, tr = self.tc, self.tr
        cfg = self.traps[preset]

        def run():
            psd = tr.call("noise.estimate_psd", tc.estimate_psd, series, segment, 0.5)
            tr.count("noise.welch_samples", series.samples.size)
            dist = tc.ThermalOccupation.from_temperature(temperature, cfg)
            pjr = tr.call("phonon.thermal_average_pjr.welch", tc.thermal_average_pjr,
                          cfg, tc.TrapNoise.uniform(spring=psd), dist)
            return psd, dist.means, pjr

        def check(result):
            psd, nbar, pjr = result
            x = series.samples
            level = refs.white_welch_level(sigma_r, FS)
            mean_level = float(np.mean(psd.psd[:-1]))     # the Nyquist bin is halved
            integral = float(np.sum(0.5 * (psd.psd[1:] + psd.psd[:-1])
                                    * np.diff(psd.frequencies_hz)))
            variance = float(x.std() / x.mean()) ** 2
            s_2w = [refs.loglog(psd.frequencies_hz, psd.psd, w / math.pi) for w in cfg.omegas]
            want = sum(refs.spring_rate(w, s, *refs.thermal_moments(float(n)))
                       for w, s, n in zip(cfg.omegas, s_2w, nbar))
            return first_problem(
                None if rel_err(mean_level, level) <= WELCH_REL else
                f"welch level {mean_level!r} vs 2 sigma^2/fs {level!r}",
                None if rel_err(integral, variance) <= WELCH_REL else
                f"psd integral {integral!r} vs variance {variance!r}",
                None if rel_err(pjr, want) <= 1e-6 else f"welch jump rate {pjr!r} vs {want!r}")

        return Op("welch", run, check)

    def round(self, index):
        rng = round_rng(self.seed, WORKLOAD_ID, index)
        self.first_round = index == 0
        n_traj = int(log_between(1e4, 1e5, even_uniform(self.traj_offset, index)))
        mc = self.mc(log_uniform(rng, 5.0, 30.0), log_uniform(rng, 0.5, 20.0),
                     n_traj, int(rng.integers(2 ** 31)))
        ops = [mc, self.fit_coherence(rng), self.fit_ramsey(rng), *self.fringe(rng),
               self.fit_exponential(rng)]
        sigma_r, series = self.trace(index % len(TRACE_SIZES))
        ops.append(self.welch(sigma_r, series, int(2 ** rng.integers(10, 15)),
                              PRESETS[index % len(PRESETS)], log_uniform(rng, 1e-6, 50e-6)))
        return ops

    def warmup_ops(self):
        rng = np.random.default_rng(0)
        self.first_round = False
        x = 0.02 * (1.0 + 1e-3 * rng.standard_normal(2 ** 16))
        return [self.mc(10.0, 5.0, 10_000, 0), self.fit_coherence(rng), self.fit_ramsey(rng),
                *self.fringe(rng), self.fit_exponential(rng),
                self.welch(1e-3, self.tc.TimeSeries(FS, x), 4096, "cs133", 14e-6)]
