"""budget_scan: one in-process loop over seeded coherence-budget points.

A round is 30 points: for each trap preset (cs133, bbt780) and spring
spectrum (rin_40db, rin_free, rin_flat_140), three temperatures (one in
each third of the log range 0.5 uK .. 1 mK, spread evenly over rounds),
the 3-D ground state and one more fixed occupation: a random one (0..30
per axis) for cs133, and BBT780_OCCUPATION for bbt780. Each point
computes the DLS sigma, the jump rate (exact thermal average and
classical estimate, or the fixed-occupation rate), t2_time, the spring
PSD at 2 omega per axis and the filtered sigma of a Ramsey, echo or CPMG
sequence against a seeded DLS PSD. No scipy call and no import happen in
the loop.

t2_time is checked to T2_TOL against trapcoh's own sigma and rate at the
fixed occupations, and against the reference sigma and rate, to their
tolerances, at the temperatures. Its closed form cancels where the rate
dwarfs sigma (see CHANGES.md): at BBT780_OCCUPATION the depth and phonon
terms of the blue-detuned DLS sigma cancel to 5e-7 rad/s, and under
rin_40db and rin_free t2_time misses the root by 1e-5 and 7e-10. Those
two points fail in every round (counted as failed, not as wrong output);
no random cs133 occupation misses by more than 6e-14.
"""

from __future__ import annotations

import math

import numpy as np

import refs
from common import (MOMENT_REL, PRESETS, SPRINGS, KnownFault, Op, first_problem,
                    log_uniform, loglog_array, power_law_dls, rel_err, round_rng,
                    spring_samples, stratified_temperatures, t2_problem,
                    temperature_band, trap_dict)

WORKLOAD_ID = 2
SEQUENCES = ("ramsey", "echo", "cpmg")
BAND = (1e-4, 1e3)  # Hz, trapcoh's default filtered_sigma band
BBT780_OCCUPATION = (5, 3, 5)


class BudgetScan:
    name = "budget_scan"

    def __init__(self, tc, tracer, seed, workdir):
        self.tc = tc
        self.tr = tracer
        self.seed = seed
        self.traps = {p: tc.TrapConfig.load_preset(p) for p in PRESETS}
        self.springs = {s: tc.NoiseSpectrum.load_preset(s) for s in SPRINGS}
        self.noises = {s: tc.TrapNoise.uniform(spring=spec) for s, spec in self.springs.items()}
        # the temperatures set most of a point's cost, so they follow
        # even_uniform from per-run offsets rather than fresh draws
        self.offsets = np.random.default_rng([seed, WORKLOAD_ID]).random((len(PRESETS),
                                                                           len(SPRINGS), 3))

    def _sequence(self, kind, rng):
        tc = self.tc
        if kind == "cpmg":
            n, interval = int(rng.integers(2, 21)), log_uniform(rng, 1e-3, 0.1)
            return tc.cpmg(n, interval), n * interval, refs.cpmg_pulses(n, interval)
        t_total = log_uniform(rng, 1e-3, 1.0)
        seq = tc.ramsey(t_total) if kind == "ramsey" else tc.spin_echo(t_total)
        return seq, t_total, [] if kind == "ramsey" else [0.5 * t_total]

    def point(self, preset, spring, occupation, seq_kind, rng):
        """One budget point; occupation is a temperature (K) or three integers."""
        tc, tr = self.tc, self.tr
        cfg, spec, noise = self.traps[preset], self.springs[spring], self.noises[spring]
        seq, t_total, pulses = self._sequence(seq_kind, rng)
        dls_f, dls_p = power_law_dls(rng)
        dls = tc.NoiseSpectrum("dls", dls_f, dls_p)
        omegas = cfg.omegas

        def run():
            out = {"psd_2w": [tr.call("noise.evaluate", spec.evaluate, w / math.pi)
                              for w in omegas]}
            if np.ndim(occupation) == 0:
                band = temperature_band(occupation)
                dist = tc.ThermalOccupation.from_temperature(occupation, cfg)
                out["nbar"] = dist.means
                out["sigma"] = tr.call(f"trap.thermal_average_dls_sigma.{band}",
                                       tc.thermal_average_dls_sigma, cfg, dist)
                out["pjr"] = tr.call(f"phonon.thermal_average_pjr.{band}",
                                     tc.thermal_average_pjr, cfg, noise, dist)
                out["classical"] = tr.call("phonon.classical_thermal_rate",
                                           tc.classical_thermal_rate, cfg, noise, occupation)
            else:
                occ = tc.FixedOccupation(*occupation)
                out["sigma"] = abs(tr.call("trap.dls_sigma", tc.dls_sigma, cfg, occ))
                out["pjr"] = tr.call("phonon.total_jump_rate", tc.total_jump_rate,
                                     cfg, noise, occ).total
            out["t2"] = tr.call("coherence.t2_time", tc.t2_time,
                                tc.DecayParams(out["sigma"], out["pjr"]))
            out["sigma_eff"] = tr.call("sequences.filtered_sigma", tc.filtered_sigma, seq, dls)
            return out

        def check(out):
            freqs, values = spring_samples(spec)
            psd = [refs.loglog(freqs, values, w / math.pi) for w in omegas]
            bad = [f"psd at 2w {a!r} vs {b!r}" for a, b in zip(out["psd_2w"], psd)
                   if rel_err(a, b) > 1e-9]
            if np.ndim(occupation) == 0:
                moments = [refs.thermal_moments(float(n)) for n in out["nbar"]]
                sigma, scale = refs.dls_sigma(trap_dict(cfg), moments)
                pjr = sum(refs.spring_rate(w, s, m1, m2)
                          for w, s, (m1, m2) in zip(omegas, psd, moments))
                classical = refs.classical_rate(occupation, psd)
                if rel_err(out["classical"], classical) > 1e-8:
                    bad.append(f"classical rate {out['classical']!r} vs {classical!r}")
            else:
                sigma, scale = refs.dls_sigma(trap_dict(cfg), occupation)
                pjr = sum(refs.spring_rate(w, s, n, n * n)
                          for w, s, n in zip(omegas, psd, occupation))
            sigma_tol = MOMENT_REL * sigma + 1e-12 * scale
            if abs(out["sigma"] - sigma) > sigma_tol:
                bad.append(f"dls sigma {out['sigma']!r} vs {sigma!r}")
            if rel_err(out["pjr"], pjr) > MOMENT_REL:
                bad.append(f"jump rate {out['pjr']!r} vs {pjr!r}")
            if np.ndim(occupation) == 0:
                bad.append(t2_problem(out["t2"], sigma, pjr, sigma_tol, MOMENT_REL * pjr))
            sigma_eff = refs.filtered_sigma(seq_kind, t_total, pulses,
                                            lambda f: loglog_array(dls_f, dls_p, f), BAND)
            if rel_err(out["sigma_eff"], sigma_eff) > 1e-6:
                bad.append(f"{seq_kind} sigma_eff {out['sigma_eff']!r} vs {sigma_eff!r}")
            problem = first_problem(*bad)
            if problem is None and np.ndim(occupation) != 0:
                fault = t2_problem(out["t2"], out["sigma"], out["pjr"])
                if fault:
                    raise KnownFault(fault)
            return problem

        kind = "thermal" if np.ndim(occupation) == 0 else "fixed"
        return Op(kind, run, check)

    def round(self, index):
        rng = round_rng(self.seed, WORKLOAD_ID, index)
        ops = []
        for i, preset in enumerate(PRESETS):
            for j, spring in enumerate(SPRINGS):
                occupations = stratified_temperatures(self.offsets[i, j], index) + [(0, 0, 0)]
                occupations.append(tuple(int(n) for n in rng.integers(0, 31, 3))
                                   if preset == "cs133" else BBT780_OCCUPATION)
                for occ in occupations:
                    ops.append(self.point(preset, spring, occ,
                                          SEQUENCES[len(ops) % len(SEQUENCES)], rng))
        return ops

    def warmup_ops(self):
        rng = np.random.default_rng(0)
        return [self.point("cs133", "rin_40db", 14e-6, "cpmg", rng),
                self.point("bbt780", "rin_flat_140", (0, 0, 0), "ramsey", rng)]
