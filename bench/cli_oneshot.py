"""cli_oneshot: a seeded mix of all six subcommands, each a fresh process.

A round is 13 commands, each run as `python -m trapcoh ...` with the
checkout's src/ first on PYTHONPATH, one child at a time:
- simulate in preset/thermal mode and in explicit-parameter mode;
- fit with the coherence, ramsey, fringe and exponential models, on CSV
  data written here from known parameters;
- psd on a 100000-row power trace (white RIN at 250 kHz);
- filter: CPMG-20 and echo with --dls-psd, Ramsey without;
- estimate-rates at a temperature and at a fixed occupation;
- report.
The wall time of a command runs from spawn to exit. The traced run also
times cli.main(argv) in this process after each command.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import refs
from common import (CHILD_TIMEOUT_S, MC_Z, MOMENT_REL, PRESETS, SPRINGS, T_MAX, T_MIN,
                    WELCH_REL, Op, child_timeout, decay_data, first_problem, log_uniform,
                    loglog_array, power_law_dls, rel_err, round_rng, spring_samples,
                    t2_problem, trap_dict, within)

WORKLOAD_ID = 1
TRACE_ROWS = 100_000
FS = 250e3
SIMULATE_TRAJECTORIES = 20_000   # fixed: it sets the largest child's memory


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_csv(path, header, columns):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def proc_io():
    """(rchar, wchar) of this process: bytes passed to read and write calls."""
    with open("/proc/self/io") as fh:
        fields = dict(line.split(":") for line in fh)
    return int(fields["rchar"]), int(fields["wchar"])


class CliOneshot:
    name = "cli_oneshot"

    def __init__(self, tc, tracer, seed, workdir):
        import trapcoh.cli
        import trapcoh.report
        self.tc = tc
        self.cli = trapcoh.cli
        self.report = trapcoh.report
        self.tr = tracer
        self.seed = seed
        self.dir = Path(workdir) / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.traps = {p: tc.TrapConfig.load_preset(p) for p in PRESETS}
        self.springs = {s: tc.NoiseSpectrum.load_preset(s) for s in SPRINGS}
        src = str(Path(tc.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.env.pop("TRAPCOH_OUTDIR", None)
        self.peak_rss_kb = 0

    # -- running one command ------------------------------------------------

    def spawn(self, argv, label):
        """Run one command as a fresh process; (exit code, stdout, stderr)."""
        out_path, err_path = self.dir / f"{label}.stdout", self.dir / f"{label}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "trapcoh", *argv], cwd=self.dir,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            with child_timeout(proc, CHILD_TIMEOUT_S):
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def command(self, label, argv, check, inproc_extra=None):
        """An op that runs argv as a child; its in-process twin runs when traced."""
        cmd = argv[0]

        def run():
            code, out, err = self.tr.call(f"cli.{cmd}.wall", self.spawn, argv, label)
            if code != 0:
                raise RuntimeError(f"{label} exited {code}: {err.strip()[-300:]}")
            return json.loads(out)

        def inproc():
            before = proc_io()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = self.tr.call(f"cli.{cmd}.inproc", self.cli.main, list(argv))
            after = proc_io()
            self.tr.count("cli.bytes_read", after[0] - before[0])
            self.tr.count("cli.bytes_written", after[1] - before[1])
            self.tr.count("cli.inproc_ops", 1)
            if code != 0:
                raise RuntimeError(f"in-process {label} exited {code}")
            if inproc_extra is not None:
                inproc_extra()

        return Op(label, run, check, inproc)

    def outdir(self, label):
        d = self.dir / "out" / label
        d.mkdir(parents=True, exist_ok=True)
        return d

    # -- the commands -------------------------------------------------------

    def thermal_reference(self, preset, spring, temperature):
        """(sigma, R, scale of sigma's terms) from closed-form moments of trapcoh's nbar."""
        cfg = self.traps[preset]
        nbar = self.tc.ThermalOccupation.from_temperature(temperature, cfg).means
        moments = [refs.thermal_moments(float(n)) for n in nbar]
        psd = self.psd_2w(cfg, spring)
        sigma, scale = refs.dls_sigma(trap_dict(cfg), moments)
        return sigma, sum(refs.spring_rate(w, s, m1, m2)
                          for w, s, (m1, m2) in zip(cfg.omegas, psd, moments)), scale

    def psd_2w(self, cfg, spring):
        freqs, values = spring_samples(self.springs[spring])
        return [refs.loglog(freqs, values, w / math.pi) for w in cfg.omegas]

    def simulate(self, label, rng, thermal):
        out = self.outdir(label)
        n_traj, seed = SIMULATE_TRAJECTORIES, int(rng.integers(2 ** 31))
        if thermal:
            preset, spring = PRESETS[int(rng.integers(2))], SPRINGS[int(rng.integers(3))]
            temperature = log_uniform(rng, T_MIN, T_MAX)
            sigma, rate, scale = self.thermal_reference(preset, spring, temperature)
            source = ["--config", preset, "--spring-psd", spring,
                      "--temperature", repr(temperature)]
        else:
            sigma, rate, scale = log_uniform(rng, 1.0, 30.0), log_uniform(rng, 0.5, 10.0), 0.0
            source = ["--sigma-dls", repr(sigma), "--pjr", repr(rate)]
        argv = ["simulate", *source, "--t-max", repr(2.0 * refs.t2(sigma, rate)),
                "--points", "81", "--n-traj", str(n_traj), "--seed", str(seed),
                "--outdir", str(out)]

        def check(doc):
            s, r = doc["params"]["sigma_dls_rad_s"], doc["params"]["pjr_per_s"]
            analytic, mc = read_csv(out / "analytic.csv"), read_csv(out / "montecarlo.csv")
            t = analytic[:, 0]
            z = refs.mc_decay_z(s, r, n_traj, mc[:, 0], mc[:, 1])
            sigma_tol = MOMENT_REL * sigma + 1e-12 * scale
            return first_problem(
                None if abs(s - sigma) <= sigma_tol else f"sigma {s!r} vs {sigma!r}",
                None if rel_err(r, rate) <= MOMENT_REL else f"pjr {r!r} vs {rate!r}",
                None if np.allclose(analytic[:, 1], refs.decay(s, r, t), rtol=1e-12,
                                    atol=1e-15) else "analytic.csv off the decay law",
                None if z <= MC_Z else f"montecarlo.csv {z:.2f} standard errors off",
                # thermal sigma and rate are known to their tolerances; explicit
                # ones exactly (and there t2_time's cancellation stays < 1e-14)
                t2_problem(doc["t2_s"], sigma, rate, sigma_tol, MOMENT_REL * rate) if thermal
                else t2_problem(doc["t2_s"], s, r))

        return self.command(label, argv, check)

    def fit_decay(self, label, rng, model):
        out = self.outdir(label)
        sigma, rate, t, y, err = decay_data(rng)
        data = self.dir / f"{label}.csv"
        write_csv(data, "t_s,coherence,sigma", [t, y, err])
        argv = ["fit", "--data", str(data), "--model", model, "--outdir", str(out)]
        eta = self.traps["cs133"].eta
        if model == "ramsey":
            argv += ["--config", "cs133"]

        def check(doc):
            p, u = doc["params"], doc["uncertainties"]
            if model == "ramsey":
                temp = refs.ramsey_temperature(p["t2star_s"], eta)
                if rel_err(p["temperature_k"], temp) > 1e-9:
                    return f"ramsey temperature {p['temperature_k']!r} vs {temp!r}"
                problem = within("t2star", p["t2star_s"], refs.t2(sigma, rate), u["t2star_s"])
            else:
                problem = first_problem(
                    within("sigma_dls", p["sigma_dls_rad_s"], sigma, u["sigma_dls_rad_s"]),
                    within("pjr", p["pjr_per_s"], rate, u["pjr_per_s"]))
            return problem or self.residuals_problem(out, t, y)

        return self.command(label, argv, check)

    def residuals_problem(self, out, x, y):
        res = read_csv(out / "residuals.csv")
        if res.shape[0] != len(x) or not np.array_equal(res[:, 0], x) \
                or not np.array_equal(res[:, 1], y):
            return "residuals.csv does not echo the data"
        if not np.allclose(res[:, 3], res[:, 1] - res[:, 2], rtol=0.0, atol=1e-15):
            return "residuals.csv residual is not observed - model"
        return None

    def fit_fringe(self, label, rng):
        out = self.outdir(label)
        contrast, shots = rng.uniform(0.3, 0.9), int(rng.integers(200, 1001))
        phases = np.linspace(-math.pi, math.pi, 24, endpoint=False)
        pop = rng.binomial(shots, 0.5 * (1.0 + contrast * np.cos(phases))) / shots
        err = np.sqrt(np.maximum(pop * (1.0 - pop), 0.25 / shots) / shots)
        data = self.dir / f"{label}.csv"
        write_csv(data, "phase_rad,population,sigma", [phases, pop, err])
        argv = ["fit", "--data", str(data), "--model", "fringe", "--outdir", str(out)]

        def check(doc):
            p, u = doc["params"], doc["uncertainties"]
            dphi = (p["phase_rad"] + math.pi) % (2.0 * math.pi) - math.pi
            return first_problem(within("amplitude", p["amplitude"], contrast, u["amplitude"]),
                                 within("phase", dphi, 0.0, u["phase_rad"]),
                                 within("baseline", p["baseline"], 0.5, u["baseline"]),
                                 self.residuals_problem(out, phases, pop))

        return self.command(label, argv, check)

    def fit_exponential(self, label, rng):
        out = self.outdir(label)
        p0, tau = rng.uniform(0.8, 1.0), log_uniform(rng, 0.5, 10.0)
        t = np.linspace(0.0, 3.0 * tau, 30)
        noise = log_uniform(rng, 0.005, 0.02)
        y = p0 * np.exp(-t / tau) + rng.normal(0.0, noise, t.size)
        data = self.dir / f"{label}.csv"
        write_csv(data, "t_s,survival,sigma", [t, y, np.full(t.size, noise)])
        argv = ["fit", "--data", str(data), "--model", "exponential", "--outdir", str(out)]

        def check(doc):
            p, u = doc["params"], doc["uncertainties"]
            return first_problem(within("amplitude", p["amplitude"], p0, u["amplitude"]),
                                 within("lifetime", p["lifetime_s"], tau, u["lifetime_s"]),
                                 self.residuals_problem(out, t, y))

        return self.command(label, argv, check)

    def psd(self, label, rng, rows=TRACE_ROWS):
        out = self.outdir(label)
        sigma_r = log_uniform(rng, 1e-4, 1e-2)
        x = 0.02 * (1.0 + sigma_r * rng.standard_normal(rows))
        data = self.dir / f"{label}.csv"
        write_csv(data, "t_s,power_w", [np.arange(rows) / FS, x])
        segment = int(2 ** rng.integers(10, 13))
        argv = ["psd", "--data", str(data), "--segment-length", str(segment),
                "--outdir", str(out)]

        def check(doc):
            with open(out / "psd.json") as fh:
                samples = np.array(json.load(fh)["samples"])
            level = refs.white_welch_level(sigma_r, FS)
            mean_level = float(np.mean(samples[:-1, 1]))   # the Nyquist bin is halved
            variance = float(x.std() / x.mean()) ** 2
            return first_problem(
                None if doc["n_samples"] == rows else f"n_samples {doc['n_samples']}",
                None if rel_err(mean_level, level) <= WELCH_REL else
                f"welch level {mean_level!r} vs 2 sigma^2/fs {level!r}",
                None if rel_err(doc["psd_integral"], variance) <= WELCH_REL else
                f"psd_integral {doc['psd_integral']!r} vs variance {variance!r}")

        return self.command(label, argv, check)

    def filter(self, label, rng, kind, dls):
        out = self.outdir(label)
        f_min, f_max = log_uniform(rng, 1e-4, 1e-2), log_uniform(rng, 10.0, 1e3)
        points = int(rng.integers(5000, 20001))
        if kind == "cpmg":
            interval = log_uniform(rng, 1e-3, 0.05)
            t_total, pulses = 20 * interval, refs.cpmg_pulses(20, interval)
            seq = ["--cpmg", "20", "--interval", repr(interval)]
        else:
            t_total = log_uniform(rng, 1e-3, 1.0)
            pulses = [] if kind == "ramsey" else [0.5 * t_total]
            seq = [f"--{kind}", repr(t_total)]
        argv = ["filter", *seq, "--f-min", repr(f_min), "--f-max", repr(f_max),
                "--points", str(points), "--outdir", str(out)]
        if dls:
            dls_f, dls_p = power_law_dls(rng)
            dls_path = self.dir / f"{label}.dls.json"
            with open(dls_path, "w") as fh:
                json.dump({"kind": "dls", "samples": [[float(f), float(p)]
                                                      for f, p in zip(dls_f, dls_p)]}, fh)
            argv += ["--dls-psd", str(dls_path)]

        def check(doc):
            curve = read_csv(out / "filter.csv")
            freqs = np.logspace(math.log10(f_min), math.log10(f_max), points)
            want = refs.sequence_filter(kind, curve[:, 0], t_total, pulses)
            problem = first_problem(
                None if curve.shape[0] == points and np.allclose(curve[:, 0], freqs,
                                                                 rtol=1e-12, atol=0.0)
                else "filter.csv frequencies are not the requested grid",
                None if np.all(np.abs(curve[:, 1] - want) <= 1e-9 + 1e-7 * want)
                else f"{kind} filter.csv off its closed form",
                None if doc["n_pulses"] == len(pulses) else f"n_pulses {doc['n_pulses']}")
            if problem or not dls:
                return problem or (None if doc["sigma_eff_rad_s"] is None
                                   else "sigma_eff without a DLS PSD")
            sigma = refs.filtered_sigma(kind, t_total, pulses,
                                        lambda f: loglog_array(dls_f, dls_p, f), (f_min, f_max))
            if rel_err(doc["sigma_eff_rad_s"], sigma) > 1e-6:
                return f"{kind} sigma_eff {doc['sigma_eff_rad_s']!r} vs {sigma!r}"
            return None

        return self.command(label, argv, check)

    def estimate_rates(self, label, rng, thermal):
        preset, spring = PRESETS[int(rng.integers(2))], SPRINGS[int(rng.integers(3))]
        cfg = self.traps[preset]
        argv = ["estimate-rates", "--config", preset, "--spring-psd", spring]
        if thermal:
            temperature = log_uniform(rng, T_MIN, T_MAX)
            argv += ["--temperature", repr(temperature)]
        else:
            occupation = [int(n) for n in rng.integers(0, 31, 3)]
            argv += ["--occupation", ",".join(map(str, occupation))]

        def check(doc):
            psd = self.psd_2w(cfg, spring)
            if not thermal:
                got = [doc["fixed"][f"rate_{ax}_per_s"] for ax in "xyz"]
                want = [refs.spring_rate(w, s, n, n * n)
                        for w, s, n in zip(cfg.omegas, psd, occupation)]
                bad = [f"rate {a!r} vs {b!r}" for a, b in zip(got, want) if rel_err(a, b) > 1e-9]
                return first_problem(*bad)
            th = doc["thermal"]
            moments = [refs.thermal_moments(float(n)) for n in th["nbar"]]
            exact = sum(refs.spring_rate(w, s, m1, m2)
                        for w, s, (m1, m2) in zip(cfg.omegas, psd, moments))
            classical = refs.classical_rate(temperature, psd)
            return first_problem(
                None if rel_err(th["exact_average_per_s"], exact) <= 1e-6 else
                f"exact rate {th['exact_average_per_s']!r} vs {exact!r}",
                None if rel_err(th["classical_per_s"], classical) <= 1e-8 else
                f"classical rate {th['classical_per_s']!r} vs {classical!r}")

        return self.command(label, argv, check)

    def report_command(self, label, rng):
        seed = int(rng.integers(2 ** 31))
        argv = ["report", "--seed", str(seed), "--outdir", str(self.outdir(label))]

        def check(doc):
            return None if doc["all_passed"] is True else "report has failing rows"

        def build_report():
            self.tr.call("report.build_report", self.report.build_report, mc_seed=seed)

        return self.command(label, argv, check, build_report)

    def round(self, index):
        rng = round_rng(self.seed, WORKLOAD_ID, index)
        return [
            self.simulate("simulate_thermal", rng, thermal=True),
            self.simulate("simulate_params", rng, thermal=False),
            self.fit_decay("fit_coherence", rng, "coherence"),
            self.fit_decay("fit_ramsey", rng, "ramsey"),
            self.fit_fringe("fit_fringe", rng),
            self.fit_exponential("fit_exponential", rng),
            self.psd("psd", rng),
            self.filter("filter_cpmg", rng, "cpmg", dls=True),
            self.filter("filter_ramsey", rng, "ramsey", dls=False),
            self.filter("filter_echo", rng, "echo", dls=True),
            self.estimate_rates("estimate_thermal", rng, thermal=True),
            self.estimate_rates("estimate_fixed", rng, thermal=False),
            self.report_command("report", rng),
        ]

    def warmup_ops(self):
        """One in-process call of each subcommand on small fixed inputs."""
        rng = np.random.default_rng(0)
        ops = [self.simulate("warm_simulate", rng, thermal=False),
               self.fit_decay("warm_fit", rng, "coherence"),
               self.psd("warm_psd", rng, rows=4096),
               self.filter("warm_filter", rng, "cpmg", dls=True),
               self.estimate_rates("warm_estimate", rng, thermal=True),
               self.report_command("warm_report", rng)]
        return [Op(op.kind, op.extra, lambda _: None) for op in ops]
