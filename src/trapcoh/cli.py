"""Command-line front end.

Subcommands: simulate | fit | psd | filter | estimate-rates | report.
Every command prints exactly one JSON document (keys sorted) to stdout;
logs and error reports go to stderr. Exit codes: 0 success, 2
configuration or parse error, 3 numerical failure or out of memory.
Outputs embed the seed, the tool version, and SHA-256 digests of every
input file read.
Values from a config file are defaults; command-line flags override
them. The default output directory is taken from the TRAPCOH_OUTDIR
environment variable when set. Each command computes first; main
writes its files only once every text is built, so a command that
fails before its first write leaves no file, and a command that fails
writes no log line, only its JSON error. A stdout that cannot take the
document fails as an output file does (output_error, exit 2).
`main` runs one command line in process and returns its exit code for
every command line, 0 after --help and --version, whose text it writes
as it writes a document. `python -m trapcoh` and the console script run
`run`: main, then os._exit with its code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__, io
from .errors import ConfigError, DomainError, TrapcohError

# Each cmd_* imports the modules it needs, numpy among them, when it runs, so a
# process loads only its own subcommand's code, and --help, --version and a
# command line that does not parse load no numpy at all.

#: CSV columns each fit model needs; a "sigma" column, when present, weights the fit
#: (the decay models' are CoherenceSeries.COLUMNS)
FIT_COLUMNS = {"coherence": ("t_s", "coherence", "sigma"),
               "fringe": ("phase_rad", "population"),
               "exponential": ("t_s", "survival"), "ramsey": ("t_s", "coherence", "sigma")}


def _read(value, inputs):
    """(bytes, source) of a path or preset name; records its digest in inputs."""
    data, key, digest = io.resolve(value)
    inputs[key] = digest
    return data, key


def _load(cls, value, inputs):
    return cls.from_json_obj(io.parse_json(*_read(value, inputs)))


def _meta(inputs, seed=None):
    return {"seed": seed, "version": __version__, "inputs": inputs}


def _series_csv(series):
    return io.csv_text(series.COLUMNS, series.t_s, series.coherence, series.sigma)


def _mc_max_z(params, n_traj, t, values) -> float:
    """Largest |MC - C(t)| over the grid in standard errors of the model.

    The Monte-Carlo curve is the product of two independent means over n_traj
    trajectories: G of cos(delta t), per-trajectory variance (1 + g**4) / 2 - g**2
    with g = exp(-sigma**2 t**2 / 2), and S of the no-jump share, variance
    s (1 - s) with s = exp(-R t); var(G S) = vG vS + vG s**2 + vS g**2. The error
    adds 1 / n_traj, the resolution of a share of n_traj trajectories, so the
    score stays finite where var(G S) vanishes (t = 0, or s = 0).
    """
    import numpy as np
    g = np.exp(-0.5 * (params.sigma_dls * t) ** 2)
    s = np.exp(-params.pjr * t)
    v_g = np.maximum(0.5 * (1.0 + g ** 4) - g * g, 0.0) / n_traj
    v_s = s * (1.0 - s) / n_traj
    err = np.sqrt(v_g * v_s + v_g * s * s + v_s * g * g) + 1.0 / n_traj
    return float(np.max(np.abs(values - g * s) / err))


def _parse_occupation(text):
    from .trap import FixedOccupation
    with io.parsing(f"occupation {text!r}"):
        nx, ny, nz = (int(p) for p in text.split(","))
    return FixedOccupation(nx, ny, nz)


def _trap_noise(args, inputs):
    from .noise import NoiseSpectrum
    from .phonon import TrapNoise
    spring = _load(NoiseSpectrum, args.spring_psd, inputs) if args.spring_psd else None
    position = _load(NoiseSpectrum, args.position_psd, inputs) if args.position_psd else None
    return TrapNoise.uniform(spring=spring, position=position)


# Each cmd_* only computes: it returns its document and its output files,
# label -> (file name, text); main writes them.

def cmd_simulate(args):
    import numpy as np

    from .coherence import (CoherenceSeries, DecayParams, analytic_series, gaussian_channel_mc,
                            t2_time)
    from .phonon import first_jump_survival_mc, thermal_average_pjr, total_jump_rate
    from .trap import ThermalOccupation, TrapConfig, dls_sigma, thermal_average_dls_sigma
    inputs = {}
    if args.points < 1:
        raise DomainError("need at least one time point")
    if not np.isfinite(args.t_max):
        raise DomainError("grid end time must be finite")
    cfg = _load(TrapConfig, args.config, inputs)
    noise = _trap_noise(args, inputs)

    if args.temperature is not None:
        dist = ThermalOccupation.from_temperature(args.temperature, cfg)
        sigma = thermal_average_dls_sigma(cfg, dist)
        pjr = thermal_average_pjr(cfg, noise, dist)
    else:
        occ = _parse_occupation(args.occupation)
        sigma = abs(dls_sigma(cfg, occ))
        pjr = total_jump_rate(cfg, noise, occ).total
    if args.sigma_dls is not None:
        sigma = args.sigma_dls
    if args.pjr is not None:
        pjr = args.pjr
    params = DecayParams(sigma, pjr)

    grid = np.linspace(0.0, args.t_max, args.points)
    analytic = analytic_series(params, grid)
    mc_gauss = gaussian_channel_mc(sigma, args.n_traj, args.seed, grid)
    surv = first_jump_survival_mc(pjr, args.n_traj, args.seed + 1, grid)
    surv_err = np.sqrt(surv * (1.0 - surv) / args.n_traj)
    combined = mc_gauss.coherence * surv
    combined_err = np.sqrt((mc_gauss.sigma * surv) ** 2
                           + (mc_gauss.coherence * surv_err) ** 2)
    doc = {
        "command": "simulate",
        "params": params.to_json_obj(),
        "t2_s": t2_time(params) if (sigma, pjr) != (0.0, 0.0) else None,
        "n_traj": args.n_traj,
        "mc_max_z": _mc_max_z(params, args.n_traj, grid, combined),
        "meta": _meta(inputs, args.seed),
    }
    return doc, {
        "analytic": ("analytic.csv", _series_csv(analytic)),
        "montecarlo": ("montecarlo.csv",
                       _series_csv(CoherenceSeries(grid, combined, combined_err))),
        "params": ("params.json", io.dumps(params.to_json_obj())),
    }, "INFO simulating with sigma_dls=%g rad/s, pjr=%g 1/s\n" % (sigma, pjr)


def cmd_fit(args):
    from .coherence import CoherenceSeries
    from .fitting import fit_coherence_decay, fit_exponential, fit_fringe, fit_ramsey_decay
    inputs = {}
    cols = io.parse_csv(*_read(args.data, inputs), FIT_COLUMNS[args.model])

    if args.model in ("coherence", "ramsey"):
        eta = args.eta
        if args.model == "ramsey" and eta is None:
            if args.config is None:
                raise ConfigError("ramsey fit needs --eta or --config",
                                  kind="parse_error")
            from .trap import TrapConfig
            eta = _load(TrapConfig, args.config, inputs).eta
        series = CoherenceSeries(*(cols[name] for name in CoherenceSeries.COLUMNS))
        result = (fit_ramsey_decay(series, eta) if args.model == "ramsey"
                  else fit_coherence_decay(series))
    elif args.model == "fringe":
        result = fit_fringe(cols["phase_rad"], cols["population"], cols.get("sigma"))
    else:
        result = fit_exponential(cols["t_s"], cols["survival"], cols.get("sigma"))
    doc = result.to_json_obj()
    doc["meta"] = _meta(inputs)
    x_name, y_name = FIT_COLUMNS[args.model][:2]
    x, y, modeled = cols[x_name], cols[y_name], result.fitted
    residuals = io.csv_text((x_name, "observed", "model", "residual"), x, y, modeled, y - modeled)
    return doc, {"residuals": ("residuals.csv", residuals)}, "INFO fit rss=%g\n" % result.rss


def cmd_psd(args):
    import numpy as np

    from .noise import NoiseSpectrum, TimeSeries, estimate_psd, relative_variance
    inputs = {}
    series = TimeSeries.parse(*_read(args.data, inputs))
    spectrum = estimate_psd(series, args.segment_length, args.overlap, kind=args.kind)
    doc = {
        "command": "psd",
        "kind": spectrum.kind,
        "relative_variance": relative_variance(series),
        "psd_integral": float(np.trapezoid(spectrum.psd, spectrum.frequencies_hz)),
        "n_samples": len(series.samples),
        "sample_rate_hz": series.sample_rate_hz,
        "meta": _meta(inputs),
    }
    return doc, {
        "psd_csv": ("psd.csv", io.csv_text(NoiseSpectrum.COLUMNS, spectrum.frequencies_hz,
                                           spectrum.psd)),
        "psd_json": ("psd.json", io.dumps(spectrum.to_json_obj())),
    }


def _build_sequence(args, inputs):
    from .sequences import PulseSequence, cpmg, ramsey, spin_echo
    if args.ramsey is not None:
        return ramsey(args.ramsey)
    if args.echo is not None:
        return spin_echo(args.echo)
    if args.cpmg is not None:
        if args.interval is None:
            raise ConfigError("--cpmg needs --interval", kind="parse_error")
        return cpmg(args.cpmg, args.interval)
    return _load(PulseSequence, args.sequence, inputs)


def cmd_filter(args):
    from .noise import NoiseSpectrum
    from .sequences import FilterCurve, _log_grid, filtered_sigma, sample_filter
    inputs = {}
    if not 0.0 < args.f_min < args.f_max < math.inf:
        raise DomainError("frequency range must satisfy 0 < f_min < f_max < inf")
    if args.points < 1:
        raise DomainError("need at least one frequency point")
    seq = _build_sequence(args, inputs)
    curve = sample_filter(seq, _log_grid(args.f_min, args.f_max, args.points))
    sigma_eff = None
    if args.dls_psd is not None:
        psd = _load(NoiseSpectrum, args.dls_psd, inputs)
        sigma_eff = filtered_sigma(seq, psd, band=(args.f_min, args.f_max))
    doc = {
        "command": "filter",
        "t_total_s": seq.t_total_s,
        "n_pulses": seq.n_pulses,
        "sigma_eff_rad_s": sigma_eff,
        "meta": _meta(inputs),
    }
    return doc, {"filter": ("filter.csv",
                            io.csv_text(FilterCurve.COLUMNS, curve.f_hz, curve.values))}


def cmd_estimate_rates(args):
    from .phonon import classical_thermal_rate, thermal_average_pjr, total_jump_rate
    from .trap import ThermalOccupation, TrapConfig
    inputs = {}
    cfg = _load(TrapConfig, args.config, inputs)
    noise = _trap_noise(args, inputs)
    if args.occupation is None and args.temperature is None:
        raise ConfigError("give --occupation and/or --temperature", kind="parse_error")

    doc = {
        "command": "estimate-rates",
        "psd_convention": "S(omega) = S(f) / (2 pi), applied once at evaluation",
        "fixed": None,
        "thermal": None,
        "meta": _meta(inputs),
    }
    if args.occupation is not None:
        occ = _parse_occupation(args.occupation)
        rates = total_jump_rate(cfg, noise, occ)
        doc["fixed"] = {
            "occupation": [int(n) for n in occ.numbers],
            "rate_x_per_s": rates.x, "rate_y_per_s": rates.y,
            "rate_z_per_s": rates.z, "total_per_s": rates.total,
        }
    if args.temperature is not None:
        dist = ThermalOccupation.from_temperature(args.temperature, cfg)
        doc["thermal"] = {
            "temperature_k": args.temperature,
            "nbar": list(dist.means),
            "classical_per_s": classical_thermal_rate(cfg, noise, args.temperature),
            "exact_average_per_s": thermal_average_pjr(cfg, noise, dist),
        }
    return doc, {}


def cmd_report(args):
    from . import report
    rows = report.build_report(mc_seed=args.seed)
    doc = report.to_json_obj(rows)
    doc["meta"] = _meta({}, args.seed)
    return doc, {"markdown": ("report.md", report.to_markdown(rows)),
                 "json": ("report.json", io.dumps(doc))}


class _Printed(Exception):
    """The text of --help or --version, which main prints."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one JSON parse_error, as every other
    bad input is, and hands the text of --help and --version to main, so
    argparse neither writes nor exits; its subcommand parsers are of this
    class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}", kind="parse_error")

    def _print_message(self, message, file=None):
        raise _Printed(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trapcoh",
        description="Coherence model of an optically trapped single-atom qubit.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="analytic + Monte-Carlo decay curves")
    sim.add_argument("--config", default="cs133",
                     help="trap config: preset name or JSON path")
    sim.add_argument("--spring-psd", help="fractional spring-constant PSD (preset or path)")
    sim.add_argument("--position-psd", help="trap position PSD (preset or path)")
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--occupation", default="0,0,0", help="phonon numbers nx,ny,nz")
    group.add_argument("--temperature", type=float,
                       help="thermal occupation at this temperature (K)")
    sim.add_argument("--sigma-dls", type=float, help="override the Gaussian width (rad/s)")
    sim.add_argument("--pjr", type=float, help="override the jump rate (1/s)")
    sim.add_argument("--t-max", type=float, default=0.4, help="grid end time (s)")
    sim.add_argument("--points", type=int, default=81, help="grid size")
    sim.add_argument("--n-traj", type=int, default=10000, help="Monte-Carlo trajectories")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--outdir")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="least-squares parameter extraction")
    fit.add_argument("--data", required=True, help="input CSV")
    fit.add_argument("--model", required=True, choices=tuple(FIT_COLUMNS))
    fit.add_argument("--eta", type=float, help="shift ratio for the ramsey model")
    fit.add_argument("--config", help="trap config supplying eta for the ramsey model")
    fit.add_argument("--outdir")
    fit.set_defaults(func=cmd_fit)

    psd = sub.add_parser("psd", help="Welch PSD of a power time series")
    psd.add_argument("--data", required=True, help="comma-separated CSV whose header "
                     "row names t_s and power_w, in any order; other columns are ignored")
    psd.add_argument("--segment-length", type=int, default=4096)
    psd.add_argument("--overlap", type=float, default=0.5)
    psd.add_argument("--kind", default="spring_fractional",
                     choices=("spring_fractional", "position"))
    psd.add_argument("--outdir")
    psd.set_defaults(func=cmd_psd)

    filt = sub.add_parser("filter", help="sequence filter function, optional sigma_eff")
    chosen = filt.add_mutually_exclusive_group(required=True)
    chosen.add_argument("--ramsey", type=float, metavar="T_TOTAL",
                        help="free precession of this length (s)")
    chosen.add_argument("--echo", type=float, metavar="T_TOTAL",
                        help="single refocusing pulse, total time (s)")
    chosen.add_argument("--cpmg", type=int, metavar="N", help="N-pulse train")
    chosen.add_argument("--sequence", help="pulse sequence JSON path")
    filt.add_argument("--interval", type=float, help="pulse interval for --cpmg (s)")
    filt.add_argument("--f-min", type=float, default=1e-4)
    filt.add_argument("--f-max", type=float, default=1e3)
    filt.add_argument("--points", type=int, default=2000)
    filt.add_argument("--dls-psd", help="DLS noise PSD (preset or path) for sigma_eff")
    filt.add_argument("--outdir")
    filt.set_defaults(func=cmd_filter)

    est = sub.add_parser("estimate-rates", help="phonon jump rates from noise spectra")
    est.add_argument("--config", default="cs133")
    est.add_argument("--spring-psd")
    est.add_argument("--position-psd")
    est.add_argument("--occupation", help="fixed phonon numbers nx,ny,nz")
    est.add_argument("--temperature", type=float, help="thermal distribution (K)")
    est.set_defaults(func=cmd_estimate_rates)

    rep = sub.add_parser("report", help="recompute the reproduction table")
    rep.add_argument("--seed", type=int, default=11)
    rep.add_argument("--outdir")
    rep.set_defaults(func=cmd_report)
    return parser


def _fail(exc) -> int:
    """Report `exc` as one JSON error line on stderr; its exit code. Float overflow
    or division by zero would make the result inf or NaN (non_finite); an array
    larger than the host can allocate is out_of_memory."""
    if not isinstance(exc, TrapcohError):
        kind = "out_of_memory" if isinstance(exc, MemoryError) else "non_finite"
        exc = TrapcohError(f"{type(exc).__name__}: {exc}", kind=kind)
    json.dump({"error": {"kind": exc.kind, "message": str(exc)}}, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")
    # bad input is exit 2; a numerical failure (fit, report) is exit 3
    return 2 if isinstance(exc, (ConfigError, DomainError)) else 3


def main(argv=None) -> int:
    """Run one command line in this process: write its document, or the text
    of --help or --version, to stdout; its exit code."""
    log, code = [], 0
    try:
        args = build_parser().parse_args(argv)
        import numpy as np
        # numpy raises FloatingPointError, an ArithmeticError: non_finite
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            doc, files, *log = args.func(args)
        if files:
            out = Path(args.outdir or os.environ.get("TRAPCOH_OUTDIR", "."))
            doc["files"] = {label: str(out / name) for label, (name, _) in files.items()}
        text = io.dumps(doc)
        for name, content in files.values():
            io.write_text(out / name, content)
        if not doc.get("all_passed", True):
            # a report with failing rows still writes its files and prints its document
            log.append("ERROR report has failing rows\n")
            code = 3
    except _Printed as printed:
        text = str(printed)
    except (TrapcohError, ArithmeticError, MemoryError) as exc:
        return _fail(exc)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:  # a full disk, a closed pipe: as an output file fails
        return _fail(ConfigError(f"cannot write stdout: {exc.strerror}", kind="output_error"))
    # a command's log line, like its files, only once it has succeeded
    sys.stderr.writelines(log)
    return code


def run():
    """Entry point of `python -m trapcoh` and the console script: main, a flush
    of stderr, then os._exit with main's code. The process skips interpreter
    teardown, so atexit hooks do not run; call main in process for those.
    OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS says otherwise, so
    seeded outputs do not depend on the core count; main and the library leave
    the variable alone."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before any command imports numpy
    code = main()  # which has flushed all it wrote to stdout, or failed
    with contextlib.suppress(OSError):  # a broken stderr has nothing left to report on
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
