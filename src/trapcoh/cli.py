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
fails before its first write leaves no file.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, io, report
from .coherence import (CoherenceSeries, DecayParams, analytic_series, coherence,
                        gaussian_channel_mc, t2_time)
from .errors import ConfigError, DomainError, TrapcohError
from .fitting import (_ramsey_from_decay, exponential, fit_coherence_decay,
                      fit_exponential, fit_fringe, fringe)
from .noise import NoiseSpectrum, TimeSeries, estimate_psd, relative_variance
from .phonon import (TrapNoise, classical_thermal_rate, first_jump_survival_mc,
                     thermal_average_pjr, total_jump_rate)
from .sequences import (FilterCurve, PulseSequence, _log_grid, cpmg, filtered_sigma, ramsey,
                        sample_filter, spin_echo)
from .trap import (FixedOccupation, ThermalOccupation, TrapConfig, dls_sigma,
                   thermal_average_dls_sigma)

log = logging.getLogger("trapcoh")

#: CSV columns each fit model needs; a "sigma" column, when present, weights the fit
FIT_COLUMNS = {"coherence": CoherenceSeries.COLUMNS, "fringe": ("phase_rad", "population"),
               "exponential": ("t_s", "survival"), "ramsey": CoherenceSeries.COLUMNS}


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
    return io.csv_text(CoherenceSeries.COLUMNS, series.t_s, series.coherence, series.sigma)


def _mc_max_z(params, n_traj, t, values) -> float:
    """Largest |MC - C(t)| over the grid in standard errors of the model.

    The Monte-Carlo curve is the product of two independent means over n_traj
    trajectories: G of cos(delta t), per-trajectory variance (1 + g**4) / 2 - g**2
    with g = exp(-sigma**2 t**2 / 2), and S of the no-jump share, variance
    s (1 - s) with s = exp(-R t); var(G S) = vG vS + vG s**2 + vS g**2. The error
    adds 1 / n_traj, the resolution of a share of n_traj trajectories, so the
    score stays finite where var(G S) vanishes (t = 0, or s = 0).
    """
    g = np.exp(-0.5 * (params.sigma_dls * t) ** 2)
    s = np.exp(-params.pjr * t)
    v_g = np.maximum(0.5 * (1.0 + g ** 4) - g * g, 0.0) / n_traj
    v_s = s * (1.0 - s) / n_traj
    err = np.sqrt(v_g * v_s + v_g * s * s + v_s * g * g) + 1.0 / n_traj
    return float(np.max(np.abs(values - g * s) / err))


def _parse_occupation(text) -> FixedOccupation:
    with io.parsing(f"occupation {text!r}"):
        nx, ny, nz = (int(p) for p in text.split(","))
    return FixedOccupation(nx, ny, nz)


def _trap_noise(args, inputs) -> TrapNoise:
    spring = _load(NoiseSpectrum, args.spring_psd, inputs) if args.spring_psd else None
    position = _load(NoiseSpectrum, args.position_psd, inputs) if args.position_psd else None
    return TrapNoise.uniform(spring=spring, position=position)


# Each cmd_* only computes: it returns its document and its output files,
# label -> (file name, text); main writes them.

def cmd_simulate(args):
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
    log.info("simulating with sigma_dls=%g rad/s, pjr=%g 1/s", sigma, pjr)

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
    }


def cmd_fit(args):
    inputs = {}
    cols = io.parse_csv(*_read(args.data, inputs), FIT_COLUMNS[args.model])

    if args.model in ("coherence", "ramsey"):
        eta = args.eta
        if args.model == "ramsey" and eta is None:
            if args.config is None:
                raise ConfigError("ramsey fit needs --eta or --config",
                                  kind="parse_error")
            eta = _load(TrapConfig, args.config, inputs).eta
        series = CoherenceSeries(*(cols[name] for name in CoherenceSeries.COLUMNS))
        decay = fit_coherence_decay(series)
        result = _ramsey_from_decay(decay, eta) if args.model == "ramsey" else decay
        x_name, x, y = "t_s", series.t_s, series.coherence
        modeled = coherence(DecayParams(decay.params["sigma_dls_rad_s"],
                                        decay.params["pjr_per_s"]), x)
    elif args.model == "fringe":
        result = fit_fringe(cols["phase_rad"], cols["population"], cols.get("sigma"))
        x_name, x, y = "phase_rad", cols["phase_rad"], cols["population"]
        modeled = fringe(x, **result.params)
    else:
        result = fit_exponential(cols["t_s"], cols["survival"], cols.get("sigma"))
        x_name, x, y = "t_s", cols["t_s"], cols["survival"]
        modeled = exponential(x, **result.params)
    log.info("fit rss=%g", result.rss)

    doc = result.to_json_obj()
    doc["meta"] = _meta(inputs)
    return doc, {"residuals": ("residuals.csv", io.csv_text(
        (x_name, "observed", "model", "residual"), x, y, modeled, y - modeled))}


def cmd_psd(args):
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


def _build_sequence(args, inputs) -> PulseSequence:
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
    inputs = {}
    if not 0.0 < args.f_min < args.f_max < np.inf:
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
    rows = report.build_report(mc_seed=args.seed)
    doc = report.to_json_obj(rows)
    doc["meta"] = _meta({}, args.seed)
    return doc, {"markdown": ("report.md", report.to_markdown(rows)),
                 "json": ("report.json", io.dumps(doc))}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one JSON parse_error, as every other
    bad input is; its subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}", kind="parse_error")


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


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        # --help and --version exit here; any other bad command line is a parse_error
        args = build_parser().parse_args(argv)
        # numpy raises FloatingPointError, an ArithmeticError: non_finite below
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            doc, files = args.func(args)
        if files:
            out = Path(args.outdir or os.environ.get("TRAPCOH_OUTDIR", "."))
            doc["files"] = {label: str(out / name) for label, (name, _) in files.items()}
        text = io.dumps(doc)
        for name, content in files.values():
            io.write_text(out / name, content)
    except (TrapcohError, ArithmeticError, MemoryError) as exc:
        # float overflow or division by zero: the result would be inf or NaN;
        # an array larger than the host can allocate is out_of_memory
        if not isinstance(exc, TrapcohError):
            kind = "out_of_memory" if isinstance(exc, MemoryError) else "non_finite"
            exc = TrapcohError(f"{type(exc).__name__}: {exc}", kind=kind)
        json.dump({"error": {"kind": exc.kind, "message": str(exc)}},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        # bad input is exit 2; a numerical failure (fit, report) is exit 3
        return 2 if isinstance(exc, (ConfigError, DomainError)) else 3
    sys.stdout.write(text)
    if doc.get("all_passed", True):
        return 0
    # a report with failing rows still writes its files and prints its document
    log.error("report has failing rows")
    return 3


if __name__ == "__main__":
    sys.exit(main())
