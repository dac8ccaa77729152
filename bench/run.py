"""Benchmark trapcoh end to end, from a checkout of the repository.

    python3 bench/run.py --workload {cli_oneshot,budget_scan,mc_fit}
                         --seed N --seconds S --trace {0,1}

Imports trapcoh from the checkout's src/ (never an installed copy) and
byte-compiles it first. One closed-loop client, one operation in flight;
for cli_oneshot one child process at a time. Every operation's output is
checked against references computed apart from trapcoh (refs.py). An
operation that raises, or whose output a known fault of trapcoh gets
wrong (common.KnownFault), counts as failed; any other mismatch makes
the run incorrect. A run attempts whole rounds of operations until S
seconds have passed.

--trace 0 runs five fresh worker interpreters (worker.py) and prints the
end-to-end metrics: setup_s (median of the five workers' spawn-to-ready
times: import trapcoh, load the workload's presets, one warm-up operation
of each kind), op_p50_s, ops_per_s and peak_rss_mb. Times are reported
at the reference speed of a calibration kernel timed between operations
(see common.py); the record keeps the raw figures.
--trace 1 records spans around every call into trapcoh, adds one short
pass of the other two workloads and an import split from
`python -X importtime`, and prints the per-layer metrics; its spans go to
.bench_out/spans-<workload>-seed<N>.csv.gz. Each run writes its full
record (p90, sample counts, per-kind medians, errors) to
.bench_out/<workload>-seed<N>-trace<T>.json; a traced run whose untraced
twin (same workload and seed) is there states its overhead against it.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import (CALIBRATION_EVERY_S, CALIBRATION_REF_S, CHILD_TIMEOUT_S, KnownFault,
                    calibrate, child_timeout)
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUNS = ROOT / ".bench_run"
WORKLOADS = ("cli_oneshot", "budget_scan", "mc_fit")
SETUP_SAMPLES = 5
# timed rounds are shared by this many fresh workers, so that no one
# process's memory layout and hash seed sets the figure; cli_oneshot's
# operations are fresh processes already
LOOP_WORKERS = {"cli_oneshot": 1, "budget_scan": 5, "mc_fit": 5}
# the workloads whose operations run in the worker processes that time the
# calibration kernel; cli_oneshot's run in children, whose times did not
# follow the parent's kernel, so only its setup_s is scaled
CALIBRATED_OPS = {"budget_scan", "mc_fit"}
IMPORT_SAMPLES = 3
PROBE_ROUNDS = {"cli_oneshot": 1, "budget_scan": 5, "mc_fit": 3}
CLI_COMMANDS = ("simulate", "fit", "psd", "filter", "estimate-rates", "report")
IMPORTS = {"trapcoh": "trapcoh", "numpy": "numpy",
           "scipy_signal": "scipy.signal", "scipy_optimize": "scipy.optimize"}

# per-layer metrics: median self time per call of the span with the same
# name without "_s", unless listed in RATES or COUNTS
SPAN_METRICS = (
    [f"cli.{c}.{k}_s" for c in CLI_COMMANDS for k in ("wall", "inproc")]
    + ["trap.thermal_average_dls_sigma.cold_s", "trap.thermal_average_dls_sigma.hot_s",
       "trap.dls_sigma_s",
       "phonon.thermal_average_pjr.cold_s", "phonon.thermal_average_pjr.hot_s",
       "phonon.classical_thermal_rate_s", "phonon.total_jump_rate_s",
       "phonon.first_jump_survival_mc_s",
       "noise.evaluate_s", "noise.estimate_psd_s",
       "sequences.filtered_sigma_s", "sequences.sample_filter_s",
       "sequences.simulate_fringe_s",
       "coherence.gaussian_channel_mc_s", "coherence.t2_time_s",
       "fitting.fit_coherence_decay_s", "fitting.fit_ramsey_decay_s",
       "fitting.fit_fringe_s", "fitting.fit_exponential_s",
       "report.build_report_s"])
RATES = {  # metric: (count, span whose total self time divides it)
    "noise.welch_samples_per_s": ("noise.welch_samples", "noise.estimate_psd"),
    "sequences.filter_points_per_s": ("sequences.filter_points", "sequences.sample_filter"),
    "coherence.mc_cos_per_s": ("coherence.mc_cos", "coherence.gaussian_channel_mc"),
}
COUNTS = {  # metric: (count, divisor count or None)
    "cli.bytes_read": ("cli.bytes_read", "cli.inproc_ops"),
    "cli.bytes_written": ("cli.bytes_written", "cli.inproc_ops"),
    "fitting.nfev": ("fitting.nfev", None),
}


def make_workload(name, tc, tracer, seed, workdir):
    if name == "cli_oneshot":
        from cli_oneshot import CliOneshot as cls
    elif name == "budget_scan":
        from budget_scan import BudgetScan as cls
    else:
        from mc_fit import McFit as cls
    return cls(tc, tracer, seed, workdir)


def warm(wl):
    """Run each warm-up op once, untraced and untimed; raise if one misses its check."""
    enabled, wl.tr.enabled = wl.tr.enabled, False
    try:
        for op in wl.warmup_ops():
            problem = op.check(op.run())
            if problem:
                raise RuntimeError(f"warm-up {op.kind}: {problem}")
    finally:
        wl.tr.enabled = enabled


class Loop:
    """Counts and per-operation wall times of a sequence of rounds."""

    def __init__(self):
        self.samples = []        # (kind, seconds)
        self.attempted = 0
        self.failed = 0
        self.errors = []         # operations that raised
        self.known = []          # outputs that a known fault of trapcoh got wrong
        self.wrong = []          # outputs that missed their reference
        self.rounds = 0
        self.calibration = []    # calibration kernel times, s

    def run(self, wl, seconds=None, rounds=None, first=0, step=1):
        """Rounds first, first + step, ... until `rounds` are done or `seconds` pass."""
        tr = wl.tr
        start = last_calibration = perf_counter()
        index = first
        while True:
            for op in wl.round(index):
                tr.op += 1
                self.attempted += 1
                t0 = perf_counter()
                try:
                    result = tr.call(f"{wl.name}.{op.kind}", op.run)
                except Exception as exc:  # a failed operation is counted, not fatal
                    self.failed += 1
                    self.errors.append(f"round {index} {op.kind}: {exc!r}")
                    continue
                self.samples.append((op.kind, perf_counter() - t0))
                try:
                    problem = op.check(result)
                except KnownFault as exc:
                    self.failed += 1
                    self.known.append(f"round {index} {op.kind}: {exc}")
                    problem = None
                except Exception as exc:  # an unreadable output is a wrong output
                    problem = repr(exc)
                if problem:
                    self.wrong.append(f"round {index} {op.kind}: {problem}")
                if tr.enabled and op.extra is not None:
                    try:
                        op.extra()
                    except Exception as exc:
                        self.failed += 1
                        self.errors.append(f"round {index} {op.kind} traced extra: {exc!r}")
                if perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
                    self.calibration += calibrate()
                    last_calibration = perf_counter()
            index += step
            self.rounds += 1
            if rounds is not None and (index - first) // step >= rounds:
                return
            if seconds is not None and perf_counter() - start >= seconds:
                return

    def state(self):
        return {"samples": self.samples, "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "known": self.known, "wrong": self.wrong,
                "rounds": self.rounds,
                "calibration": self.calibration}

    def merge(self, state):
        """Add the state() of a loop run in another process."""
        self.samples += [tuple(s) for s in state["samples"]]
        for key in ("attempted", "failed", "rounds"):
            setattr(self, key, getattr(self, key) + state[key])
        self.errors += state["errors"]
        self.known += state["known"]
        self.wrong += state["wrong"]
        self.calibration += state["calibration"]

    def end_to_end(self):
        times = [t for _, t in self.samples]
        return {"op_p50_s": statistics.median(times),
                "ops_per_s": len(times) / sum(times)}

    def record(self):
        times = [t for _, t in self.samples]
        kinds = {}
        for kind, t in self.samples:
            kinds.setdefault(kind, []).append(t)
        return {"rounds": self.rounds, "n_samples": len(times),
                "op_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0],
                "kinds": {k: {"n": len(v), "median_s": statistics.median(v)}
                          for k, v in sorted(kinds.items())},
                "errors": self.errors[:50], "wrong": self.wrong[:50],
                "known_faults": len(self.known), "known_fault_examples": self.known[:5]}


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_worker(workload, seed, workdir, seconds, first, step):
    """One fresh worker interpreter: (seconds from spawn to READY, its loop state)."""
    result = workdir / f"worker-{first}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(workdir),
           repr(seconds), str(first), str(step), str(result)]
    with open(workdir / f"worker-{first}.stderr", "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        with child_timeout(proc, CHILD_TIMEOUT_S + seconds):
            line = proc.stdout.readline()
            setup = perf_counter() - t0
            proc.communicate()
        err.seek(0)
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}): {err.read()[-500:]}")
    return setup, json.loads(result.read_text())


def import_trapcoh():
    """trapcoh from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import trapcoh
    if Path(trapcoh.__file__).resolve().parent != SRC / "trapcoh":
        raise RuntimeError(f"imported trapcoh from {trapcoh.__file__}, not {SRC}")
    return trapcoh


def import_times(stderr):
    """Cumulative seconds per module prefix from `-X importtime` output.

    A prefix's time is the sum over its outermost entries, the ones whose
    parent in the import tree is not under the same prefix, so a package
    whose own line is missing (a from-import through a lazy __getattr__)
    still counts all of its submodules.
    """
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2][1:]
        rows.append((len(raw) - len(raw.lstrip()), raw.strip(), int(parts[1])))
    parent, stack = {}, []
    for i, (depth, _, _) in enumerate(rows):
        while stack and rows[stack[-1]][0] > depth:
            parent[stack.pop()] = i
        stack.append(i)

    def under(name, prefix):
        return name == prefix or name.startswith(prefix + ".")

    return {key: 1e-6 * sum(cum for i, (_, name, cum) in enumerate(rows)
                            if under(name, prefix)
                            and not (i in parent and under(rows[parent[i]][1], prefix)))
            for key, prefix in IMPORTS.items()}


def import_split():
    code = "import trapcoh, scipy.signal, scipy.optimize"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                             env=child_env(), stdin=subprocess.DEVNULL, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"import probe failed: {res.stderr.strip()[-500:]}")
        samples.append(import_times(res.stderr))
    return {f"import.{key}_s": statistics.median(s[key] for s in samples) for key in IMPORTS}


def per_layer(tracer, imports):
    summary = tracer.summary()
    metrics = {name: (value, "s") for name, value in imports.items()}
    for name in SPAN_METRICS:
        metrics[name] = (summary[name[:-2]]["median_self_s"], "s")
    for name, (count, span) in RATES.items():
        metrics[name] = (tracer.counts[count] / summary[span]["self_s"], "1/s")
    for name, (count, per) in COUNTS.items():
        value = tracer.counts[count] / (tracer.counts[per] if per else 1.0)
        metrics[name] = (value, "count" if name == "fitting.nfev" else "bytes")
    return metrics, summary


def peak_rss_kb(wl):
    """The largest child for cli_oneshot, else this process."""
    return getattr(wl, "peak_rss_kb", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def untraced_run(args, workdir):
    """SETUP_SAMPLES fresh workers; the first LOOP_WORKERS share the timed rounds.

    Times are reported at the calibration kernel's reference speed: each
    raw time is multiplied by CALIBRATION_REF_S over the median kernel
    time of this run, operation times only where the operations ran in
    the workers that timed the kernel. The record keeps the raw figures.
    """
    n_loop = LOOP_WORKERS[args.workload]
    loop, setups, rss = Loop(), [], []
    t0 = perf_counter()
    for i in range(SETUP_SAMPLES):
        seconds = args.seconds / n_loop if i < n_loop else 0.0
        setup, state = run_worker(args.workload, args.seed, workdir, seconds, i, n_loop)
        setups.append(setup)
        loop.merge(state)
        if i < n_loop:
            rss.append(state["peak_rss_kb"])
    raw = {"setup_s": statistics.median(setups), **loop.end_to_end()}
    speed = CALIBRATION_REF_S / statistics.median(loop.calibration)
    op_speed = speed if args.workload in CALIBRATED_OPS else 1.0
    metrics = {"setup_s": (raw["setup_s"] * speed, "s"),
               "op_p50_s": (raw["op_p50_s"] * op_speed, "s"),
               "ops_per_s": (raw["ops_per_s"] / op_speed, "1/s"),
               "peak_rss_mb": (max(rss) / 1024.0, "MB")}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": 0, "wall_s": perf_counter() - t0, "setup_samples_s": setups,
              "raw_end_to_end": raw, "calibration_median_s": CALIBRATION_REF_S / speed,
              "calibration_samples": len(loop.calibration), **loop.record()}
    return metrics, loop, record


def traced_run(args, workdir):
    """Everything in this process: the workload, one short pass of the others."""
    tc = import_trapcoh()
    tracer = Tracer(True)
    wl = make_workload(args.workload, tc, tracer, args.seed, workdir)
    warm(wl)
    loop = Loop()
    t0 = perf_counter()
    loop.run(wl, seconds=args.seconds)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": 1, "wall_s": perf_counter() - t0, **loop.record(),
              "traced_end_to_end": loop.end_to_end()}
    # the probes' operations stay out of attempted and failed, so that a
    # traced run fails the same share of its operations as an untraced one
    probes = Loop()
    for other in WORKLOADS:
        if other != args.workload:
            probe = make_workload(other, tc, tracer, args.seed, workdir)
            warm(probe)
            probes.run(probe, rounds=PROBE_ROUNDS[other])
    loop.wrong += probes.wrong + probes.errors
    record["probes"] = {"attempted": probes.attempted, "failed": probes.failed,
                        "known_faults": len(probes.known)}
    metrics, record["spans"] = per_layer(tracer, import_split())
    untraced = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
    if untraced.is_file():
        base = json.loads(untraced.read_text())["raw_end_to_end"]
        record["trace_overhead"] = {k: record["traced_end_to_end"][k] - v
                                    for k, v in base.items() if k != "setup_s"}
        print(f"tracing overhead vs untraced run: {record['trace_overhead']}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    return metrics, loop, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trapcoh" / "__init__.py").is_file():
        print(f"no trapcoh sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "trapcoh")],
                   check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)

    workdir = RUNS / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, loop, record = traced_run(args, workdir)
        else:
            metrics, loop, record = untraced_run(args, workdir)
        result = {"correct": not loop.wrong, "attempted": loop.attempted,
                  "failed": loop.failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        record.update(result)
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
        for line in (loop.errors + loop.wrong)[:20]:
            print(line, file=sys.stderr)
        if loop.known:
            print(f"{len(loop.known)} operations failed on a known fault of trapcoh,"
                  f" first: {loop.known[0]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
