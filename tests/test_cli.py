"""Command-line interface: contracts, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import trapcoh
from trapcoh import CoherenceSeries, DecayParams, analytic_series, cli, io


def run_cli(*args, cwd, env_extra=None):
    """Run ``python -m trapcoh`` in ``cwd`` against the imported package.

    The directory holding the ``trapcoh`` this process imported goes first
    on the child's ``PYTHONPATH``, so a relative path from the caller or an
    installed copy cannot stand in for it. Output defaults to ``cwd``
    whatever ``TRAPCOH_OUTDIR`` the caller has; ``env_extra`` overrides.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(trapcoh.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    env["TRAPCOH_OUTDIR"] = str(cwd)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "trapcoh", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=env)


def write_series(path, series):
    io.write_csv(path, CoherenceSeries.COLUMNS, series.t_s, series.coherence, series.sigma)


def stdout_doc(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_simulate_defaults(tmp_path):
    proc = run_cli("simulate", "--seed", "3", "--n-traj", "2000", cwd=tmp_path)
    doc = stdout_doc(proc)
    assert doc["command"] == "simulate"
    assert doc["meta"]["seed"] == 3
    assert doc["meta"]["version"] == trapcoh.__version__
    for name in ("analytic.csv", "montecarlo.csv", "params.json"):
        assert (tmp_path / name).exists()
    # the emitted document is the canonical sorted-keys rendering
    assert proc.stdout == json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_simulate_deterministic(tmp_path):
    args = ("simulate", "--sigma-dls", "15.0", "--pjr", "5.14",
            "--n-traj", "3000", "--seed", "12", "--points", "21")
    first = run_cli(*args, cwd=tmp_path)
    blobs = {name: (tmp_path / name).read_bytes()
             for name in ("analytic.csv", "montecarlo.csv", "params.json")}
    second = run_cli(*args, cwd=tmp_path)
    assert first.stdout == second.stdout
    for name, blob in blobs.items():
        assert (tmp_path / name).read_bytes() == blob
    doc = json.loads(first.stdout)
    assert doc["params"] == {"sigma_dls_rad_s": 15.0, "pjr_per_s": 5.14}
    assert doc["t2_s"] == pytest.approx(0.07416461456998058, rel=1e-12)


def test_simulate_montecarlo_tracks_analytic(tmp_path):
    run_cli("simulate", "--sigma-dls", "12.0", "--pjr", "3.0",
            "--n-traj", "20000", "--seed", "5", "--t-max", "0.2",
            "--points", "11", cwd=tmp_path)
    analytic = np.genfromtxt(tmp_path / "analytic.csv", delimiter=",", names=True)
    mc = np.genfromtxt(tmp_path / "montecarlo.csv", delimiter=",", names=True)
    assert np.max(np.abs(analytic["coherence"] - mc["coherence"])) < 4.0 / math.sqrt(20000)


def test_simulate_temperature_mode(tmp_path):
    proc = run_cli("simulate", "--config", "cs133", "--spring-psd", "rin_40db",
                   "--temperature", "14e-6", "--n-traj", "2000", cwd=tmp_path)
    doc = stdout_doc(proc)
    assert doc["params"]["pjr_per_s"] == pytest.approx(13.138940951811716, rel=1e-9)
    assert "preset:cs133" in doc["meta"]["inputs"]
    assert "preset:rin_40db" in doc["meta"]["inputs"]


def test_fit_coherence_bundled_recovery(tmp_path):
    from importlib import resources
    data = (resources.files("trapcoh.data") / "decay_noisy_synthetic.csv").read_text()
    path = tmp_path / "decay.csv"
    path.write_text(data)
    proc = run_cli("fit", "--data", path, "--model", "coherence", cwd=tmp_path)
    doc = stdout_doc(proc)
    for name, truth in (("sigma_dls_rad_s", 15.0), ("pjr_per_s", 5.14)):
        pull = abs(doc["params"][name] - truth) / doc["uncertainties"][name]
        assert pull < 3.0
    assert doc["converged"] is True
    digest = hashlib.sha256(data.encode()).hexdigest()
    assert doc["meta"]["inputs"][str(path)] == digest
    residuals = (tmp_path / "residuals.csv").read_text().splitlines()
    assert residuals[0] == "t_s,observed,model,residual"
    assert len(residuals) == 13


def test_fit_noiseless_rss_floor(tmp_path):
    series = analytic_series(DecayParams(15.0, 5.14), np.linspace(0.0, 0.16, 12))
    path = tmp_path / "clean.csv"
    write_series(path, series)
    doc = stdout_doc(run_cli("fit", "--data", path, "--model", "coherence", cwd=tmp_path))
    assert doc["converged"] is True
    assert doc["rss"] < 1e-10


def test_fit_fringe_cli(tmp_path):
    phases = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    lines = ["phase_rad,population,sigma"]
    for p in phases:
        lines.append(f"{float(p)!r},{0.5 + 0.32 * 0.5 * math.cos(p - 0.4)!r},0.01")
    path = tmp_path / "fringe.csv"
    path.write_text("\n".join(lines) + "\n")
    doc = stdout_doc(run_cli("fit", "--data", path, "--model", "fringe", cwd=tmp_path))
    assert doc["params"]["amplitude"] == pytest.approx(0.32, rel=1e-6)
    assert doc["params"]["phase_rad"] == pytest.approx(0.4, rel=1e-6)


def test_fit_exponential_cli(tmp_path):
    t = np.linspace(0.0, 300.0, 13)
    lines = ["t_s,survival"]
    for ti, si in zip(t, np.exp(-t / 105.5)):
        lines.append(f"{float(ti)!r},{float(si)!r}")
    path = tmp_path / "surv.csv"
    path.write_text("\n".join(lines) + "\n")
    doc = stdout_doc(run_cli("fit", "--data", path, "--model", "exponential", cwd=tmp_path))
    assert doc["params"]["lifetime_s"] == pytest.approx(105.5, rel=1e-9)


def test_fit_ramsey_cli(tmp_path):
    t2star = 5.49e-3
    series = analytic_series(DecayParams(math.sqrt(2.0) / t2star, 0.0),
                             np.linspace(0.0, 2.0 * t2star, 14))
    path = tmp_path / "ramsey.csv"
    write_series(path, series)
    doc = stdout_doc(run_cli("fit", "--data", path, "--model", "ramsey",
                             "--eta", "1.5291931912736172e-4", cwd=tmp_path))
    assert doc["params"]["temperature_k"] == pytest.approx(1.7650617687260866e-05, rel=1e-6)


def test_fit_missing_file_exit_2(tmp_path):
    proc = run_cli("fit", "--data", tmp_path / "gone.csv", "--model", "coherence",
                   cwd=tmp_path)
    assert proc.returncode == 2
    err = json.loads(proc.stderr.splitlines()[-1])
    assert err["error"]["kind"] == "config_not_found"
    assert proc.stdout == ""


def test_fit_unknown_model_exit_2(tmp_path):
    proc = run_cli("fit", "--data", "x.csv", "--model", "sinusoid", cwd=tmp_path)
    assert proc.returncode == 2


def test_fit_degenerate_exit_3(tmp_path):
    t = np.linspace(0.0, 0.01, 8)
    series = CoherenceSeries(t, np.full(8, 0.99), np.zeros(8))
    path = tmp_path / "flat.csv"
    write_series(path, series)
    proc = run_cli("fit", "--data", path, "--model", "coherence", cwd=tmp_path)
    assert proc.returncode == 3
    err = json.loads(proc.stderr.splitlines()[-1])
    assert "kind" in err["error"] and "message" in err["error"]


def test_psd_pipeline(tmp_path):
    rng = np.random.default_rng(2)
    data = tmp_path / "power.csv"
    io.write_csv(data, ("t_s", "power_w"), np.arange(2 ** 13) / 1e4,
                 1.0 + 2e-3 * rng.standard_normal(2 ** 13))
    doc = stdout_doc(run_cli("psd", "--data", data, "--segment-length", "1024",
                             cwd=tmp_path))
    assert doc["n_samples"] == 2 ** 13
    assert doc["sample_rate_hz"] == pytest.approx(1e4, rel=1e-9)
    assert doc["psd_integral"] == pytest.approx(doc["relative_variance"] ** 2, rel=0.05)
    assert (tmp_path / "psd.csv").exists()
    assert (tmp_path / "psd.json").exists()


def test_psd_malformed_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_s,power_w\n0.0,a\n0.1,b\n")
    proc = run_cli("psd", "--data", bad, cwd=tmp_path)
    assert proc.returncode == 2
    err = json.loads(proc.stderr.splitlines()[-1])
    assert err["error"]["kind"] == "parse_error"


def test_filter_sweep(tmp_path):
    doc = stdout_doc(run_cli("filter", "--cpmg", "4", "--interval", "0.8",
                             "--points", "200", cwd=tmp_path))
    rows = (tmp_path / "filter.csv").read_text().splitlines()
    assert rows[0] == "f_hz,filter"
    assert len(rows) == 201
    assert doc["t_total_s"] == pytest.approx(3.2)
    assert doc["n_pulses"] == 4


def test_filter_sigma_eff(tmp_path):
    spec = {"kind": "spring_fractional",
            "samples": [[1e-4, 1.0], [0.01, 1.0], [0.0101, 1e-30], [1.0, 1e-30]]}
    psd_path = tmp_path / "slow.json"
    psd_path.write_text(json.dumps(spec))
    slow = stdout_doc(run_cli("filter", "--ramsey", "16.0", "--dls-psd", psd_path,
                              cwd=tmp_path))
    fast = stdout_doc(run_cli("filter", "--cpmg", "20", "--interval", "0.8",
                              "--dls-psd", psd_path, cwd=tmp_path))
    assert slow["sigma_eff_rad_s"] > 100.0 * fast["sigma_eff_rad_s"]


def test_filter_requires_one_sequence(tmp_path):
    proc = run_cli("filter", cwd=tmp_path)
    assert proc.returncode == 2
    proc = run_cli("filter", "--ramsey", "1.0", "--echo", "1.0", cwd=tmp_path)
    assert proc.returncode == 2


def test_estimate_rates_thermal(tmp_path):
    doc = stdout_doc(run_cli("estimate-rates", "--config", "cs133",
                             "--spring-psd", "rin_40db",
                             "--temperature", "14e-6", cwd=tmp_path))
    thermal = doc["thermal"]
    assert thermal["classical_per_s"] == pytest.approx(6.5241780749600204, rel=1e-9)
    assert thermal["exact_average_per_s"] == pytest.approx(13.138940951811716, rel=1e-9)
    assert thermal["temperature_k"] == pytest.approx(14e-6)
    assert "S(omega) = S(f) / (2 pi)" in doc["psd_convention"]


def test_estimate_rates_fixed(tmp_path):
    doc = stdout_doc(run_cli("estimate-rates", "--config", "bbt780",
                             "--spring-psd", "rin_flat_140",
                             "--occupation", "0,0,0", cwd=tmp_path))
    fixed = doc["fixed"]
    assert fixed["occupation"] == [0, 0, 0]
    assert fixed["total_per_s"] == pytest.approx(2.4921176739440397e-06, rel=1e-9)
    assert fixed["total_per_s"] < 1e-5


def test_estimate_rates_needs_target(tmp_path):
    proc = run_cli("estimate-rates", "--config", "cs133",
                   "--spring-psd", "rin_40db", cwd=tmp_path)
    assert proc.returncode == 2


def test_outdir_env_and_flag(tmp_path):
    via_env = tmp_path / "env"
    via_env.mkdir()
    run_cli("simulate", "--n-traj", "2000", cwd=tmp_path,
            env_extra={"TRAPCOH_OUTDIR": str(via_env)})
    assert (via_env / "analytic.csv").exists()
    via_flag = tmp_path / "flag"
    via_flag.mkdir()
    run_cli("simulate", "--n-traj", "2000", "--outdir", via_flag, cwd=tmp_path,
            env_extra={"TRAPCOH_OUTDIR": str(via_env)})
    assert (via_flag / "analytic.csv").exists()


def test_report_all_rows_pass(tmp_path):
    proc = run_cli("report", "--seed", "11", cwd=tmp_path)
    doc = stdout_doc(proc)
    assert doc["all_passed"] is True
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["rows"]) == 18
    assert all(row["passed"] for row in report["rows"])
    markdown = (tmp_path / "report.md").read_text()
    assert markdown.count("\n") >= 20


def test_estimate_rates_hot_atom(capsys):
    # 20 mK puts 1.6e6 phonons on the cs133 z axis: the closed-form thermal
    # moments have no level ceiling
    code = cli.main(["estimate-rates", "--config", "cs133", "--spring-psd", "rin_40db",
                     "--temperature", "0.02"])
    assert code == 0
    thermal = json.loads(capsys.readouterr().out)["thermal"]
    for key in ("classical_per_s", "exact_average_per_s"):
        assert math.isfinite(thermal[key]) and thermal[key] > 0.0


def test_fit_ramsey_fits_decay_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ramsey.csv"
    write_series(path, analytic_series(DecayParams(200.0, 3.0), np.linspace(0.0, 0.01, 14)))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return trapcoh.fit_coherence_decay(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_coherence_decay", counting)
    assert cli.main(["fit", "--data", str(path), "--model", "ramsey", "--eta", "1.53e-4",
                     "--outdir", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["model"] == "ramsey_decay"



BAD_INPUTS = {
    "simulate_sigma_nan": ["simulate", "--sigma-dls", "nan", "--n-traj", "100",
                           "--points", "3"],
    "simulate_pjr_inf": ["simulate", "--pjr", "inf", "--n-traj", "100", "--points", "3"],
    "filter_f_min_zero": ["filter", "--cpmg", "2", "--interval", "0.1", "--f-min", "0",
                          "--points", "5"],
    "filter_no_points": ["filter", "--ramsey", "1.0", "--points", "0"],
    "filter_missing_sequence": ["filter", "--sequence", "missing.json"],
    "fit_nan_cell": ["fit", "--data", "nan_decay.csv", "--model", "coherence"],
    "fit_fringe_nan_cell": ["fit", "--data", "nan_fringe.csv", "--model", "fringe"],
    "fit_data_directory": ["fit", "--data", ".", "--model", "coherence"],
    "estimate_rates_config_directory": ["estimate-rates", "--config", ".",
                                        "--occupation", "0,0,0"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exit_2(argv, tmp_path, monkeypatch, capsys):
    """Contract: exit 2, nothing on stdout, one JSON error line on stderr."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TRAPCOH_OUTDIR", str(tmp_path))
    # enough points to reach the optimizer, which fails on a NaN residual
    t = np.linspace(0.0, 0.16, 8)
    decay = np.exp(-0.5 * (15.0 * t) ** 2 - 5.14 * t)
    decay[3] = math.nan
    io.write_csv(tmp_path / "nan_decay.csv", CoherenceSeries.COLUMNS, t, decay, np.full(8, 0.01))
    phases = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    population = 0.5 + 0.3 * np.cos(phases)
    population[2] = math.nan
    io.write_csv(tmp_path / "nan_fringe.csv", ("phase_rad", "population"), phases, population)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert set(error) == {"kind", "message"}
