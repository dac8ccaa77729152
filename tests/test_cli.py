"""Command-line interface: contracts, determinism, exit codes."""

import errno
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from io import StringIO

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import trapcoh
from trapcoh import CoherenceSeries, DecayParams, analytic_series, cli, fitting, io
from trapcoh import report as report_mod


def run_cli(*args, cwd, env_extra=None, stdout=subprocess.PIPE):
    """Run ``python -m trapcoh`` in ``cwd`` against the imported package.

    The directory holding the ``trapcoh`` this process imported goes first
    on the child's ``PYTHONPATH``, so a relative path from the caller or an
    installed copy cannot stand in for it. Output defaults to ``cwd``
    whatever ``TRAPCOH_OUTDIR`` the caller has; ``env_extra`` overrides.
    stdout is captured unless given an open file.
    """
    env = {**package_env(), "TRAPCOH_OUTDIR": str(cwd), **(env_extra or {})}
    return subprocess.run(
        [sys.executable, "-m", "trapcoh", *map(str, args)],
        stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=cwd, env=env)


def package_env():
    """This process's environment with the imported package's directory first on
    PYTHONPATH."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(trapcoh.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def write_series(path, series):
    io.write_csv(path, CoherenceSeries.COLUMNS, series.t_s, series.coherence, series.sigma)


def write_cells(path, names, *columns):
    """CSV with repr cells, NaN and inf included, which io.write_csv refuses."""
    rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))
    path.write_text(",".join(names) + "\n" + rows)


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


@pytest.mark.parametrize("argv,bound", [
    # the README example: the largest |MC - C(t)| over 33 points, in standard errors
    (["--sigma-dls", "15.0", "--pjr", "5.14", "--t-max", "0.16", "--points", "33",
      "--n-traj", "20000"], 5.0),
    # no decay: every Monte-Carlo point is exactly 1
    (["--sigma-dls", "0", "--pjr", "0", "--n-traj", "500"], 0.0),
])
def test_simulate_mc_max_z(argv, bound, tmp_path, capsys):
    assert cli.main(["simulate", *argv, "--outdir", str(tmp_path)]) == 0
    assert 0.0 <= json.loads(capsys.readouterr().out)["mc_max_z"] <= bound


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


@pytest.mark.filterwarnings("error")
def test_fit_exponential_survives_overflowing_step(tmp_path, capsys):
    # LM trial steps on this survival table can overflow exp(-k t) (MINPACK's did);
    # the fit must reach the optimum also under the CLI's numpy errstate
    t = [0.11643992862612376, 0.2429780808487379, 0.25, 0.3333333333333333,
         0.33791782316654856, 0.35372562476207575, 0.6769750667606899, 1.0]
    survival = [0.19922224717996212, 5.37e-55, 1.66e-27, 0.4286475198410261,
                0.5680356234110445, 0.37009060785414866, 1.66e-27, 0.0]
    path = tmp_path / "surv.csv"
    io.write_csv(path, ("t_s", "survival"), np.array(t), np.array(survival))
    assert cli.main(["fit", "--data", str(path), "--model", "exponential",
                     "--outdir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    # the least-squares optimum (rss 0.34607936862303005), from rss(k) minimised in
    # 50-digit arithmetic with A(k) in closed form; MINPACK's ftol stop was 6e-7 short
    assert doc["params"]["amplitude"] == pytest.approx(0.30093731573178551, rel=1e-7)
    assert doc["params"]["lifetime_s"] == pytest.approx(0.92120579564045576, rel=1e-7)
    assert doc["rss"] <= 0.34607936862310434


@pytest.mark.parametrize("t_head", [1e-200, 1e-100])
def test_fit_coherence_with_underflowing_head(t_head, tmp_path, capsys):
    # the second time squares to 0.0 (1e-200), or to a t**2 column whose norm
    # underflows (1e-100); neither may end in a 0/0 exit 3
    path = tmp_path / "decay.csv"
    io.write_csv(path, CoherenceSeries.COLUMNS, np.array([0.0, t_head, 0.5, 1.0, 2.0]),
                 np.array([1.0, 0.9, 0.5, 0.3, 0.1]), np.full(5, 0.02))
    assert cli.main(["fit", "--data", str(path), "--model", "coherence",
                     "--outdir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"]
    assert doc["rss"] == pytest.approx(29.266236124458217, rel=1e-9)


def fit_at_two_time_scales(tmp_path, capsys, *model_args):
    """`fit` documents of one decay table over 4e-170 s and over 4 s."""
    docs = []
    for scale in (1e-170, 1.0):
        path = tmp_path / "decay.csv"
        io.write_csv(path, CoherenceSeries.COLUMNS, np.arange(5.0) * scale,
                     np.array([1.0, 0.9, 0.5, 0.3, 0.1]), np.full(5, 0.02))
        assert cli.main(["fit", "--data", str(path), *model_args,
                         "--outdir", str(tmp_path)]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    return docs


def test_fit_coherence_on_tiny_times(tmp_path, capsys):
    # the fit runs on t / t_max: a decay over 4e-170 s fits as the same decay over
    # 4 s, with rates 1e170 times higher
    tiny, unit = fit_at_two_time_scales(tmp_path, capsys, "--model", "coherence")
    for name in ("sigma_dls_rad_s", "pjr_per_s"):
        err = unit["uncertainties"][name] * 1e170
        assert tiny["uncertainties"][name] == pytest.approx(err, rel=1e-9)
        # R ends near 0 here, so it is compared on the scale of its uncertainty
        assert tiny["params"][name] == pytest.approx(unit["params"][name] * 1e170,
                                                     rel=1e-9, abs=1e-9 * err)


def test_fit_ramsey_on_tiny_times(tmp_path, capsys):
    # T2* and its error over 4e-170 s are 1e-170 times those over 4 s: the error
    # is propagated in t / t_max units, where t2**2 and the (sigma_dls, R)
    # covariance stay in the float range (they underflow and overflow in seconds)
    tiny, unit = fit_at_two_time_scales(tmp_path, capsys, "--model", "ramsey",
                                        "--eta", "1.5e-4")
    for part in ("params", "uncertainties"):
        assert tiny[part]["t2star_s"] == pytest.approx(unit[part]["t2star_s"] * 1e-170,
                                                       rel=1e-9)
    assert tiny["uncertainties"]["t2star_s"] > 0.0


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
    assert assert_error_only(proc.stdout, proc.stderr)["kind"] == "parse_error"


def test_fit_degenerate_exit_3(tmp_path):
    t = np.linspace(0.0, 0.01, 8)
    series = CoherenceSeries(t, np.full(8, 0.99), np.zeros(8))
    path = tmp_path / "flat.csv"
    write_series(path, series)
    proc = run_cli("fit", "--data", path, "--model", "coherence", cwd=tmp_path)
    assert proc.returncode == 3
    assert assert_error_only(proc.stdout, proc.stderr)["kind"] == "unidentifiable"
    assert sorted(os.listdir(tmp_path)) == ["flat.csv"]


@pytest.mark.parametrize("model", ["coherence", "ramsey"])
def test_fit_singular_jtj_exit_3(model, tmp_path, capsys):
    # J^T J at the optimum is singular to working precision; its inverse once
    # printed "pjr_per_s": 0.0494 +- 0.0 with exit 0
    path = tmp_path / "singular.csv"
    write_cells(path, CoherenceSeries.COLUMNS,
                [0.0, 722.6369997275716, 2477.6808463504435, 2601.6197856973886],
                [0.9911146423172468, -0.026314158135003474, 0.022757628751851687,
                 0.01399621803766588],
                [0.1563123401423609, 0.10025455069719051, 0.14683413427440584,
                 0.012181730983229716])
    argv = ["fit", "--data", str(path), "--model", model, "--outdir", str(tmp_path / "out")]
    assert cli.main(argv + (["--eta", "1.53e-4"] if model == "ramsey" else [])) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"]["kind"] == "unidentifiable"
    assert not (tmp_path / "out").exists()


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


def test_psd_near_float_max(tmp_path, capsys):
    # squared deviations of 1e304-level samples overflow unless scaled first
    z = np.random.default_rng(25).standard_normal(1000)
    data = tmp_path / "huge.csv"
    io.write_csv(data, ("t_s", "power_w"), np.arange(1000) / 1e3, 1e304 * (1.0 + 0.01 * z))
    assert cli.main(["psd", "--data", str(data), "--segment-length", "64",
                     "--outdir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["relative_variance"] == pytest.approx(0.01, rel=0.1)


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


def test_filter_sequence_json_matches_cpmg_flag(tmp_path, capsys):
    # a JSON round trip keeps the CPMG layout bit for bit, so it takes the same form
    seq_path = tmp_path / "seq.json"
    io.write_json(seq_path, trapcoh.cpmg(3, 0.5).to_json_obj())
    for name, chosen in (("json", ["--sequence", str(seq_path)]),
                         ("flag", ["--cpmg", "3", "--interval", "0.5"])):
        assert cli.main(["filter", *chosen, "--outdir", str(tmp_path / name)]) == 0
    capsys.readouterr()
    json_csv = (tmp_path / "json" / "filter.csv").read_bytes()
    assert json_csv == (tmp_path / "flag" / "filter.csv").read_bytes()


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


def test_report_failing_rows_exit_3_with_files(tmp_path, monkeypatch, capsys):
    row = report_mod.ReportRow("check", "1", "2", "equal", False)
    monkeypatch.setattr(report_mod, "build_report", lambda mc_seed: [row])
    assert cli.main(["report", "--outdir", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert doc["files"] == {"markdown": str(tmp_path / "report.md"),
                            "json": str(tmp_path / "report.json")}
    assert json.loads((tmp_path / "report.json").read_text())["rows"] == [row.to_json_obj()]
    assert "SOME CHECKS FAILED" in (tmp_path / "report.md").read_text()
    assert err == "ERROR report has failing rows\n"


def test_log_lines_go_to_the_stderr_of_each_call(tmp_path):
    # two in-process calls, each under its own stderr, each get their own line
    argv = ["simulate", "--n-traj", "100", "--points", "3", "--outdir", str(tmp_path)]
    for sigma in ("15", "20"):
        err = StringIO()
        with redirect_stderr(err), redirect_stdout(StringIO()):
            assert cli.main([*argv, "--sigma-dls", sigma]) == 0
        assert err.getvalue() == f"INFO simulating with sigma_dls={sigma} rad/s, pjr=0 1/s\n"


def test_memory_error_is_out_of_memory_exit_3(tmp_path, monkeypatch, capsys):
    """An array the host cannot allocate (numpy's _ArrayMemoryError is a
    MemoryError) is one JSON error and exit 3, with no traceback and no file."""
    def refuse(args):
        raise MemoryError("Unable to allocate 97.7 GiB for an array")

    monkeypatch.setattr(cli, "cmd_simulate", refuse)
    assert cli.main(["simulate", "--outdir", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    error = assert_error_only(out, err)
    assert error["kind"] == "out_of_memory"
    assert "97.7 GiB" in error["message"]
    assert list(tmp_path.iterdir()) == []


def test_estimate_rates_hot_atom(capsys):
    # 20 mK puts 1.6e6 phonons on the cs133 z axis: the closed-form thermal
    # moments have no level ceiling
    code = cli.main(["estimate-rates", "--config", "cs133", "--spring-psd", "rin_40db",
                     "--temperature", "0.02"])
    assert code == 0
    thermal = json.loads(capsys.readouterr().out)["thermal"]
    for key in ("classical_per_s", "exact_average_per_s"):
        assert math.isfinite(thermal[key]) and thermal[key] > 0.0


def test_non_finite_config_field_exit_2(tmp_path, capsys):
    # json reads NaN, Infinity and -Infinity: each trap-config field refuses them
    base = io.read_preset("cs133")
    for k, field in enumerate(base):
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps({**base, field: (math.nan, math.inf, -math.inf)[k % 3]}))
        for argv in (["estimate-rates", "--spring-psd", "rin_40db", "--occupation", "3,4,5"],
                     ["simulate", "--n-traj", "100", "--points", "3", "--outdir", str(tmp_path)]):
            assert cli.main([*argv, "--config", str(path)]) == 2, field
            assert assert_error_only(*capsys.readouterr())["kind"] == "domain_error"
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".json"] * len(base)


def numpy_cpu():
    """(CPU features numpy detected, the targets it dispatches to at run time)."""
    from numpy._core import _multiarray_umath as umath
    return umath.__cpu_features__, umath.__cpu_dispatch__


@pytest.mark.skipif(not numpy_cpu()[0].get("AVX512F"),
                    reason="numpy reports no AVX512F: both runs would dispatch alike")
def test_budget_bytes_do_not_depend_on_simd_dispatch(tmp_path):
    # the budget kernels run on Python floats and math, so a child that numpy
    # dispatches as on a CPU without AVX-512 must print the same bytes
    avx512 = " ".join(f for f in numpy_cpu()[1] if f == "X86_V4" or f.startswith("AVX512"))
    rng = np.random.default_rng(33)
    base = io.read_preset("cs133")
    position = tmp_path / "position.json"
    position.write_text(json.dumps({"kind": "position",
                                    "samples": [[1e2, 1e-24], [1e4, 3e-26], [1e6, 1e-27]]}))
    argvs = []
    for k in range(40):
        cfg = {**base, **{name: base[name] * 10.0 ** rng.uniform(-0.5, 0.5)
                          for name in ("omega_x_rad_s", "omega_y_rad_s", "omega_z_rad_s")}}
        (tmp_path / f"trap{k}.json").write_text(json.dumps(cfg))
        argvs.append(["estimate-rates", "--config", str(tmp_path / f"trap{k}.json"),
                      "--spring-psd", "rin_40db", "--position-psd", str(position),
                      "--occupation", "3,4,5", "--temperature", "2e-5"])
    script = ("import json, sys\nfrom trapcoh import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cli.main(argv) == 0\n    sys.stdout.write('\\0')\n")
    env = package_env()
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    docs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": avx512}):
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], cwd=tmp_path,
                              env={**env, **extra}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        docs.append(proc.stdout.split("\0")[:-1])
    assert len(docs[0]) == len(docs[1]) == 40
    moved = [argv[2] for argv, a, b in zip(argvs, *docs) if a != b]
    assert not moved, f"{len(moved)} of 40 configs print other bytes without AVX-512: {moved}"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: OpenBLAS runs one thread")
def test_cli_pins_openblas_to_one_thread(tmp_path):
    # OpenBLAS splits simulate's larger uniform-grid products over its threads,
    # which moves last digits; the CLI runs one thread unless the user says otherwise
    argv = ("simulate", "--sigma-dls", "15.0", "--pjr", "5.14", "--points", "400",
            "--n-traj", "20000", "--seed", "3")
    written = []
    for threads in (None, "1"):
        out = tmp_path / str(threads)
        out.mkdir()
        env = package_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-m", "trapcoh", *argv, "--outdir", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        written.append((out / "montecarlo.csv").read_bytes())
    assert written[0] == written[1]


def test_cli_keeps_a_users_openblas_setting(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(os.environ.get("OPENBLAS_NUM_THREADS")))
    monkeypatch.setattr(cli.os, "_exit", lambda code: None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    cli.run()
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")  # restored to the caller's value at teardown
    cli.run()
    assert seen == ["2", "1"]


def test_fit_ramsey_fits_decay_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ramsey.csv"
    write_series(path, analytic_series(DecayParams(200.0, 3.0), np.linspace(0.0, 0.01, 14)))
    # every decay fit, through whichever import, runs _levenberg_marquardt once
    lm, calls = fitting._levenberg_marquardt, []

    def counting(*args):
        calls.append(args)
        return lm(*args)

    monkeypatch.setattr(fitting, "_levenberg_marquardt", counting)
    assert cli.main(["fit", "--data", str(path), "--model", "ramsey", "--eta", "1.53e-4",
                     "--outdir", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["model"] == "ramsey_decay"


def fit_table(model):
    """(column names, x, y, sigma) of a noisy weighted table for a fit model."""
    if model == "fringe":
        names, x = ("phase_rad", "population", "sigma"), np.linspace(0.0, 6.0, 16)
        y = 0.5 + 0.45 * np.cos(x - 0.3)
    elif model == "exponential":
        names, x = ("t_s", "survival", "sigma"), np.linspace(0.0, 3.0, 12)
        y = 0.95 * np.exp(-x / 1.2)
    else:
        names, x = CoherenceSeries.COLUMNS, np.linspace(0.0, 0.16, 12)
        y = trapcoh.coherence(DecayParams(15.0, 5.14), x)
    y = y + np.random.default_rng(27).normal(0.0, 0.01, x.size)
    return names, x, y, np.full(x.size, 0.01)


@pytest.mark.parametrize("model", sorted(cli.FIT_COLUMNS))
def test_fit_residuals_are_the_fitted_curve(model, tmp_path, capsys):
    # residuals.csv writes FitResult.fitted, the model of the printed params
    names, x, y, sd = fit_table(model)
    io.write_csv(tmp_path / "data.csv", names, x, y, sd)
    assert cli.main(["fit", "--data", str(tmp_path / "data.csv"), "--model", model,
                     "--eta", "1.53e-4", "--outdir", str(tmp_path)]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    cols = io.read_csv(tmp_path / "residuals.csv", (names[0], "observed", "model", "residual"))
    if model in ("coherence", "ramsey"):
        series = CoherenceSeries(x, y, sd)
        result = (trapcoh.fit_ramsey_decay(series, 1.53e-4) if model == "ramsey"
                  else trapcoh.fit_coherence_decay(series))
        decay = trapcoh.fit_coherence_decay(series).params
        curve = trapcoh.coherence(DecayParams(decay["sigma_dls_rad_s"], decay["pjr_per_s"]), x)
    elif model == "fringe":
        result = trapcoh.fit_fringe(x, y, sd)
        curve = fitting.fringe(x, **params)
    else:
        result = trapcoh.fit_exponential(x, y, sd)
        curve = params["amplitude"] * np.exp(-x / params["lifetime_s"])
    assert params == result.params
    assert np.array_equal(cols[names[0]], x) and np.array_equal(cols["observed"], y)
    assert np.array_equal(cols["model"], result.fitted)
    assert np.array_equal(cols["residual"], cols["observed"] - cols["model"])
    assert np.array_equal(result.fitted, curve)



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
    # a zero sigma among positive ones is refused, not an unweighted fit
    "fit_zero_sigma_cell": ["fit", "--data", "zero_sigma_decay.csv", "--model", "ramsey",
                            "--eta", "1e-3"],
    "fit_data_directory": ["fit", "--data", ".", "--model", "coherence"],
    # t_max = 0: the point count refuses the series before anything divides by it
    "fit_ramsey_one_point_at_zero": ["fit", "--data", "one_point_decay.csv", "--model",
                                     "ramsey", "--eta", "1e-3"],
    "estimate_rates_config_directory": ["estimate-rates", "--config", ".",
                                        "--occupation", "0,0,0"],
    "simulate_temperature_nan": ["simulate", "--temperature", "nan", "--n-traj", "100",
                                 "--points", "3"],
    "estimate_rates_temperature_inf": ["estimate-rates", "--spring-psd", "rin_40db",
                                       "--temperature", "inf"],
    "simulate_outdir_under_file": ["simulate", "--outdir", "afile/sub", "--n-traj", "100",
                                   "--points", "3"],
    "filter_outdir_is_file": ["filter", "--ramsey", "1", "--outdir", "afile"],
    "filter_f_max_inf": ["filter", "--ramsey", "1", "--f-max", "inf", "--points", "3"],
    "filter_ramsey_inf": ["filter", "--ramsey", "inf", "--points", "3"],
    # round(0.95 * 8) = 8 samples of overlap would leave no step between segments
    "psd_overlap_whole_segment": ["psd", "--data", "trace.csv", "--segment-length", "8",
                                  "--overlap", "0.95"],
    "psd_inf_cell": ["psd", "--data", "inf_trace.csv", "--segment-length", "8"],
    "psd_nan_cell": ["psd", "--data", "nan_trace.csv", "--segment-length", "8"],
    "psd_no_header": ["psd", "--data", "headerless_trace.csv", "--segment-length", "8"],
    # np.linspace(0, inf) is NaN: bad input, not a numerical failure
    "simulate_t_max_inf": ["simulate", "--t-max", "inf", "--n-traj", "100", "--points", "3"],
    # command lines argparse refuses
    "simulate_n_traj_not_int": ["simulate", "--n-traj", "abc"],
    "filter_two_sequences": ["filter", "--ramsey", "1.0", "--echo", "1.0"],
    "filter_no_sequence": ["filter", "--points", "3"],
    "simulate_occupation_and_temperature": ["simulate", "--occupation", "0,0,0",
                                            "--temperature", "1e-6"],
    "unknown_subcommand": ["frobnicate"],
}
#: bad inputs whose content the one CSV reader, or argparse, refuses
PARSE_ERRORS = {"fit_nan_cell", "fit_fringe_nan_cell", "psd_inf_cell", "psd_nan_cell",
                "psd_no_header", "simulate_n_traj_not_int", "filter_two_sequences",
                "filter_no_sequence", "simulate_occupation_and_temperature",
                "unknown_subcommand"}


def assert_error_only(out, err):
    """Contract of a failed command: nothing on stdout, one JSON error line on stderr."""
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert set(error) == {"kind", "message"}
    return error


@pytest.mark.parametrize("name,argv", BAD_INPUTS.items(), ids=BAD_INPUTS.keys())
def test_bad_input_exit_2(name, argv, tmp_path, monkeypatch, capsys):
    """Contract: exit 2, nothing on stdout, one JSON error line on stderr,
    and no file written; a CSV the reader refuses is a parse_error."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TRAPCOH_OUTDIR", str(tmp_path))
    (tmp_path / "afile").write_text("")  # a regular file where an output directory goes
    # enough points to reach the optimizer, which fails on a NaN residual
    t = np.linspace(0.0, 0.16, 8)
    decay = np.exp(-0.5 * (15.0 * t) ** 2 - 5.14 * t)
    write_cells(tmp_path / "zero_sigma_decay.csv", CoherenceSeries.COLUMNS, t, decay,
                np.where(np.arange(8) == 2, 0.0, 0.01))
    write_cells(tmp_path / "one_point_decay.csv", CoherenceSeries.COLUMNS, [0.0], [1.0], [0.01])
    decay[3] = math.nan
    write_cells(tmp_path / "nan_decay.csv", CoherenceSeries.COLUMNS, t, decay, np.full(8, 0.01))
    phases = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    population = 0.5 + 0.3 * np.cos(phases)
    population[2] = math.nan
    write_cells(tmp_path / "nan_fringe.csv", ("phase_rad", "population"), phases, population)
    power = 1.0 + 0.01 * np.cos(np.arange(16))
    write_cells(tmp_path / "trace.csv", ("t_s", "power_w"), np.arange(16) / 1e3, power)
    for bad in ("inf", "nan"):
        write_cells(tmp_path / f"{bad}_trace.csv", ("t_s", "power_w"), np.arange(16) / 1e3,
                    np.where(np.arange(16) == 5, float(bad), power))
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    (tmp_path / "headerless_trace.csv").write_text("\n".join(rows) + "\n")
    inputs = sorted(os.listdir(tmp_path))
    assert cli.main(argv) == 2
    error = assert_error_only(*capsys.readouterr())
    assert sorted(os.listdir(tmp_path)) == inputs
    if name in PARSE_ERRORS:
        assert error["kind"] == "parse_error"


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    # main prints the text itself and returns; argparse neither writes nor exits
    assert cli.main([flag]) == 0
    out, err = capsys.readouterr()
    assert out == (trapcoh.__version__ + "\n" if flag == "--version"
                   else cli.build_parser().format_help())
    assert err == ""


# The process entry point, cli.run: main, a flush of stderr, then os._exit with main's code.

@pytest.mark.parametrize("flag,text", [("--help", "usage: trapcoh"),
                                       ("--version", trapcoh.__version__ + "\n")])
def test_process_help_and_version_exit_0(flag, text, tmp_path):
    proc = run_cli(flag, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(text) and proc.stderr == ""


BUNDLED_DECAY = str(resources.files("trapcoh.data") / "decay_noisy_synthetic.csv")


@pytest.mark.parametrize("argv,names", [
    (["simulate", "--sigma-dls", "15.0", "--pjr", "5.14", "--t-max", "0.16", "--points", "33",
      "--n-traj", "20000"], ["analytic.csv", "montecarlo.csv", "params.json"]),
    (["fit", "--data", BUNDLED_DECAY, "--model", "coherence"], ["residuals.csv"]),
], ids=["simulate", "fit_coherence"])
def test_process_writes_the_bytes_of_main(argv, names, tmp_path):
    """The README examples as a process and through cli.main in this one:
    the same stdout, stderr and files, byte for byte."""
    out = tmp_path / "out"
    argv = [*argv, "--outdir", str(out)]
    proc = run_cli(*argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    files = {name: (out / name).read_bytes() for name in names}
    shutil.rmtree(out)
    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        assert cli.main(argv) == 0
    assert (proc.stdout, proc.stderr) == (stdout.getvalue(), stderr.getvalue())
    assert {name: (out / name).read_bytes() for name in names} == files
    assert sorted(os.listdir(out)) == sorted(names)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_process_stdout_failure_is_output_error_exit_2(unbuffered, tmp_path):
    """stdout on a full device fails as an output file does: one JSON
    output_error and exit 2, whether the write or the flush raises; the text
    of --help and --version too."""
    for argv in (["report", "--seed", "11"], ["--version"], ["--help"], ["fit", "--help"]):
        with open("/dev/full", "w") as full:
            proc = run_cli(*argv, cwd=tmp_path, stdout=full,
                           env_extra={"PYTHONUNBUFFERED": unbuffered})
        assert proc.returncode == 2, argv
        assert assert_error_only("", proc.stderr)["kind"] == "output_error"


class FailingStream(StringIO):
    """A text stream whose `method` raises ENOSPC, as a write to a full disk does."""

    def __init__(self, method):
        super().__init__()
        self.method = method

    def write(self, text):
        self.fail("write")
        return super().write(text)

    def flush(self):
        self.fail("flush")

    def fail(self, method):
        if method == self.method:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("method", ["write", "flush"])
def test_main_stdout_failure_is_output_error_exit_2(method, tmp_path):
    # the command succeeded and wrote its files, so no INFO line follows the error;
    # --version's text goes through the same write
    for argv in (["simulate", "--n-traj", "100", "--points", "3", "--outdir", str(tmp_path)],
                 ["--version"]):
        err = StringIO()
        with redirect_stdout(FailingStream(method)), redirect_stderr(err):
            code = cli.main(argv)
        assert code == 2, argv
        assert assert_error_only("", err.getvalue()) == {
            "kind": "output_error",
            "message": f"cannot write stdout: {os.strerror(errno.ENOSPC)}"}


#: t_s and survival (unweighted) whose fits overflow past LM, and the kind
#: that the library and the CLI both give
OVERFLOWING_LIFETIMES = {
    # f.f overflows: the rss and both uncertainties would be inf
    "rss": ([1e226, 5e260, 1e270], [1e300, 0.1, 0.1], "non_finite"),
    # J^T J at the optimum overflows: singular
    "jtj": ([4e258, 7e260, 5e261], [1e300, 0.7, 0.5], "unidentifiable"),
}


@pytest.mark.parametrize("t,survival,kind", OVERFLOWING_LIFETIMES.values(),
                         ids=OVERFLOWING_LIFETIMES.keys())
def test_overflowing_fit_has_one_verdict(t, survival, kind, tmp_path, capsys):
    """fit_exponential under numpy's default error state, under the CLI's
    "raise", and through cli.main: the same error kind."""
    for state in ({}, {"over": "raise", "invalid": "raise", "divide": "raise"}):
        with np.errstate(**state), pytest.raises(trapcoh.TrapcohError) as info:
            trapcoh.fit_exponential(t, survival)
        assert info.value.kind == kind, state
    path = tmp_path / "survival.csv"
    write_cells(path, ("t_s", "survival"), t, survival)
    assert cli.main(["fit", "--data", str(path), "--model", "exponential",
                     "--outdir", str(tmp_path / "out")]) == 3
    assert assert_error_only(*capsys.readouterr())["kind"] == kind


def test_overflowing_fringe_has_one_verdict(tmp_path, capsys):
    # the weighted residual of the 1e300 cell squares past the float range
    phases = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    population = 0.5 + 0.3 * np.cos(phases)
    population[1] = 1e300
    for state in ({}, {"over": "raise", "invalid": "raise", "divide": "raise"}):
        with np.errstate(**state), pytest.raises(trapcoh.UnidentifiableModelError):
            trapcoh.fit_fringe(phases, population, np.full(8, 0.02))
    path = tmp_path / "fringe.csv"
    write_cells(path, ("phase_rad", "population", "sigma"), phases, population, np.full(8, 0.02))
    assert cli.main(["fit", "--data", str(path), "--model", "fringe",
                     "--outdir", str(tmp_path / "out")]) == 3
    assert assert_error_only(*capsys.readouterr())["kind"] == "unidentifiable"


def test_fit_columns_of_the_decay_models():
    # spelled out in cli, so that parsing a command line loads no numpy
    assert cli.FIT_COLUMNS["coherence"] == cli.FIT_COLUMNS["ramsey"] == CoherenceSeries.COLUMNS


NON_FINITE = {
    # omega_z ** 3 overflows, and the fixed-occupation rate is NaN
    "estimate_rates_omega_1e120": ["estimate-rates", "--config", "huge_omega.json",
                                   "--occupation", "0,0,0"],
    # the classical thermal rate squares k T / 2 past the float range
    "estimate_rates_temperature_1e300": ["estimate-rates", "--spring-psd", "rin_40db",
                                         "--temperature", "1e300"],
    # F S summed over the band overflows for a PSD near the float maximum
    "filter_psd_1e308": ["filter", "--ramsey", "1.0", "--dls-psd", "huge_psd.json"],
}


@pytest.mark.filterwarnings("error")  # numpy raises, it never warns
@pytest.mark.parametrize("argv", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_result_exit_3(argv, tmp_path, monkeypatch, capsys):
    """A result with a NaN or inf is never printed or written: exit 3 with a
    non_finite error."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TRAPCOH_OUTDIR", str(tmp_path))
    config = io.read_preset("cs133")
    config["omega_z_rad_s"] = 1e120
    io.write_json(tmp_path / "huge_omega.json", config)
    io.write_json(tmp_path / "huge_psd.json",
                  {"kind": "dls", "samples": [[1e-4, 1e308], [1e3, 1e308]]})
    assert cli.main(argv) == 3
    assert assert_error_only(*capsys.readouterr())["kind"] == "non_finite"
    assert sorted(os.listdir(tmp_path)) == ["huge_omega.json", "huge_psd.json"]


PAST_THE_FLOAT_RANGE = {
    # (w T)^2 overflows on the whole band of a 1e300 s echo
    "filter_echo_1e300": ["filter", "--echo", "1e300", "--dls-psd", "rin_40db"],
    # 2 pi f overflows at the top point
    "filter_ramsey_f_max_1e308": ["filter", "--ramsey", "0.8", "--f-min", "1",
                                  "--f-max", "1e308", "--points", "3"],
    # (w T)^2 overflows at the top point, w does not
    "filter_cpmg_f_max_1e306": ["filter", "--cpmg", "4", "--interval", "0.1", "--f-min", "1",
                                "--f-max", "1e306", "--points", "3"],
    # 10^log10(f_max) overflows at the largest float: the top point is f_max itself
    "filter_ramsey_f_max_float_max": ["filter", "--ramsey", "0.8", "--f-min", "1",
                                      "--f-max", "1.7976931348623157e308", "--points", "3"],
    "filter_psd_f_max_float_max": ["filter", "--ramsey", "0.8", "--f-min", "1e306",
                                   "--f-max", "1.7976931348623157e308", "--dls-psd", "rin_40db"],
}


@pytest.mark.filterwarnings("error")  # numpy raises, it never warns
@pytest.mark.parametrize("argv", PAST_THE_FLOAT_RANGE.values(), ids=PAST_THE_FLOAT_RANGE.keys())
def test_filter_past_the_float_range_writes_zero(argv, tmp_path, capsys):
    """Where (w T)^2 overflows, F is its limit 0: exit 0 with F = 0 written."""
    assert cli.main([*argv, "--outdir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    values = io.read_csv(tmp_path / "filter.csv", ("f_hz", "filter"))["filter"]
    assert values[-1] == 0.0 and np.all(values >= 0.0)
    # the echo's (w T)^2 overflows on its whole band
    assert json.loads(out)["sigma_eff_rad_s"] in (None, 0.0)


def test_simulate_underflowing_sigma(tmp_path, capsys):
    # sigma**2 underflows to zero, yet the 1/e time sqrt(2) / sigma is finite
    assert cli.main(["simulate", "--sigma-dls", "1e-300", "--pjr", "0", "--n-traj", "100",
                     "--points", "5", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    t2 = doc["t2_s"]
    assert math.isfinite(t2) and t2 == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
    # both model variances vanish on this grid; the 1 / n_traj floor keeps z finite
    assert math.isfinite(doc["mc_max_z"])


def test_simulate_negative_zero_sigma(tmp_path, capsys):
    # -0.0 is a valid width of 0, which numpy's normal refused as "scale < 0"
    # with a traceback; it must give the bytes of --sigma-dls 0
    curves = []
    for sigma in ("-0.0", "0.0"):
        out = tmp_path / sigma
        assert cli.main(["simulate", "--n-traj=2", "--points=3", f"--sigma-dls={sigma}",
                         f"--outdir={out}"]) == 0
        curves.append((out / "montecarlo.csv").read_bytes())
    assert curves[0] == curves[1]


#: numeric flag values: finite, zero, negative, huge, NaN and +-inf
NUMBERS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
    [0.0, -0.0, -1.0, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf])).map(repr)
#: CSV cells that stand in for one finite cell of a column: zero, huge, NaN and +-inf
SPECIAL_CELLS = st.sampled_from([0.0, 1e300, math.nan, math.inf, -math.inf])


@st.composite
def cli_argv(draw):
    """(argv, CSV table or None) for any subcommand but report, with drawn
    numeric flags and CSV cells. Flags go in --flag=value form, so argparse
    reads "-inf" as a value; the test writes the table and adds --data."""
    def maybe(flag, values=NUMBERS):
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    def column(n, low=0.0, high=1.0, unique=False):
        """n finite cells in [low, high], one of them perhaps a special cell."""
        cells = draw(st.lists(st.floats(low, high), min_size=n, max_size=n, unique=unique))
        if cells and draw(st.booleans()):
            cells[draw(st.integers(0, n - 1))] = draw(SPECIAL_CELLS)
        return cells

    command = draw(st.sampled_from(["simulate", "filter", "estimate-rates", "fit", "psd"]))
    if command == "simulate":
        return ["simulate", f"--n-traj={draw(st.integers(-1, 200))}",
                f"--points={draw(st.integers(-1, 5))}", *maybe("--t-max"),
                *maybe("--temperature"), *maybe("--sigma-dls"), *maybe("--pjr"),
                *maybe("--spring-psd", st.just("rin_40db"))], None
    if command == "filter":
        sequence = draw(st.sampled_from(["--ramsey", "--echo", "--cpmg"]))
        if sequence == "--cpmg":
            chosen = [f"--cpmg={draw(st.integers(-1, 8))}", f"--interval={draw(NUMBERS)}"]
        else:
            chosen = [f"{sequence}={draw(NUMBERS)}"]
        return ["filter", *chosen, *maybe("--f-min"), *maybe("--f-max"),
                f"--points={draw(st.integers(-1, 5))}",
                *maybe("--dls-psd", st.just("rin_40db"))], None
    if command == "fit":
        model = draw(st.sampled_from(sorted(cli.FIT_COLUMNS)))
        names = cli.FIT_COLUMNS[model]
        if "sigma" not in names and draw(st.booleans()):
            names += ("sigma",)
        n = draw(st.integers(0, 12))
        x = sorted(column(n, high=7.0 if model == "fringe" else 1.0, unique=True))
        columns = [x, *(column(n) for _ in names[1:])]
        extra = (maybe("--eta") or maybe("--config", st.just("cs133"))
                 if model == "ramsey" else [])
        return ["fit", f"--model={model}", *extra], (names, *columns)
    if command == "psd":
        n = draw(st.integers(0, 40))
        power = column(n, 0.5, 1.5)
        return ["psd", f"--segment-length={draw(st.integers(-1, 40))}",
                *maybe("--overlap")], (("t_s", "power_w"), np.arange(n) / 1e3, power)
    occupation = st.lists(st.integers(-1, 10 ** 6), min_size=3, max_size=3)
    return ["estimate-rates", *maybe("--config", st.sampled_from(["cs133", "bbt780"])),
            *maybe("--spring-psd", st.just("rin_40db")), *maybe("--temperature"),
            *maybe("--occupation", occupation.map(lambda ns: ",".join(map(str, ns))))], None


def fit_case(model, *flags):
    """A cli_argv case that fits fit_table(model)."""
    return ["fit", f"--model={model}", *flags], fit_table(model)


@pytest.mark.filterwarnings("error")  # any warning on a CLI path fails the test
@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_argv())
# Hypothesis mixes literals of the loaded source into its draws, so the drawn
# argv change with the tree: these run on every tree
@example(case=(["simulate", "--n-traj=2", "--points=1", "--sigma-dls=-0.0"], None))
@example(case=fit_case("coherence"))
@example(case=fit_case("exponential"))
@example(case=fit_case("fringe"))
@example(case=fit_case("ramsey", "--config=cs133"))
def test_cli_contract_property(tmp_path, case):
    """README contract for any numeric flags and CSV cells: exit 0, 2 or 3; a
    failure prints only a JSON error and writes no file; a success prints no
    NaN or Infinity."""
    argv, table = case
    if table is not None:
        write_cells(tmp_path / "data.csv", *table)
        argv = [*argv, f"--data={tmp_path / 'data.csv'}"]
    out_dir = tmp_path / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    if argv[0] != "estimate-rates":
        argv = [*argv, f"--outdir={out_dir}"]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
        assert "NaN" not in out and "Infinity" not in out, argv
    else:
        assert out == ""
        assert set(json.loads(err.splitlines()[-1])["error"]) == {"kind", "message"}
        assert not out_dir.exists(), argv
