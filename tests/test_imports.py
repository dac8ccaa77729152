"""The runtime is numpy only: no command imports scipy, which the tests use as an
oracle, and the version is a literal, read without importlib.metadata."""

import json
import os
import subprocess
import sys

import numpy as np

import trapcoh
from trapcoh import io

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(trapcoh.__file__)))


def run_python(code, *args):
    """Stderr of `code` run in a fresh interpreter that imports this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


SCIPY_MODULES = ("import json, sys\n"
                 "json.dump(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
                 " sys.stderr)\n")


def test_import_cli_leaves_scipy_solvers_out():
    loaded = json.loads(run_python("import trapcoh.cli\n" + SCIPY_MODULES))
    assert "scipy.signal" not in loaded
    assert "scipy.optimize" not in loaded


def test_import_cli_leaves_importlib_metadata_out():
    # __version__ is a literal; pyproject.toml reads it through setuptools' attr
    code = ("import json, sys\n"
            "import trapcoh.cli\n"
            "json.dump('importlib.metadata' in sys.modules, sys.stderr)\n")
    assert json.loads(run_python(code)) is False


def test_import_leaves_hashlib_out():
    # io.resolve imports it for the commands that hash their inputs
    code = ("import json, sys\n"
            "import trapcoh.cli\n"
            "json.dump('hashlib' in sys.modules, sys.stderr)\n")
    assert json.loads(run_python(code)) is False


def test_import_cli_leaves_logging_out():
    # the log lines are plain writes to sys.stderr
    code = ("import json, sys\n"
            "import trapcoh.cli\n"
            "json.dump('logging' in sys.modules, sys.stderr)\n")
    assert json.loads(run_python(code)) is False


def test_psd_command_imports_no_scipy(tmp_path):
    data = tmp_path / "power.csv"
    io.write_csv(data, ("t_s", "power_w"), np.arange(256) / 1e3,
                 1.0 + 1e-3 * np.random.default_rng(1).standard_normal(256))
    code = ("import sys\n"
            "from trapcoh import cli\n"
            "assert cli.main(['psd', '--data', sys.argv[1], '--segment-length', '64',"
            " '--outdir', sys.argv[2]]) == 0\n")
    assert json.loads(run_python(code + SCIPY_MODULES, data, tmp_path / "out")) == []
    assert (tmp_path / "out" / "psd.csv").exists()


def test_coherence_fit_imports_no_scipy(tmp_path):
    t = np.linspace(0.0, 0.2, 12)
    io.write_csv(tmp_path / "decay.csv", ("t_s", "coherence", "sigma"), t,
                 np.exp(-0.5 * (15.0 * t) ** 2 - 5.14 * t), np.full(t.size, 0.03))
    code = ("import sys\n"
            "from trapcoh import cli\n"
            "assert cli.main(['fit', '--data', sys.argv[1], '--model', 'coherence',"
            " '--outdir', sys.argv[2]]) == 0\n")
    stderr = run_python(code + SCIPY_MODULES, tmp_path / "decay.csv", tmp_path / "out")
    assert json.loads(stderr.splitlines()[-1]) == []  # after the command's INFO line
    assert (tmp_path / "out" / "residuals.csv").exists()
