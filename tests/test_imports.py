"""The runtime is numpy only: no command imports scipy, which the tests use as an
oracle, and the version is a literal, read without importlib.metadata. The
package namespace is lazy and each subcommand imports only its own modules,
so these tests look at fresh interpreters' sys.modules or -X importtime."""

import importlib
import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import trapcoh
from trapcoh import io

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(trapcoh.__file__)))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def run_python(code, *args):
    """Stderr of `code` run in a fresh interpreter that imports this package."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def imported_by_command(*argv, returncode=0):
    """Names of the modules that `python -X importtime -m trapcoh argv` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "trapcoh", *map(str, argv)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == returncode, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


def numpy_loaded(modules):
    return any(name.split(".")[0] == "numpy" for name in modules)


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


def test_import_package_loads_no_submodule_and_no_numpy():
    code = ("import json, sys\n"
            "import trapcoh\n"
            "json.dump(sorted(m for m in sys.modules"
            " if m.startswith('trapcoh.') or m.split('.')[0] == 'numpy'), sys.stderr)\n")
    assert json.loads(run_python(code)) == []


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_numpy(flag):
    modules = imported_by_command(flag)
    assert "trapcoh.cli" in modules  # the probe sees the package's own imports
    assert not numpy_loaded(modules)


def test_bad_command_line_loads_no_numpy():
    assert not numpy_loaded(imported_by_command("simulate", "--no-such-flag", returncode=2))


def test_fit_loads_only_the_fit_modules(tmp_path):
    data = resources.files("trapcoh.data").joinpath("decay_noisy_synthetic.csv")
    modules = imported_by_command("fit", "--data", data, "--model", "coherence",
                                  "--outdir", tmp_path)
    assert {"trapcoh.fitting", "trapcoh.coherence", "numpy"} <= modules
    assert not modules & {"trapcoh.sequences", "trapcoh.trap", "trapcoh.phonon",
                          "trapcoh.report", "trapcoh.noise"}
    assert (tmp_path / "residuals.csv").exists()


def test_lazy_namespace_covers_all():
    code = ("import json, sys\n"
            "import trapcoh\n"
            "fitting_lm = callable(trapcoh.fitting._lm_run)\n"
            "listed = set(trapcoh.__all__) <= set(dir(trapcoh))\n"
            "names = {}\n"
            "exec('from trapcoh import *', names)\n"
            "json.dump([fitting_lm, listed, sorted(set(trapcoh.__all__) - set(names)),"
            " trapcoh.coherence.__module__], sys.stderr)\n")
    assert json.loads(run_python(code)) == [True, True, [], "trapcoh.coherence"]


def test_lazy_names_are_the_submodules_objects():
    # each name resolves to its defining module's object, and is cached: the
    # second lookup finds it in the package's globals, without __getattr__
    for name in trapcoh.__all__:
        value = getattr(trapcoh, name)
        assert name in vars(trapcoh)
        module = sys.modules[f"trapcoh.{trapcoh._MODULE_OF[name]}"]
        assert getattr(module, name) is value
    # importing the submodule trapcoh.coherence does not shadow the function
    module = importlib.import_module("trapcoh.coherence")
    assert trapcoh.coherence is module.coherence
    with pytest.raises(AttributeError):
        trapcoh.no_such_name  # noqa: B018
