"""The package layout: every module imports on its own, the package root
re-exports nothing, so each name is imported from its module, and the
declared dependencies cover what the code calls."""

import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import filament

MODULES = sorted(m.name for m in pkgutil.iter_modules(filament.__path__))


def test_modules_found():
    assert {"spectral", "multipliers", "tension", "evolution", "experiments",
            "config", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # a fresh interpreter: no other filament module imported first
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", f"import filament.{module}"], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_root_has_no_namespace():
    public = {name for name in vars(filament) if not name.startswith("_")}
    # submodules appear as attributes once imported, and only those
    assert public <= set(MODULES)


def test_numpy_floor_covers_numpy_2_calls():
    # tension calls np.vecdot and experiments np.trapezoid, both new in NumPy 2.0
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    (numpy,) = [d for d in dependencies if re.match(r"numpy\b", d)]
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)", numpy.replace(" ", ""))
    assert floor and tuple(map(int, floor.groups())) >= (2, 0), numpy


def test_runtime_needs_numpy_only():
    # a run imports the CLI and writes the manifests' versions block;
    # scipy serves only the tests (test_bessel's quadrature oracle)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import json, sys\nfrom filament import cli\nversions = cli._versions()\n"
            "print(json.dumps([sorted(versions), 'scipy' in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [["filament", "numpy", "python"], False]
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert not [d for d in project["dependencies"] if re.match(r"scipy\b", d)]
    assert [d for d in project["optional-dependencies"]["test"] if re.match(r"scipy\b", d)]
