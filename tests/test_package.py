"""The package layout: every module imports on its own, the package root
re-exports nothing, so each name is imported from its module, every
public name serves the program, and the declared dependencies cover
what the code calls."""

import ast
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
SRC = Path(filament.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


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


def test_every_public_name_has_a_program_caller():
    # a public top-level function or class of src/filament is loaded by the
    # program (an f-string's fields included: ast.walk reaches them), or it
    # is an entry point that the frozen acceptance test imports
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    frozen = {alias.name for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
              if isinstance(node, ast.ImportFrom) and node.module.startswith("filament.")
              for alias in node.names}
    public = {(module, node.name) for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert {"bessel_k", "step_leps", "PeriodicCurve"} <= frozen
    assert sorted(f"{module}.{name}" for module, name in public
                  if name not in loaded and name not in frozen) == []


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
