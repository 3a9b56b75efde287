"""The package layout: every module imports on its own, and the package
root re-exports nothing, so each name is imported from its module."""

import os
import pkgutil
import subprocess
import sys

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
