"""The benchmark tracer's function names still exist in filament.

perfbench/spans.py wraps the functions it names and only reports a
missing one as "absent", so a rename would silently drop a layer from
the per-layer trace.  The tracer module is read, never installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module,name", traced_names())
def test_traced_function_exists(module, name):
    target = getattr(importlib.import_module(f"filament.{module}"), name, None)
    assert callable(target), f"filament.{module}.{name} is traced but missing"


def test_solve_tension_warm_start_parameter():
    # the tracer tells cold from warm solves by the second parameter
    from filament.tension import solve_tension

    assert list(inspect.signature(solve_tension).parameters)[1] == "initial"
