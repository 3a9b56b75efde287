"""Smoke tests of the filament benchmark.

Every workload runs at a tiny size, untraced and traced, and must emit
every metric BENCHMARK.json names, with its unit, and pass its output
checks.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "tension_check", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


TRACER_PROBE = """
import numpy as np
import filament.cli, filament.evolution, filament.experiments, filament.spectral, filament.tension
import spans
spans.TRACED += (("spectral", "no_such_function"),)
tracer = spans.Tracer()
tracer.install()
assert filament.evolution.to_coeffs is filament.spectral.to_coeffs
assert filament.tension.to_coeffs is filament.spectral.to_coeffs
assert filament.experiments._step is filament.evolution._step
filament.evolution.to_coeffs(np.zeros((8, 3)))
filament.tension.to_coeffs(np.zeros((8, 3)))
assert tracer.stats["spectral.to_coeffs"][0] == 2, tracer.stats
assert tracer.absent == ["spectral.no_such_function"], tracer.absent
"""


def test_tracer_rebinds_names_imported_into_other_modules():
    proc = subprocess.run([sys.executable, "-c", TRACER_PROBE], capture_output=True, text=True,
                          timeout=60, cwd=BENCH,
                          env=dict(os.environ, PYTHONPATH=f"{BENCH}:{ROOT / 'src'}",
                                   PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
