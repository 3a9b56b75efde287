"""tools/compare_outputs.py tells a roundoff change from a real one.

The tool is a script, not part of the package, so it is loaded by path.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def write(path, columns):
    names = list(columns)
    rows = zip(*columns.values())
    path.write_text("\r\n".join([",".join(names)] + [",".join(map(repr, r)) for r in rows]) + "\r\n")
    return path


def test_roundoff_in_a_column_crossing_zero_reads_scaled(tmp_path):
    z = [0.0, 1.0, 0.5, -0.5, -1.0]
    y = [2.0, 1.0, 0.0, -1.0, -2.0]
    a = write(tmp_path / "a.csv", {"s": [0.0, 0.2, 0.4, 0.6, 0.8], "y": y, "z": z})
    b = write(tmp_path / "b.csv", {"s": [0.0, 0.2, 0.4, 0.6, 0.8], "y": y[:3] + [-1.002, -2.0],
                                   "z": [1e-16] + z[1:]})
    lines = load_tool().compare_csv(a, b)
    assert lines == [
        "s: max rel diff 0, scaled diff 0",
        # a real change of 2e-3 of the value and 1e-3 of the column
        "y: max rel diff 0.002, scaled diff 0.001",
        # one side 0: relative difference 1, but roundoff of the column
        "z: max rel diff 1, scaled diff 1e-16",
    ]


def test_non_finite_change_reads_inf(tmp_path):
    a = write(tmp_path / "a.csv", {"x": [1.0, 2.0], "w": [float("nan"), 1.0]})
    b = write(tmp_path / "b.csv", {"x": [1.0, float("inf")], "w": [float("nan"), 1.0]})
    assert load_tool().compare_csv(a, b) == [
        "x: max rel diff inf, scaled diff inf",
        "w: max rel diff 0, scaled diff 0",
    ]
