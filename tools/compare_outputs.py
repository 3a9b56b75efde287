"""Compare two output trees of tools/replay_outputs.py number by number.

    python3 tools/compare_outputs.py A B

`diff -r` only says that two files differ.  For each file that is not
byte-identical in A and B this prints its path and:

- for a CSV file, the largest relative difference of each numeric column
  and its largest absolute difference scaled by the column's largest
  absolute value on either side, which tells a roundoff change from a
  real one where the column crosses or decays to 0 (a column found on one
  side only is named as such, and so is a change in the number of rows or
  in a text cell);
- for a JSON file, the relative difference of each number that differs,
  by its path in the document, the keys found on one side only and the
  lists whose lengths differ;
- for any other file, only that it differs.

The relative difference of a and b is |a - b| / max(|a|, |b|): 0 for
equal values, 1 when one side is 0, above 1 when the signs differ, inf
when the values differ and one is not finite.  The scaled difference of
a column is the largest |a - b| of its rows over the largest |a| or |b|
of its finite values: a change of 1e-16 in a column whose largest value
is 1 reads 1e-16 wherever it is, and inf when a value that differs is
not finite.  Files found in one tree only are listed.  The exit code is
0 when the trees are byte-identical, else 1.
"""

import csv
import json
import math
import sys
from pathlib import Path


def relative(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(a, b):
    """Report lines for two CSV files."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    head_a, head_b = rows_a[0] if rows_a else [], rows_b[0] if rows_b else []
    lines = [f"column only in {side}: {c}"
             for side, mine, other in (("A", head_a, head_b), ("B", head_b, head_a))
             for c in mine if c not in other]
    if len(rows_a) != len(rows_b):
        lines.append(f"rows: {len(rows_a) - 1} in A, {len(rows_b) - 1} in B")
    for c in (c for c in head_a if c in head_b):
        i, j = head_a.index(c), head_b.index(c)
        worst, diff, scale, text = 0.0, 0.0, 0.0, False
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            x, y = _number(ra[i]), _number(rb[j])
            if x is None or y is None:
                text |= ra[i] != rb[j]
                continue
            rel = relative(x, y)
            worst = max(worst, rel)
            if math.isfinite(x) and math.isfinite(y):
                diff, scale = max(diff, abs(x - y)), max(scale, abs(x), abs(y))
            elif rel:
                diff = math.inf
        scaled = diff / scale if scale else diff
        lines.append(f"{c}: text differs" if text
                     else f"{c}: max rel diff {worst:.3g}, scaled diff {scaled:.3g}")
    return lines


def _walk(x, y, path, lines):
    """Append report lines for the JSON values x (of A) and y (of B) at
    path; returns how many numbers in them are equal."""
    if isinstance(x, dict) and isinstance(y, dict):
        lines += [f"only in {side}: {path}/{key}"
                  for side, mine, other in (("A", x, y), ("B", y, x))
                  for key in mine if key not in other]
        return sum(_walk(x[key], y[key], f"{path}/{key}", lines) for key in x if key in y)
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            lines.append(f"{path or '/'}: {len(x)} items in A, {len(y)} in B")
        return sum(_walk(a, b, f"{path}/{i}", lines) for i, (a, b) in enumerate(zip(x, y)))
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
    if x == y:
        return int(numbers)
    lines.append(f"{path or '/'}: rel diff {relative(float(x), float(y)):.3g}" if numbers
                 else f"{path or '/'}: {x!r} in A, {y!r} in B")
    return 0


def compare_json(a, b):
    """Report lines for two JSON files."""
    lines = []
    equal = _walk(json.loads(a.read_text()), json.loads(b.read_text()), "", lines)
    return lines + [f"{equal} other numbers equal"]


COMPARE = {".csv": compare_csv, ".json": compare_json}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    root_a, root_b = Path(sys.argv[1]), Path(sys.argv[2])
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for root in (root_a, root_b)]
    differ = False
    for side, mine, other in (("A", *files), ("B", *files[::-1])):
        for rel in sorted(mine - other):
            print(f"only in {side}: {rel}")
            differ = True
    for rel in sorted(files[0] & files[1]):
        a, b = root_a / rel, root_b / rel
        if a.read_bytes() == b.read_bytes():
            continue
        differ = True
        print(f"{rel}: differs")
        compare = COMPARE.get(rel.suffix)
        for line in compare(a, b) if compare else []:
            print(f"  {line}")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
