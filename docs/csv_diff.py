"""Compare two hmimo CSVs (``sweep``, ``point`` or ``crlb``) cell by cell.

    python docs/csv_diff.py before.csv after.csv
    python docs/csv_diff.py before.csv after.csv --tol 1e-9

Both files must have the same header and the same number of rows.  Cells
that parse as numbers are compared as floats: for every numeric column it
prints the largest |after - before| over the rows, and the row where it
occurs.  Two NaN cells agree; a NaN against a number counts as an
infinite difference.  Every other cell (the estimator name, the sweep
variable) must be equal as text.  It exits 0 when every numeric column
lies within ``--tol`` (default 1e-6) and every text cell agrees, 1
otherwise, and 2 on bad arguments or unreadable files.  Only the
standard library is used.
"""

import argparse
import csv
import math
import sys


def _read(path):
    """(header, rows) of a CSV file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        return header, list(reader)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _delta(a, b):
    """|b - a|, with two NaNs equal and a NaN against a number infinite."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if a == b:                        # equal infinities included
        return 0.0
    return abs(b - a)


def compare(header, before, after):
    """Per-column (largest |delta|, its row) of the numeric columns, and
    the text mismatches as (row, column, before, after)."""
    worst = {}
    mismatches = []
    for row, (old, new) in enumerate(zip(before, after), start=1):
        for col, a_text, b_text in zip(header, old, new):
            a, b = _number(a_text), _number(b_text)
            if a is None or b is None:
                if a_text != b_text:
                    mismatches.append((row, col, a_text, b_text))
                continue
            d = _delta(a, b)
            if col not in worst or d > worst[col][0]:
                worst[col] = (d, row)
    return worst, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="largest |delta| allowed per cell (default 1e-6)")
    args = parser.parse_args(argv)
    try:
        head_a, rows_a = _read(args.before)
        head_b, rows_b = _read(args.after)
    except (OSError, ValueError, csv.Error) as exc:
        print(f"csv_diff: {exc}", file=sys.stderr)
        return 2
    if head_a != head_b:
        print(f"headers differ:\n  {','.join(head_a)}\n  {','.join(head_b)}")
        return 1
    if len(rows_a) != len(rows_b):
        print(f"row counts differ: {len(rows_a)} against {len(rows_b)}")
        return 1
    if any(len(r) != len(head_a) for r in rows_a + rows_b):
        print("a row has a different cell count from the header")
        return 1
    worst, mismatches = compare(head_a, rows_a, rows_b)
    for col in head_a:
        if col in worst:
            d, row = worst[col]
            flag = "  > tol" if d > args.tol else ""
            print(f"{col:20s} max |delta| {d:.3g} (row {row}){flag}")
    for row, col, a, b in mismatches:
        print(f"row {row} {col}: {a!r} against {b!r}")
    bad = mismatches or any(d > args.tol for d, _ in worst.values())
    print(f"{len(rows_a)} rows, tol {args.tol:g}: {'FAIL' if bad else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
