"""Report which values moved between two `scripts/cli_outputs.py` directories.

    python scripts/cli_diff.py BEFORE AFTER

For every file that differs, one line per JSON key path or CSV column that
moved: for numbers the largest |delta| over the path's values, for anything
else old -> new.  A JSON path marks list positions with [], so `css.re[][]`
covers all 16 entries of that matrix, except that a list of records with a
"name" (the checks of `verify.json`) keys each record by it:
`checks[bell_1_ree].gap`.  A CSV whose row count moved shows one
`rows: old -> new` line in place of its columns.  Text files (`exit_codes.txt`, `console.txt`) show
their changed lines.  Before the last line, one line per numeric key path or
column that moved, with record names read as [], gives its largest |delta|
over all files and the number of files it moved in: `ree: 2.11e-15 in 60
files`.  The last line counts the files that differ.  It is a report and
always exits 0.
"""

from __future__ import annotations

import csv
import difflib
import io
import json
import re
import sys
from pathlib import Path


def _leaves(node, path=""):
    """(path, value) of every scalar in a JSON document, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for item in node:
            named = isinstance(item, dict) and "name" in item
            yield from _leaves(item, f"{path}[{item['name']}]" if named else f"{path}[]")
    else:
        yield path, node


def _json_columns(text: str) -> dict[str, list]:
    columns: dict[str, list] = {}
    for path, value in _leaves(json.loads(text)):
        columns.setdefault(path, []).append(value)
    return columns


def _csv_columns(text: str) -> dict[str, list]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return {}
    columns = {name: [] for name in rows[0]}
    for row in rows[1:]:
        for name, cell in zip(rows[0], row):
            try:
                columns[name].append(float(cell))
            except ValueError:
                columns[name].append(cell)
    return columns


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(a, b) -> bool:
    return a == b or (_is_number(a) and _is_number(b) and a != a and b != b)  # NaN


def _column_lines(name: str, old: list, new: list, moved: dict) -> list[str]:
    """What moved in one key path or column; its largest numeric |delta|
    raises `moved`'s entry for the path with record names read as []."""
    if len(old) != len(new):
        return [f"{name}: {len(old)} -> {len(new)} values"]
    pairs = [(a, b) for a, b in zip(old, new) if not _same(a, b)]
    numbers = [abs(b - a) for a, b in pairs if _is_number(a) and _is_number(b)]
    if numbers:
        key = re.sub(r"\[[^]]*\]", "[]", name)
        moved[key] = max(moved.get(key, 0.0), *numbers)
    lines = []
    if numbers and len(old) == 1:
        lines.append(f"{name}: {old[0]!r} -> {new[0]!r}, |delta| {numbers[0]:.3g}")
    elif numbers:
        lines.append(f"{name}: max |delta| {max(numbers):.3g}"
                     f" over {len(numbers)} of {len(old)} values")
    lines += [f"{name}: {a!r} -> {b!r}" for a, b in pairs
              if not (_is_number(a) and _is_number(b))]
    return lines


def file_report(name: str, old: str, new: str, moved: dict) -> list[str]:
    """The moved key paths, columns or lines of one file present on both
    sides; `moved` gets the largest |delta| of each numeric one."""
    parse = {".json": _json_columns, ".csv": _csv_columns}.get(Path(name).suffix)
    if parse is None:
        return [line.rstrip("\n") for line in difflib.unified_diff(
            old.splitlines(True), new.splitlines(True), n=0) if line[:2] not in ("--", "++")]
    a, b = parse(old), parse(new)
    lines = [f"{key}: removed" for key in a if key not in b]
    lines += [f"{key}: added" for key in b if key not in a]
    if parse is _csv_columns:
        rows = [len(next(iter(columns.values()), [])) for columns in (a, b)]
        if rows[0] != rows[1]:
            return lines + [f"rows: {rows[0]} -> {rows[1]}"]
    for key in (k for k in a if k in b):
        lines += _column_lines(key, a[key], b[key], moved)
    return lines


def report(before: Path, after: Path) -> list[str]:
    """The report's lines: each differing file's name, then what moved in it."""
    names = sorted({p.relative_to(d).as_posix() for d in (before, after)
                    for p in d.rglob("*") if p.is_file()})
    out, differ, deltas = [], 0, {}
    for name in names:
        a, b = before / name, after / name
        if not (a.is_file() and b.is_file()):
            out.append(f"{name}: only in {before if a.is_file() else after}")
            differ += 1
        elif a.read_bytes() != b.read_bytes():
            out.append(name)
            moved = {}
            out += ["  " + line for line in file_report(
                name, a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8"), moved)]
            for key, delta in moved.items():
                deltas.setdefault(key, []).append(delta)
            differ += 1
    out += [f"{key}: {max(moves):.3g} in {len(moves)} file{'s' * (len(moves) != 1)}"
            for key, moves in deltas.items()]
    out.append(f"{differ} of {len(names)} files differ")
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    print("\n".join(report(Path(sys.argv[1]), Path(sys.argv[2]))))
