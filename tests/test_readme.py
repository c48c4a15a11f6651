"""The README's Tolerances table against the module constants it names."""

import ast
import importlib
import numbers
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reegeom"


def tolerance_rows():
    """(constant, module, value cell) of each row of the Tolerances table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            # a cell may hold an escaped \| as text
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
            assert len(cells) == 4, line
            rows.append((cells[0].strip("`"), cells[1].strip("`"), cells[2]))
    return rows


def numeric_constants():
    """(module, name) of every numeric constant a module of the package binds
    at its top level, imported names left out."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"reegeom.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name):
                    value = getattr(module, target.id)
                    if isinstance(value, numbers.Real) and not isinstance(value, bool):
                        found.add((path.stem, target.id))
    return found


def test_rows_name_existing_constants_with_their_values():
    rows = tolerance_rows()
    assert len(rows) >= 10
    for name, module, cell in rows:
        value = getattr(importlib.import_module(f"reegeom.{module}"), name)
        try:
            want = float(cell)
        except ValueError:
            continue  # a described value, such as the MU_SCHEDULE sequence
        assert value == want, (name, module, cell)


def test_every_numeric_constant_has_a_row():
    rows = {(module, name) for name, module, _ in tolerance_rows()}
    exempt = {(m, n) for m, n in numeric_constants() if m == "cli" and n.startswith("EXIT_")}
    assert numeric_constants() - exempt - rows == set()
