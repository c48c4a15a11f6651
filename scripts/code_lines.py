"""Count the lines of two versions of a package: all of them, and code alone.

    python scripts/code_lines.py BASE CHANGE

BASE and CHANGE are two package directories, for example a base checkout's
`src/reegeom` and this one's.  The first line gives both totals, in lines
and in code lines; then one line per module of either side, in name order,
a module missing from one side counting 0.  A code line is a non-blank line
that is neither a comment nor inside a module, class or function docstring,
so that trimming a docstring does not read as deleting code.  The line
count is that of `wc -l`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def counts(package: Path) -> dict[str, tuple[int, int]]:
    """(lines, code lines) of each module of a package directory, by file name."""
    out = {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        out[path.name] = (text.count("\n"), code_lines(text))
    return out


def report(base: Path, change: Path) -> list[str]:
    """The lines that `main` prints."""
    a, b = counts(base), counts(change)

    def total(side, k):
        return sum(v[k] for v in side.values())

    lines = [f"lines: base {total(a, 0)}, change {total(b, 0)}; "
             f"code lines: base {total(a, 1)}, change {total(b, 1)}"]
    for name in sorted(a.keys() | b.keys()):
        (la, ca), (lb, cb) = a.get(name, (0, 0)), b.get(name, (0, 0))
        lines.append(f"  {name}: base {la} ({ca} code), change {lb} ({cb} code)")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    print("\n".join(report(Path(argv[0]), Path(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
