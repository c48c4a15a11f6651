"""scripts/code_lines.py: the code lines of a module, without blank lines,
comments and docstrings, and the report over two package directories."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment line
import math


class A:
    """Class docstring."""

    X = """a string that is data,
# not a comment"""  # a trailing comment

    def f(self, y):
        """Function docstring,

        on three lines."""
        return math.sqrt(y +
                         1)


async def g():
    """Async docstring."""
    return 0
'''


def test_counts_code_alone():
    """import, class, X's two lines, def, return's two lines, async def, return."""
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_report_over_the_modules_of_both(tmp_path):
    """A trimmed docstring moves the lines and not the code lines; a module on
    one side only counts 0 on the other."""
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    (base / "a.py").write_text(SOURCE)
    (base / "gone.py").write_text("x = 1\n")
    (change / "a.py").write_text(SOURCE.replace(",\non two lines", ""))
    (change / "new.py").write_text("# only\n\ny = 2\n")
    assert code_lines.report(base, change) == [
        "lines: base 25, change 26; code lines: base 10, change 10",
        "  a.py: base 24 (9 code), change 23 (9 code)",
        "  gone.py: base 1 (1 code), change 0 (0 code)",
        "  new.py: base 0 (0 code), change 3 (1 code)"]
