import ast
import graphlib
from pathlib import Path

import pytest

import reegeom

PACKAGE = Path(reegeom.__file__).parent


def import_graph(package: Path) -> dict:
    """Each module of a flat package mapped to the set of its modules that it
    imports relatively, at any depth, function-level imports included.  `from
    . import name` names module `name` where there is one, else the package,
    `__init__`."""
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for module in modules:
        tree = ast.parse((package / f"{module}.py").read_text())
        graph[module] = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            if node.module:
                graph[module].add(node.module.split(".")[0])
            else:
                graph[module] |= {a.name if a.name in modules else "__init__"
                                  for a in node.names}
    return graph


def test_no_import_cycle():
    """No reegeom module imports, at any depth, a module that imports it back."""
    graph = import_graph(PACKAGE)
    assert graph["cli"] >= {"__init__", "css", "ree", "revmap"}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert "revmap" not in graph["ree"]


def test_function_level_import_is_a_cycle(tmp_path):
    """A planted pair, one side importing the other inside a function, is a cycle."""
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text("def f():\n    from .b import g\n    return g\n")
    (tmp_path / "b.py").write_text("from . import a\n\ng = 1\n")
    graph = import_graph(tmp_path)
    assert graph == {"__init__": {"a"}, "a": {"b"}, "b": {"a"}}
    with pytest.raises(graphlib.CycleError):
        graphlib.TopologicalSorter(graph).prepare()
