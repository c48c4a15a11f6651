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


PAULI_TABLES = ("PAULI_BASIS", "_PAULI_ROWS", "_B_FLAT", "_EYE_FLAT")


def pauli_table_use(package: Path):
    """For a flat package, the modules that assign each of PAULI_TABLES at
    module level, and the modules that read PAULI_BASIS, by name, as an
    attribute or in an import."""
    assigned, readers = {name: set() for name in PAULI_TABLES}, set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for n in ast.walk(node):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id in assigned:
                        assigned[n.id].add(path.stem)
        for n in ast.walk(tree):
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == "PAULI_BASIS"
                    or isinstance(n, ast.Attribute) and n.attr == "PAULI_BASIS"
                    or isinstance(n, ast.alias) and n.name == "PAULI_BASIS"):
                readers.add(path.stem)
    return assigned, readers


def test_pauli_tables_live_in_qstate():
    """The map between a state and its 15 Pauli coordinates has one home:
    only qstate assigns its tables and reads PAULI_BASIS, and every other
    module imports the tables it reads."""
    assigned, readers = pauli_table_use(PACKAGE)
    assert assigned == {name: {"qstate"} for name in PAULI_TABLES}
    assert readers == {"qstate"}


def test_planted_pauli_table_is_found(tmp_path):
    """A table assigned by unpacking, and PAULI_BASIS imported under an alias
    or read as an attribute, are found."""
    (tmp_path / "qstate.py").write_text("PAULI_BASIS = 1\n_PAULI_ROWS = _B_FLAT = _EYE_FLAT = PAULI_BASIS\n")
    (tmp_path / "ree.py").write_text("from .qstate import PAULI_BASIS as P\n\n_B_FLAT, x = P, 0\n")
    (tmp_path / "revmap.py").write_text("from . import qstate\n\ndef f():\n    return qstate.PAULI_BASIS\n")
    assigned, readers = pauli_table_use(tmp_path)
    assert assigned["_B_FLAT"] == {"qstate", "ree"} and assigned["_EYE_FLAT"] == {"qstate"}
    assert readers == {"qstate", "ree", "revmap"}
