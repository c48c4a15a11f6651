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


BOUND_PIECES = ("_dual_floor", "_log_gradient")


def readers_of(package: Path, names):
    """For a flat package, each of `names` mapped to the set of places that
    read it, by name, as an attribute or in an import: "module.function" or
    "module.Class" for a top-level definition's body, "module" for the rest."""
    found = {name: set() for name in names}
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            named = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            where = f"{path.stem}.{top.name}" if named else path.stem
            for n in ast.walk(top):
                name = (n.id if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                        else n.attr if isinstance(n, ast.Attribute)
                        else n.name if isinstance(n, ast.alias) else None)
                if name in found:
                    found[name].add(where)
    return found


def test_dual_bound_formed_once():
    """The dual bound lambda_min(G - Q^Gamma) - tr(sigma G) has one home:
    only ree._certificate reads `_dual_floor` and `_log_gradient`, and the
    oracle's bracket and the certificate both call it."""
    assert readers_of(PACKAGE, BOUND_PIECES) == {name: {"ree._certificate"}
                                                  for name in BOUND_PIECES}
    assert readers_of(PACKAGE, ("_certificate",))["_certificate"] >= {
        "ree.ree_numeric", "ree.directional_optimality_check"}


def test_planted_bound_reader_is_found(tmp_path):
    """A call by attribute, an import under an alias and a reference that is
    not a call are all found, each at its top-level definition."""
    (tmp_path / "ree.py").write_text(
        "def _dual_floor(g):\n    return g\n\n\n"
        "def _certificate(g):\n    return _dual_floor(g)\n\n\n"
        "class Oracle:\n    def end(self, g):\n        return [_dual_floor][0](g)\n")
    (tmp_path / "revmap.py").write_text(
        "from . import ree\nfrom .ree import _dual_floor as floor\n\n\n"
        "def accept(g):\n    return ree._dual_floor(g) + floor(g)\n")
    assert readers_of(tmp_path, ("_dual_floor",)) == {
        "_dual_floor": {"ree._certificate", "ree.Oracle", "revmap", "revmap.accept"}}
