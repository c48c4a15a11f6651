import ast
import graphlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def state_builders(package: Path):
    """For a flat package, the places that form `_EYE_FLAT + ... @ _B_FLAT`,
    a sum of _EYE_FLAT and a product by _B_FLAT in either order, each table
    by name or as an attribute: "module.function" or "module.Class" for a
    top-level definition's body, "module" for the rest."""
    def named(node, name):
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)

    found = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            named_top = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            where = f"{path.stem}.{top.name}" if named_top else path.stem
            for n in ast.walk(top):
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add) and any(
                        named(eye, "_EYE_FLAT") and isinstance(product, ast.BinOp)
                        and isinstance(product.op, ast.MatMult) and named(product.right, "_B_FLAT")
                        for eye, product in ((n.left, n.right), (n.right, n.left))):
                    found.add(where)
    return found


def test_one_state_builder():
    """sigma = I/4 + sum_k x_k P_k / 4 is formed in one place,
    qstate._from_coordinates, which `from_pauli`, the closed-form and route
    "ppt" CSS of css._solve, the oracle's end and the reverse map's CSS
    call; css._solve calls no `from_pauli`, and the canonical frame's
    handedness takes no np.linalg.det."""
    assert state_builders(PACKAGE) == {"qstate._from_coordinates"}
    read = readers_of(PACKAGE, ("_from_coordinates", "from_pauli", "det"))
    assert read["_from_coordinates"] >= {"qstate.from_pauli", "css._solve", "ree.ree_numeric",
                                         "revmap._edge_css"}
    assert "css._solve" not in read["from_pauli"]
    assert "qstate._canonicalize" not in read["det"]


def test_planted_state_builder_is_found(tmp_path):
    """Either order of the sum and tables read as attributes are found; a sum
    on another table is not."""
    (tmp_path / "ree.py").write_text(
        "def end(x):\n    return (_EYE_FLAT + x @ _B_FLAT).reshape(4, 4)\n\n\n"
        "def stack(x):\n    return _EYE_FLAT + x @ _DIRECTIONS_FLAT\n\n\n"
        "class Oracle:\n    def end(self, x):\n        return x.real @ q._B_FLAT + q._EYE_FLAT\n")
    (tmp_path / "revmap.py").write_text("SIGMA = qstate._EYE_FLAT + C @ qstate._B_FLAT\n")
    assert state_builders(tmp_path) == {"ree.end", "ree.Oracle", "revmap"}


STACKERS = ("array", "stack", "concatenate", "vstack", "asarray")


def pt_stackers(package: Path):
    """For a flat package, the places that stack a matrix with its partial
    transpose: a call of one of STACKERS, by name or as an attribute, whose
    list or tuple argument holds a `partial_transpose` call at any depth.
    "module.function" or "module.Class" for a top-level definition's body,
    "module" for the rest."""
    def calls_pt(node):
        return any(isinstance(n, ast.Call) and (
            isinstance(n.func, ast.Name) and n.func.id == "partial_transpose"
            or isinstance(n.func, ast.Attribute) and n.func.attr == "partial_transpose")
            for n in ast.walk(node))

    found = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            named_top = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            where = f"{path.stem}.{top.name}" if named_top else path.stem
            for n in ast.walk(top):
                func = n.func if isinstance(n, ast.Call) else None
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name in STACKERS and any(isinstance(arg, (ast.List, ast.Tuple))
                                            and calls_pt(arg) for arg in n.args):
                    found.add(where)
    return found


def test_one_pt_stack():
    """A matrix is stacked with its partial transpose one way, a gather of
    qstate._PT_PAIR, whose module-level definition is the one stack built
    from `partial_transpose`; `_pt_spectra` and `directional_optimality_check`
    read _PT_PAIR and call no `partial_transpose`."""
    assert pt_stackers(PACKAGE) == {"qstate"}
    read = readers_of(PACKAGE, ("_PT_PAIR", "partial_transpose"))
    assert read["_PT_PAIR"] >= {"qstate._pt_spectra", "ree.directional_optimality_check"}
    assert not read["partial_transpose"] & {"qstate._pt_spectra",
                                            "ree.directional_optimality_check"}


def test_planted_pt_stack_is_found(tmp_path):
    """A stack by np.array or np.stack of a list or tuple, with the partial
    transpose called by name or as an attribute, is found; a partial
    transpose of a stack is not."""
    (tmp_path / "qstate.py").write_text(
        "def spectra(m):\n    return eigh(np.array([m, partial_transpose(m)]))\n\n\n"
        "def pt(m):\n    return partial_transpose(np.array([m, m]))\n")
    (tmp_path / "ree.py").write_text(
        "from . import qstate\n\n\nclass Check:\n    def stack(self, a, b):\n"
        "        return np.stack((a, b, qstate.partial_transpose(b).conj()))\n")
    assert pt_stackers(tmp_path) == {"qstate.spectra", "ree.Check"}


# --- what each entry point loads, and the public surface ----------------------

SRC = PACKAGE.parent

# The names `reegeom` exports, by the layer module that defines them.
PUBLIC = {
    "css": ("CssResult", "FamilyKind", "FamilyTag", "classify", "css_auto",
            "css_bell_diagonal", "css_horodecki", "css_vp"),
    "errors": ("DegenerateZ", "InvalidState", "NoCrossing", "NotConverged", "NotEdgeState",
               "OutsideTetrahedron", "ParallelLines", "RankDeficient", "ReegeomError"),
    "geometry": ("TETRA_VERTICES", "CrossingPoint", "SurfaceMesh", "Vertex", "in_tetrahedron",
                 "line_surface_crossing", "nearest_vertex", "surface_mesh"),
    "qstate": ("DiagonalPauliForm", "PauliForm", "bell_diagonal", "canonicalize",
               "concurrence", "from_pauli", "is_ppt", "partial_transpose", "to_pauli",
               "validate_density_matrix"),
    "ree": ("OracleConfig", "ReeReport", "directional_optimality_check", "ree_numeric",
            "relative_entropy"),
    "revmap": ("SigmaZParams", "css_line_sweep", "family_from_css", "g_matrix",
               "line_crossing", "recover", "z_derivatives", "z_family"),
}

# At interpreter exit, report the freeze count and the loaded reegeom modules
# as one JSON line on standard error.
PROBE = """import atexit, gc, json, sys

def _probe():
    modules = sorted(m for m in sys.modules if m.split(".")[0] == "reegeom")
    sys.stderr.write(json.dumps({"frozen": gc.get_freeze_count(), "modules": modules}) + "\\n")

atexit.register(_probe)
"""


def python(args, cwd, probe_dir=None):
    """`python ARGS` in a fresh process on this checkout's source, with
    PROBE installed as `sitecustomize` when PROBE_DIR is given."""
    path = [str(SRC)] if probe_dir is None else [str(probe_dir), str(SRC)]
    if probe_dir is not None:
        (probe_dir / "sitecustomize.py").write_text(PROBE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def loaded_after(statement, tmp_path) -> list:
    code = (f"import sys; {statement}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'reegeom'))")
    proc = python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_bare_import_loads_no_layer(tmp_path):
    assert loaded_after("import reegeom", tmp_path) == ["reegeom"]


def test_cli_import_loads_qstate_and_errors_only(tmp_path):
    assert loaded_after("import reegeom.cli", tmp_path) == [
        "reegeom", "reegeom.cli", "reegeom.errors", "reegeom.qstate"]


def probe(proc) -> dict:
    return json.loads(proc.stderr.strip().splitlines()[-1])


def test_decompose_loads_no_solver_layer(tmp_path):
    """`python -m reegeom.cli decompose` writes its file having loaded none
    of css, geometry, ree or revmap."""
    state = tmp_path / "bell.json"
    state.write_text(json.dumps({"re": (np.eye(4) / 4).tolist()}))
    proc = python(["-m", "reegeom.cli", "decompose", str(state), "--out", "pauli.json"],
                  tmp_path, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "pauli.json").exists()
    modules = set(probe(proc)["modules"])
    assert "reegeom.qstate" in modules
    assert not modules & {"reegeom.css", "reegeom.geometry", "reegeom.ree", "reegeom.revmap"}


def test_entry_point_freezes_the_heap(tmp_path):
    """`python -m reegeom.cli` runs with the objects alive at start-up frozen."""
    proc = python(["-m", "reegeom.cli", "--version"], tmp_path, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(f"version {reegeom.__version__}\n")
    assert probe(proc)["frozen"] > 0


def test_console_script_is_run():
    text = (SRC.parent / "pyproject.toml").read_text()
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.strip().splitlines() == ['reegeom = "reegeom.cli:run"']


def test_version_is_a_string_literal():
    """setuptools' dynamic version reads `__version__` from the source."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    values = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__version__"]]
    assert len(values) == 1 and isinstance(values[0], ast.Constant)
    assert values[0].value == reegeom.__version__ and isinstance(reegeom.__version__, str)


def test_public_names():
    """`__all__` is every exported name plus `__version__`, and `dir` lists them."""
    names = [name for group in PUBLIC.values() for name in group]
    assert len(names) == len(set(names)) == 48
    assert sorted(reegeom.__all__) == sorted([*names, "__version__"])
    assert set(reegeom.__all__) <= set(dir(reegeom))


def test_public_name_is_its_module_attribute_now(monkeypatch):
    """Each exported name is its defining module's current attribute, so a
    patch of that attribute shows through the package."""
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"reegeom.{module}")
        for name in names:
            assert getattr(reegeom, name) is getattr(home, name), name
    from reegeom import qstate

    def patched(rho):
        return None

    monkeypatch.setattr(qstate, "to_pauli", patched)
    assert reegeom.to_pauli is patched
    assert "to_pauli" not in vars(reegeom)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        reegeom.no_such_name  # noqa: B018
    assert not hasattr(reegeom, "cli_main")


def test_star_import_and_layer_attribute_after_bare_import(tmp_path):
    """In a fresh process, `from reegeom import *` binds every public name,
    and `reegeom.css.css_auto` and `reegeom.spectra` resolve after a bare
    `import reegeom`."""
    code = ("import reegeom; f = reegeom.css.css_auto; reegeom.spectra.moduli; ns = {}; "
            "exec('from reegeom import *', ns); "
            "print(sorted(set(ns) - {'__builtins__'}) == sorted(reegeom.__all__), "
            "f is ns['css_auto'])")
    proc = python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]
