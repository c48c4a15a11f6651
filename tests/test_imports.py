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


PAULI_TABLES = ("PAULI_BASIS", "_PAULI_ROWS", "_B_FLAT", "_EYE_FLAT", "_PT_PAIR",
                "_DIRECTIONS_FLAT")
# the tables of the coordinate convention, which no module but qstate reads;
# the oracle and the reverse map read the last, the derivatives of (sigma(x), sigma(x)^Gamma)
QSTATE_ONLY = PAULI_TABLES[:-1]


def pauli_table_use(package: Path):
    """For a flat package, the modules that assign each of PAULI_TABLES at
    module level, and the modules that read each, by name, as an attribute
    or in an import."""
    assigned = {name: set() for name in PAULI_TABLES}
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for n in ast.walk(node):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id in assigned:
                        assigned[n.id].add(path.stem)
    readers = {name: {where.split(".")[0] for where in places}
               for name, places in readers_of(package, PAULI_TABLES).items()}
    return assigned, readers


def test_pauli_tables_live_in_qstate():
    """The map between a state and its 15 Pauli coordinates has one home:
    only qstate assigns its tables and reads those of the convention (row
    order, the /4, the trace-free layout and the Gamma index map), and the
    oracle and the reverse map import the one derivative table they read."""
    assigned, readers = pauli_table_use(PACKAGE)
    assert assigned == {name: {"qstate"} for name in PAULI_TABLES}
    assert {name: readers[name] for name in QSTATE_ONLY} == {name: {"qstate"}
                                                            for name in QSTATE_ONLY}
    assert readers["_DIRECTIONS_FLAT"] == {"ree", "revmap"}


def test_planted_pauli_table_is_found(tmp_path):
    """A table assigned by unpacking or with an annotation, and a table
    imported under an alias or read as an attribute in a function, are found."""
    (tmp_path / "qstate.py").write_text("PAULI_BASIS = 1\n_PAULI_ROWS = _B_FLAT = _EYE_FLAT = PAULI_BASIS\n")
    (tmp_path / "ree.py").write_text("from .qstate import PAULI_BASIS as P\n\n_B_FLAT, x = P, 0\n"
                                     "_DIRECTIONS_FLAT: int = 0\n")
    (tmp_path / "revmap.py").write_text("from . import qstate\n\ndef f():\n"
                                        "    return qstate.PAULI_BASIS + qstate._PT_PAIR\n")
    assigned, readers = pauli_table_use(tmp_path)
    assert assigned["_B_FLAT"] == {"qstate", "ree"} and assigned["_EYE_FLAT"] == {"qstate"}
    assert assigned["_DIRECTIONS_FLAT"] == {"ree"} and assigned["_PT_PAIR"] == set()
    assert readers["PAULI_BASIS"] == {"qstate", "ree", "revmap"}
    assert readers["_PT_PAIR"] == {"revmap"} and readers["_B_FLAT"] == set()


MATMULS = ("matmul", "dot", "tensordot", "einsum", "inner", "vdot")


def pauli_rows_products(package: Path):
    """For a flat package, the places that multiply by `_PAULI_ROWS`, by name
    or as an attribute: an @ with it in either operand, or a call of one of
    MATMULS, as a function or a method, with it in the object or an
    argument.  "module.function" or "module.Class" for a top-level
    definition's body, "module" for the rest."""
    def rows(node):
        return any(isinstance(n, ast.Name) and n.id == "_PAULI_ROWS"
                   or isinstance(n, ast.Attribute) and n.attr == "_PAULI_ROWS"
                   for n in ast.walk(node))

    found = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            named_top = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            where = f"{path.stem}.{top.name}" if named_top else path.stem
            for n in ast.walk(top):
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult):
                    operands = [n.left, n.right]
                elif isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                    func = n.func
                    name = func.id if isinstance(func, ast.Name) else func.attr
                    operands = (n.args + ([func.value] if isinstance(func, ast.Attribute) else [])
                                if name in MATMULS else [])
                else:
                    continue
                if any(rows(op) for op in operands):
                    found.add(where)
    return found


def test_one_coordinate_reader():
    """A state's 15 Pauli coordinates are read in one place,
    qstate._to_coordinates, which `to_pauli`, the oracle's start and the
    reverse map's target and G call."""
    assert pauli_rows_products(PACKAGE) == {"qstate._to_coordinates"}
    assert readers_of(PACKAGE, ("_to_coordinates",))["_to_coordinates"] >= {
        "qstate.to_pauli", "ree.ree_numeric", "revmap._newton", "revmap._edge_residual"}


def test_planted_coordinate_reader_is_found(tmp_path):
    """An @ on either side, of the table or its transpose, np.dot and a .dot
    method with the table as an attribute are found; a sum with the table
    is not."""
    (tmp_path / "ree.py").write_text(
        "def start(h):\n    return (_PAULI_ROWS @ h.reshape(16)).real\n\n\n"
        "def target(h):\n    return np.dot(q._PAULI_ROWS, h)\n\n\n"
        "def shift(h):\n    return _PAULI_ROWS + h\n")
    (tmp_path / "revmap.py").write_text(
        "G = h.ravel() @ qstate._PAULI_ROWS.T\n\n\n"
        "class Solve:\n    def f(self, h):\n        return qstate._PAULI_ROWS.dot(h)\n")
    assert pauli_rows_products(tmp_path) == {"ree.start", "ree.target", "revmap", "revmap.Solve"}


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
    """For a flat package, the places that form `_EYE_FLAT + ... @ <table>`,
    a sum of _EYE_FLAT and a product by any table in either order, such as
    _B_FLAT or _DIRECTIONS_FLAT, _EYE_FLAT by name or as an attribute:
    "module.function" or "module.Class" for a top-level definition's body,
    "module" for the rest."""
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
                        and isinstance(product.op, ast.MatMult)
                        for eye, product in ((n.left, n.right), (n.right, n.left))):
                    found.add(where)
    return found


def test_one_state_builder():
    """sigma = I/4 + sum_k x_k P_k / 4 is formed in one place,
    qstate._from_coordinates, which `from_pauli`, the closed-form and route
    "ppt" CSS of css._solve, the oracle's start, trials and end and the
    reverse map's trials and CSS call; no second builder stacks sigma with
    sigma^Gamma on another table, css._solve calls no `from_pauli`, and the
    canonical frame's handedness takes no np.linalg.det."""
    assert state_builders(PACKAGE) == {"qstate._from_coordinates"}
    read = readers_of(PACKAGE, ("_from_coordinates", "from_pauli", "det"))
    assert read["_from_coordinates"] >= {"qstate.from_pauli", "css._solve", "ree.ree_numeric",
                                         "ree._trial", "revmap._newton", "revmap._edge_css"}
    assert "css._solve" not in read["from_pauli"]
    assert "qstate._canonicalize" not in read["det"]


def test_planted_state_builder_is_found(tmp_path):
    """Either order of the sum, a product by any table, such as the stack of
    sigma and sigma^Gamma on _DIRECTIONS_FLAT, and tables read as attributes
    are found; a sum with an elementwise product is not."""
    (tmp_path / "ree.py").write_text(
        "def end(x):\n    return (_EYE_FLAT + x @ _B_FLAT).reshape(4, 4)\n\n\n"
        "def stack(x):\n    return _EYE_FLAT + x @ _DIRECTIONS_FLAT\n\n\n"
        "class Oracle:\n    def end(self, x):\n        return x.real @ q._B_FLAT + q._EYE_FLAT\n\n\n"
        "def scaled(x):\n    return _EYE_FLAT + x * _B_FLAT\n")
    (tmp_path / "revmap.py").write_text("SIGMA = qstate._EYE_FLAT + C @ qstate._B_FLAT\n")
    assert state_builders(tmp_path) == {"ree.end", "ree.stack", "ree.Oracle", "revmap"}


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
    from `partial_transpose`; `_pt_spectra` reads _PT_PAIR and calls no
    `partial_transpose`, and `directional_optimality_check`, which takes its
    spectra from `qstate._state`, reads neither."""
    assert pt_stackers(PACKAGE) == {"qstate"}
    read = readers_of(PACKAGE, ("_PT_PAIR", "partial_transpose", "_state"))
    assert "qstate._pt_spectra" in read["_PT_PAIR"]
    assert "ree.directional_optimality_check" in read["_state"]
    assert not (read["_PT_PAIR"] | read["partial_transpose"]) & {
        "ree.directional_optimality_check"}
    assert "qstate._pt_spectra" not in read["partial_transpose"]


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


# Each reader of a matrix argument, with the arguments that are matrices.
MATRIX_READERS = {
    "css.css_auto": ("rho",), "css.classify": ("rho",), "css._template": ("rho",),
    "ree.ree_numeric": ("rho",), "ree.relative_entropy": ("rho", "sigma"),
    "ree.directional_optimality_check": ("rho", "css"), "revmap.recover": ("sigma", "rho"),
    "revmap.g_matrix": ("sigma",), "revmap.family_from_css": ("sigma",),
    "qstate.is_ppt": ("rho",), "qstate.concurrence": ("rho",),
    "qstate.validate_density_matrix": ("rho",),
}


def matrix_reads(package: Path):
    """For a flat package: each top-level function "module.function" mapped
    to its arguments, each with the list of its loads in source order, the
    name of the call (by name or as an attribute) whose one argument it is,
    or None for any other load; the places that form a Hermitian part, a
    sum (or an in-place add) one of whose terms holds a name and the other
    that name's `conj`; and the places that build
    InvalidState("finite entries")."""
    def name(func):
        return (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)

    def conj_of(node):
        """The names whose conj a node holds, as x.conj() or np.conj(x)."""
        found = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Call) and name(n.func) == "conj":
                target = n.args[0] if n.args else getattr(n.func, "value", None)
                if isinstance(target, ast.Name):
                    found.add(target.id)
        return found

    loads, hermitian, finite = {}, set(), set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, ast.FunctionDef):
                continue
            where = f"{path.stem}.{top.name}"
            args = [a.arg for a in top.args.args]
            callee = {id(n.args[0]): name(n.func) for n in ast.walk(top)
                      if isinstance(n, ast.Call) and len(n.args) == 1 and not n.keywords}
            names = sorted((n for n in ast.walk(top)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)),
                           key=lambda n: (n.lineno, n.col_offset))
            loads[where] = {a: [callee.get(id(n)) for n in names if n.id == a] for a in args}
            for n in ast.walk(top):
                terms = ((n.left, n.right) if isinstance(n, ast.BinOp)
                         else (n.target, n.value) if isinstance(n, ast.AugAssign) else None)
                if terms and isinstance(n.op, ast.Add) and any(
                        conj_of(one) & {m.id for m in ast.walk(other) if isinstance(m, ast.Name)}
                        for one, other in (terms, terms[::-1])):
                    hermitian.add(where)
                if (isinstance(n, ast.Call) and name(n.func) == "InvalidState" and n.args
                        and isinstance(n.args[0], ast.Constant)
                        and n.args[0].value == "finite entries"):
                    finite.add(where)
    return loads, hermitian, finite


def test_one_read_of_every_matrix_argument():
    """`qstate._state` is the one place that decides how a matrix argument
    is read: only it forms the Hermitian part of a matrix from outside (`_fit`
    symmetrizes the multiplier M it fits and `_edge_jacobian` an outer
    product it builds), and only it raises InvalidState("finite entries") on
    a matrix (`from_pauli` raises it on the Pauli blocks r, s and g).  Every
    reader loads each matrix argument once, as the one argument of `_state`
    or `_density`, and the CLI's `_read` calls `_density`; `_finite` is
    gone."""
    loads, hermitian, finite = matrix_reads(PACKAGE)
    assert hermitian == {"qstate._state", "ree._fit", "revmap._edge_jacobian"}
    assert finite == {"qstate._state", "qstate.from_pauli"}
    for reader, matrices in MATRIX_READERS.items():
        for arg in matrices:
            assert loads[reader][arg] in (["_state"], ["_density"]), (reader, arg)
    assert "cli._read" in readers_of(PACKAGE, ("_density",))["_density"]
    assert "qstate._finite" not in loads and not readers_of(PACKAGE, ("_finite",))["_finite"]


def test_planted_matrix_reads_are_found(tmp_path):
    """An argument read twice, or once outside `_state`, a Hermitian part
    formed as (m + np.conj(m).T) / 2, m / 2 + m.conj().T / 2 or by an
    in-place add of a half's conj, and InvalidState("finite entries") raised
    anywhere are all found; a difference with a conj, as the Hermiticity
    check forms, is not."""
    (tmp_path / "qstate.py").write_text(
        "def _state(m):\n    h = m / 2\n    h += h.conj().T\n    return h, spectra(h)\n\n\n"
        "def is_ppt(rho):\n    return ppt(_state(rho)[1]) and rho.shape\n\n\n"
        "def _density(rho):\n    return _state(rho), abs(rho - rho.conj().T).max()\n")
    (tmp_path / "ree.py").write_text(
        "def relative_entropy(rho, sigma):\n    h = (rho + np.conj(rho).T) / 2\n"
        "    return entropy(h, _state(sigma))\n\n\n"
        "def _fit(sigma):\n    m = solve(sigma)\n    return m / 2 + m.conj().T / 2\n\n\n"
        "def check(m):\n    if bad(m):\n        raise InvalidState(\"finite entries\", 1.0)\n")
    loads, hermitian, finite = matrix_reads(tmp_path)
    assert loads["qstate.is_ppt"] == {"rho": ["_state", None]}
    assert loads["ree.relative_entropy"] == {"rho": [None, "conj"], "sigma": ["_state"]}
    assert hermitian == {"qstate._state", "ree.relative_entropy", "ree._fit"}
    assert finite == {"ree.check"}


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
