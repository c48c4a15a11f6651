"""The calls that `perfbench/` makes into reegeom, written as they appear in
`perfbench/workloads.py`, `perfbench/tracing.py` and `perfbench/cli_child.py`.

Tier-1 does not run `perfbench/test_perfbench.py`, so a signature change that
breaks the benchmark would otherwise go unnoticed.  A change to those calls
in `perfbench/` updates this file along with them.
"""

import importlib
import inspect
import json

import numpy as np
import pytest
from click.testing import CliRunner

import reegeom
import reegeom.cli
from reegeom import css, geometry, qstate, ree, revmap

SETUP_CODE = [
    # SolveFamilies, SolveCertified, GeometryExport, CliCold
    "reegeom.css_auto(reegeom.bell_diagonal([0.9, -0.8, 0.7]))",
    ("rho = reegeom.bell_diagonal([0.9, -0.8, 0.7]); reegeom.css_auto(rho); "
     "reegeom.ree_numeric(rho, reegeom.OracleConfig(restarts=1, "
     "max_iterations=20))"),
    "reegeom.surface_mesh('L', 0.1, 0.1, 16)",
    "reegeom.cli.matrix_json(reegeom.bell_diagonal([0.9, -0.8, 0.7]))",
]


@pytest.mark.parametrize("code", SETUP_CODE)
def test_setup_code(code):
    exec(code, {"reegeom": reegeom})


def test_tracing_layers_import():
    for m in ("qstate", "spectra", "geometry", "css", "revmap", "ree", "cli"):
        importlib.import_module(f"reegeom.{m}")


def test_solve_certified_calls():
    rho = qstate.bell_diagonal([0.9, -0.8, 0.7])
    res = css.css_auto(rho)
    num = ree.ree_numeric(rho, ree.OracleConfig(seed=12345))
    cert = ree.directional_optimality_check(rho, res.css, n_directions=64)
    assert isinstance(num.iterations, int) and num.iterations > 0
    assert num.converged is True and cert >= -1e-8
    assert res.geometric is True and res.separable is False
    assert res.family.kind.value == "BellDiagonal"
    assert set(res.residuals) == {"bloch_gap", "edge_gap", "recovery_gap"}

    wrong = 0.99 * res.css + 0.01 * np.eye(4) / 4
    planted = css.CssResult(css=wrong, tau=res.tau, family=res.family,
                            ree=float(ree.relative_entropy(rho, wrong)),
                            residuals=res.residuals)
    assert planted.geometric is True and planted.separable is False
    assert np.isfinite(ree.directional_optimality_check(rho, wrong, n_directions=64))


def test_geometry_export_calls():
    rng = np.random.default_rng(3)
    r, s = 0.1, -0.2
    assert geometry.in_tetrahedron([0.2, 0.1, -0.3])
    vertex = np.array(list(geometry.TETRA_VERTICES.values()))[0]
    t = vertex + 0.4 * (np.array([0.05, -0.02, 0.01]) - vertex)
    params = [revmap.sample_params_for_bloch(r, s, rng) for _ in range(3)]
    mesh = geometry.surface_mesh("T", r, s, 16)
    crossings = geometry.line_surface_crossing(t, geometry.nearest_vertex(t), r, s)
    rows = revmap.css_line_sweep(params, np.linspace(0.0, 2.5, 50))
    revmap.line_crossing(params[0], params[1])
    assert len(mesh.points) == len(mesh.sheets) > 0 and crossings and rows
    assert {"family_id", "x", "t", "tau", "r", "s"} <= set(rows[0])
    # tracing.py reads the grid size from the bound arguments
    bound = inspect.signature(geometry.surface_mesh).bind("L", 0.1, 0.1, 16)
    assert bound.arguments["n"] == 16


def test_cli_cold_commands(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rho = qstate.bell_diagonal([0.9, -0.8, 0.7])
    with open(tmp_path / "state.json", "w") as fh:
        json.dump({"re": rho.real.tolist(), "im": rho.imag.tolist()}, fh)
    runner = CliRunner()
    for args in (["decompose", "state.json", "--out", "pauli.json"],
                 ["css", "state.json", "--method", "auto", "--out", "css.json"],
                 ["reconstruct", "pauli.json", "--out", "rebuilt.json"],
                 ["sweep", "--r", "0.1", "--s", "-0.2", "--families", "8",
                  "--xsteps", "50", "--seed", "7", "--out", "sweep.csv"],
                 ["surface", "--body", "T", "--r", "0.1", "--s", "-0.2",
                  "--n", "48", "--out", "mesh.csv"]):
        res = runner.invoke(reegeom.cli.main, args)
        assert res.exit_code == 0, (args, res.output)
    assert qstate.concurrence(rho) > 0 and qstate.to_pauli(rho).g.shape == (3, 3)
