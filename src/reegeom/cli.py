"""Command-line front end: state I/O, computations as subcommands, and
figure-dataset export.

Exit codes: 0 ok, 1 check failure, 2 input error, 3 unsupported method.
Matrices travel as JSON ({"re": [[4x4]], "im": [[4x4]]}, row-major, basis
order |00>, |01>, |10>, |11>); meshes and sweeps as CSV.  Every output file
gets a sidecar manifest JSON recording the invocation.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field

import click
import numpy as np

from . import __version__, css, geometry, revmap
from .errors import InvalidState, NotSolvableFamily
from .qstate import (
    BELL_STATES,
    PauliForm,
    canonicalize,
    concurrence,
    from_pauli,
    is_ppt,
    to_pauli,
    validate_density_matrix,
)
from .ree import OracleConfig, ree_numeric

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED = 3

FLOAT_FMT = "%.17g"


@dataclass
class RunManifest:
    subcommand: str
    inputs: list = field(default_factory=list)
    flags: dict = field(default_factory=dict)
    seed: int | None = None
    version: str = __version__
    outputs: list = field(default_factory=list)


def _write_manifest(manifest: RunManifest):
    for out in manifest.outputs:
        with open(out + ".manifest.json", "w") as fh:
            json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON input")


def load_state(path: str) -> np.ndarray:
    with open(path) as fh:
        obj = json.load(fh, parse_constant=_reject_constant)
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ValueError("matrix blocks must be 4x4")
    return re + 1j * im


def matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _dump(obj: dict, out: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
@click.version_option(__version__)
def main():
    """Two-qubit entanglement-geometry toolkit.

    Exit codes: 0 ok, 1 check failure, 2 input error, 3 unsupported method.
    """


@main.command()
@click.argument("state", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output JSON path (stdout if omitted).")
def decompose(state, out):
    """Pauli decomposition, canonical frame, and basic invariants of STATE."""
    try:
        rho = load_state(state)
        validate_density_matrix(rho)
    except (InvalidState, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    pf = to_pauli(rho)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dpf, lu = canonicalize(rho)
    payload = {
        "r": pf.r.tolist(),
        "s": pf.s.tolist(),
        "g": pf.g.tolist(),
        "canonical": {"r": dpf.r.tolist(), "s": dpf.s.tolist(),
                      "q": dpf.q.tolist()},
        "local_unitary": {"u_a": matrix_json(lu.u_a), "u_b": matrix_json(lu.u_b)},
        "eigenvalues": np.linalg.eigvalsh(rho).tolist(),
        "concurrence": concurrence(rho),
        "ppt": bool(is_ppt(rho)),
    }
    _dump(payload, out)
    if out:
        _write_manifest(RunManifest("decompose", inputs=[state],
                                    flags={}, outputs=[out]))


@main.command()
@click.argument("pauli", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output JSON path (stdout if omitted).")
def reconstruct(pauli, out):
    """Rebuild the density matrix from a decompose output file."""
    try:
        with open(pauli) as fh:
            obj = json.load(fh, parse_constant=_reject_constant)
        rho = from_pauli(PauliForm(np.asarray(obj["r"], float),
                                   np.asarray(obj["s"], float),
                                   np.asarray(obj["g"], float)))
        validate_density_matrix(rho)
    except (InvalidState, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    _dump(matrix_json(rho), out)
    if out:
        _write_manifest(RunManifest("reconstruct", inputs=[pauli],
                                    flags={}, outputs=[out]))


@main.command(name="css")
@click.argument("state", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["geometric", "numeric", "auto"]),
              default="auto", show_default=True)
@click.option("--bits", is_flag=True, help="Report entropies in bits, not nats.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the numeric minimizer.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output JSON path (stdout if omitted).")
def css_cmd(state, method, bits, seed, out):
    """Closest separable state and relative entropy of entanglement of STATE."""
    try:
        rho = load_state(state)
        validate_density_matrix(rho)
    except (InvalidState, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))

    unit = 1.0 / math.log(2.0) if bits else 1.0
    try:
        if method == "numeric":
            rep = ree_numeric(rho, OracleConfig(seed=seed))
            payload = {
                "method": "numeric",
                "family": css.classify(rho).kind.value,
                "ree": rep.value * unit,
                "units": "bits" if bits else "nats",
                "css": matrix_json(rep.css_numeric),
                "converged": rep.converged,
                "restart_values": [v * unit for v in rep.restart_values],
            }
            _dump(payload, out)
            if out:
                _write_manifest(RunManifest("css", inputs=[state],
                                            flags={"method": method, "bits": bits},
                                            seed=seed, outputs=[out]))
            if not rep.converged:
                _fail(EXIT_CHECK_FAILED, "numeric minimizer restarts disagree")
            return
        result = css.css_auto(rho, numeric_fallback=(method == "auto"))
        if method == "geometric" and result.family.kind is css.FamilyKind.OTHER:
            raise NotSolvableFamily("state is outside the solvable families")
    except NotSolvableFamily as exc:
        _fail(EXIT_UNSUPPORTED, str(exc))
    payload = {
        "method": "geometric" if result.geometric else "numeric-fallback",
        "family": result.family.kind.value,
        "lambdas": list(result.family.lambdas) if result.family.lambdas else None,
        "separable": result.separable,
        "ree": result.ree * unit,
        "units": "bits" if bits else "nats",
        "tau": np.asarray(result.tau, float).tolist(),
        "css": matrix_json(result.css),
        "residuals": {k: (None if math.isnan(v) else v)
                      for k, v in result.residuals.items()},
    }
    _dump(payload, out)
    if out:
        _write_manifest(RunManifest("css", inputs=[state],
                                    flags={"method": method, "bits": bits},
                                    seed=seed, outputs=[out]))


@main.command()
@click.option("--body", type=click.Choice(["T", "L"]), required=True,
              help="T: state body, L: separable body.")
@click.option("--r", "r_", type=float, required=True)
@click.option("--s", "s_", type=float, required=True)
@click.option("--n", type=int, default=64, show_default=True,
              help="Grid resolution per axis.")
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="PSD tolerance for dropping unphysical sheet roots.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def surface(body, r_, s_, n, tol, out):
    """Boundary-surface mesh of the deformed body at fixed Bloch components."""
    if not (abs(r_) <= 1 and abs(s_) <= 1):
        _fail(EXIT_INPUT_ERROR, "|r| and |s| must be at most 1")
    if n < 2:
        _fail(EXIT_INPUT_ERROR, "grid size must be at least 2")
    mesh = geometry.surface_mesh(body, r_, s_, n, psd_tol=tol)
    with open(out, "w") as fh:
        fh.write("q1,q2,q3,sheet\n")
        for (q1, q2, q3), sheet in zip(mesh.points, mesh.sheets):
            fh.write(f"{_fmt(q1)},{_fmt(q2)},{_fmt(q3)},{sheet}\n")
    _write_manifest(RunManifest("surface", inputs=[],
                                flags={"body": body, "r": r_, "s": s_,
                                       "n": n, "tol": tol},
                                outputs=[out]))
    click.echo(f"wrote {len(mesh.sheets)} mesh points to {out}")


@main.command()
@click.option("--r", "r_", type=float, required=True)
@click.option("--s", "s_", type=float, required=True)
@click.option("--families", "n_families", type=int, default=8, show_default=True)
@click.option("--xsteps", type=int, default=50, show_default=True)
@click.option("--xmax", type=float, default=2.5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def sweep(r_, s_, n_families, xsteps, xmax, seed, out):
    """Correlation-vector polylines of reverse-map families sharing Bloch
    components (r, s) at x = 0."""
    if n_families < 0 or xsteps < 1:
        _fail(EXIT_INPUT_ERROR, "families must be >= 0 and xsteps >= 1")
    rng = np.random.default_rng(seed)
    try:
        params = [revmap.sample_params_for_bloch(r_, s_, rng)
                  for _ in range(n_families)]
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    rows = revmap.css_line_sweep(params, np.linspace(0.0, xmax, xsteps))
    with open(out, "w") as fh:
        fh.write("family_id,x,t1,t2,t3,tau1,tau2,tau3,r,s\n")
        for row in rows:
            t, tau = row["t"], row["tau"]
            fh.write(",".join([str(row["family_id"]), _fmt(row["x"]),
                               _fmt(t[0]), _fmt(t[1]), _fmt(t[2]),
                               _fmt(tau[0]), _fmt(tau[1]), _fmt(tau[2]),
                               _fmt(row["r"]), _fmt(row["s"])]) + "\n")
    _write_manifest(RunManifest("sweep", inputs=[],
                                flags={"r": r_, "s": s_, "families": n_families,
                                       "xsteps": xsteps, "xmax": xmax},
                                seed=seed, outputs=[out]))
    click.echo(f"wrote {len(rows)} sweep rows to {out}")


# --- verify suites ---------------------------------------------------------

def _suite_families(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    def sample_lam(entangled_horodecki=False):
        while True:
            lam = rng.dirichlet([1, 1, 1])
            if lam[0] < 0.05:
                continue
            if entangled_horodecki and lam[0] ** 2 <= 4 * lam[1] * lam[2] + 1e-3:
                continue
            return tuple(lam)

    for i in range(5):
        res = css.css_vp(sample_lam())
        checks.append({"name": f"vp_residuals_{i}",
                       "ok": res.residuals["bloch_gap"] <= 1e-10
                       and res.residuals["edge_gap"] <= 1e-8
                       and (res.separable
                            or res.residuals["recovery_gap"] <= 1e-9)})
    for i in range(5):
        res = css.css_horodecki(sample_lam(entangled_horodecki=True))
        checks.append({"name": f"horodecki_residuals_{i}",
                       "ok": res.residuals["bloch_gap"] <= 1e-10
                       and res.residuals["edge_gap"] <= 1e-8
                       and res.residuals["recovery_gap"] <= 1e-9})
    for i in range(5):
        t = rng.uniform(-1, 1, size=3)
        while np.sum(np.abs(t)) <= 1.05 or not geometry.in_tetrahedron(t):
            t = rng.uniform(-1, 1, size=3)
        res = css.css_bell_diagonal(t)
        checks.append({"name": f"bell_diagonal_residuals_{i}",
                       "ok": res.residuals["bloch_gap"] <= 1e-10
                       and res.residuals["edge_gap"] <= 1e-8})
    return checks


def _suite_revmap(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    for _ in range(50):
        p = revmap.sample_params_for_bloch(rng.uniform(-0.3, 0.3),
                                           rng.uniform(-0.3, 0.3), rng)
        for x in (0.0, 0.05, 0.1):
            gap = float(np.max(np.abs(
                revmap.z_family(p, x)
                - revmap.family_from_css(p.matrix(), x, check_psd=False))))
            worst = max(worst, gap)
    checks.append({"name": "dual_route_equality", "ok": worst <= 1e-10,
                   "worst": worst})

    a, b = 0.2, 0.12
    p1 = revmap.SigmaZParams(a, 0.5 - a, 0.5 - a, a)
    p2 = revmap.SigmaZParams(b, 0.5 - b, 0.5 - b, b)
    _, _, mu = revmap.line_crossing(p1, p2)
    checks.append({"name": "bell_diagonal_crossing_vertex",
                   "ok": bool(np.max(np.abs(mu - [1, 1, -1])) <= 1e-10)})
    return checks


def _suite_oracle(seed: int, max_iterations: int) -> list[dict]:
    checks = []
    cfg = OracleConfig(seed=seed, max_iterations=max_iterations, restarts=4)
    for i, bell in enumerate(BELL_STATES):
        rep = ree_numeric(bell, cfg)
        ok = rep.converged and abs(rep.value - math.log(2)) <= 1e-4
        check = {"name": f"bell_{i + 1}_ree", "ok": ok, "value": rep.value}
        if not rep.converged:
            check["error"] = "NotConverged: restarts disagree beyond tolerance"
        checks.append(check)
    return checks


@main.command()
@click.option("--suite", type=click.Choice(["families", "revmap", "oracle", "all"]),
              default="all", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-iterations", type=int, default=600, show_default=True,
              help="Oracle iteration budget (tiny values force NotConverged).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="JSON report path.")
def verify(suite, seed, max_iterations, out):
    """Run internal consistency suites; exit 0 iff every check passes."""
    checks = []
    if suite in ("families", "all"):
        checks += _suite_families(seed)
    if suite in ("revmap", "all"):
        checks += _suite_revmap(seed)
    if suite in ("oracle", "all"):
        checks += _suite_oracle(seed, max_iterations)

    n_ok = sum(c["ok"] for c in checks)
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        extra = f"  ({c['error']})" if "error" in c and not c["ok"] else ""
        click.echo(f"[{status}] {c['name']}{extra}")
    click.echo(f"{n_ok}/{len(checks)} checks passed")
    report = {"suite": suite, "seed": seed, "checks": checks,
              "passed": n_ok, "total": len(checks)}
    if out:
        _dump(report, out)
        _write_manifest(RunManifest("verify", inputs=[],
                                    flags={"suite": suite,
                                           "max_iterations": max_iterations},
                                    seed=seed, outputs=[out]))
    sys.exit(EXIT_OK if n_ok == len(checks) else EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
