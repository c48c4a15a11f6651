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

import click
import numpy as np

from . import __version__, css, geometry, revmap
from .errors import InvalidState, NotConverged
from .qstate import (
    BELL_STATES,
    PSD_TOL,
    PauliForm,
    canonicalize,
    concurrence,
    from_pauli,
    is_ppt,
    su2_from_rotation,
    to_pauli,
    validate_density_matrix,
)
from .ree import ree_numeric

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED = 3


class Finite(click.FloatRange):
    """A float range that also rejects NaN and +-inf, which FloatRange lets
    through (every comparison with NaN is false)."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return rv


SEED = click.IntRange(min=0)
BLOCH = Finite(-1.0, 1.0)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON input")


def _read(path: str, parse, fmt: str) -> np.ndarray:
    """The density matrix parse() builds from JSON of format fmt in PATH; bad
    JSON (a ValueError), a missing key, a top level that is not an object or a
    value of the wrong type (a TypeError), a wrong shape or an invalid state exits 2."""
    try:
        with open(path) as fh:
            rho = parse(json.load(fh, parse_constant=_reject_constant))
        validate_density_matrix(rho)
    except KeyError as exc:
        _fail(EXIT_INPUT_ERROR, f"{path}: missing key {exc}, expected {fmt}")
    except (InvalidState, ValueError, TypeError) as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    return rho


def _state_matrix(obj: dict) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ValueError("matrix blocks must be 4x4")
    return re + 1j * im


def _pauli_matrix(obj: dict) -> np.ndarray:
    return from_pauli(PauliForm(*(np.asarray(obj[k], float) for k in "rsg")))


def load_state(path: str) -> np.ndarray:
    """The density matrix in a state JSON file; bad input exits 2."""
    return _read(path, _state_matrix, '{"re": [[4x4]], "im": [[4x4]]}')


def matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _open_out(path: str):
    """PATH opened for writing; a missing or unwritable directory exits 2."""
    try:
        return open(path, "w")
    except OSError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))


def _manifest(out: str):
    """Write OUT's sidecar: the running subcommand, its arguments (inputs),
    its options other than --out and --seed (flags), the seed and version."""
    ctx = click.get_current_context()
    flags = dict(ctx.params)
    flags.pop("out")
    inputs = [flags.pop(p.name) for p in ctx.command.params
              if isinstance(p, click.Argument)]
    manifest = {"subcommand": ctx.info_name, "inputs": inputs,
                "seed": flags.pop("seed", None), "flags": flags,
                "version": __version__, "outputs": [out]}
    with _open_out(out + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(payload: dict, out: str | None):
    """Write PAYLOAD as JSON to OUT and its manifest, or to stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    with _open_out(out) as fh:
        fh.write(text)
    _manifest(out)


def _write_csv(out: str, header: str, rows: list[tuple]):
    """Write HEADER and ROWS as CSV and the file's manifest; numbers are
    printed with 17 significant digits, strings as they are."""
    with _open_out(out) as fh:
        fh.write(header + "\n")
        if rows:
            line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0])
            fh.write("".join(line % row + "\n" for row in rows))
    _manifest(out)


@click.group()
@click.version_option(__version__)
def main():
    """Two-qubit entanglement-geometry toolkit.

    Exit codes: 0 ok, 1 check failure, 2 input error, 3 unsupported method.
    """


OUT_JSON = click.option("--out", type=click.Path(dir_okay=False), default=None,
                        help="Output JSON path (stdout if omitted).")


@main.command()
@click.argument("state", type=click.Path(exists=True, dir_okay=False))
@OUT_JSON
def decompose(state, out):
    """Pauli decomposition, canonical frame, and basic invariants of STATE."""
    rho = load_state(state)
    pf = to_pauli(rho)
    dpf, r_a, r_b = canonicalize(pf)
    _emit({
        "r": pf.r.tolist(),
        "s": pf.s.tolist(),
        "g": pf.g.tolist(),
        "canonical": {"r": dpf.r.tolist(), "s": dpf.s.tolist(),
                      "q": dpf.q.tolist()},
        "local_unitary": {"u_a": matrix_json(su2_from_rotation(r_a)),
                          "u_b": matrix_json(su2_from_rotation(r_b))},
        "eigenvalues": np.linalg.eigvalsh(rho).tolist(),
        "concurrence": concurrence(rho),
        "ppt": bool(is_ppt(rho)),
    }, out)


@main.command()
@click.argument("pauli", type=click.Path(exists=True, dir_okay=False))
@OUT_JSON
def reconstruct(pauli, out):
    """Rebuild the density matrix from a decompose output file."""
    _emit(matrix_json(_read(pauli, _pauli_matrix, '{"r": [3], "s": [3], "g": [[3x3]]}')), out)


@main.command(name="css")
@click.argument("state", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["geometric", "numeric", "auto"]),
              default="auto", show_default=True)
@click.option("--bits", is_flag=True, help="Report entropies in bits, not nats.")
@OUT_JSON
def css_cmd(state, method, bits, out):
    """Closest separable state and relative entropy of entanglement of STATE."""
    rho = load_state(state)
    unit = 1.0 / math.log(2.0) if bits else 1.0
    units = "bits" if bits else "nats"
    if method == "numeric":
        rep = ree_numeric(rho)
        _emit({
            "method": "numeric",
            "family": css.classify(rho).kind.value,
            "ree": rep.value * unit,
            "units": units,
            "css": matrix_json(rep.css_numeric),
            "converged": rep.converged,
            "lower": rep.lower * unit,
            "gap": rep.gap * unit,
        }, out)
        if not rep.converged:
            _fail(EXIT_CHECK_FAILED,
                  "numeric bracket [lower, ree] is wider than its tolerance")
        return
    try:
        result = css.css_auto(rho, numeric_fallback=(method == "auto"))
    except NotConverged as exc:
        _fail(EXIT_CHECK_FAILED, str(exc))
    if method == "geometric" and result.family.kind is css.FamilyKind.OTHER:
        _fail(EXIT_UNSUPPORTED, "state is outside the solvable families")
    _emit({
        "method": "geometric" if result.geometric else "numeric-fallback",
        "family": result.family.kind.value,
        "lambdas": list(result.family.lambdas) if result.family.lambdas else None,
        "separable": result.separable,
        "ree": result.ree * unit,
        "units": units,
        "tau": np.asarray(result.tau, float).tolist(),
        "css": matrix_json(result.css),
        "residuals": {k: (None if math.isnan(v) else v)
                      for k, v in result.residuals.items()},
    }, out)


@main.command()
@click.option("--body", type=click.Choice(["T", "L"]), required=True,
              help="T: state body, L: separable body.")
@click.option("--r", type=BLOCH, required=True)
@click.option("--s", type=BLOCH, required=True)
@click.option("--n", type=click.IntRange(min=2), default=64, show_default=True,
              help="Grid resolution per axis.")
@click.option("--tol", type=Finite(min=0.0), default=PSD_TOL, show_default=True,
              help="PSD tolerance for dropping unphysical sheet roots.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def surface(body, r, s, n, tol, out):
    """Boundary-surface mesh of the deformed body at fixed Bloch components."""
    mesh = geometry.surface_mesh(body, r, s, n, psd_tol=tol)
    _write_csv(out, "q1,q2,q3,sheet",
               [(*pt, sheet) for pt, sheet in zip(mesh.points.tolist(), mesh.sheets)])
    click.echo(f"wrote {len(mesh.sheets)} mesh points to {out}")


@main.command()
@click.option("--r", type=BLOCH, required=True)
@click.option("--s", type=BLOCH, required=True)
@click.option("--families", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--xsteps", type=click.IntRange(min=1), default=50, show_default=True)
@click.option("--xmax", type=Finite(min=0.0), default=2.5, show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def sweep(r, s, families, xsteps, xmax, seed, out):
    """Correlation-vector polylines of reverse-map families sharing Bloch
    components (r, s) at x = 0."""
    rng = np.random.default_rng(seed)
    try:
        params = [revmap.sample_params_for_bloch(r, s, rng) for _ in range(families)]
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    rows = revmap.css_line_sweep(params, np.linspace(0.0, xmax, xsteps))
    _write_csv(out, "family_id,x,t1,t2,t3,tau1,tau2,tau3,r,s",
               [(row["family_id"], row["x"], *row["t"], *row["tau"], row["r"], row["s"])
                for row in rows])
    click.echo(f"wrote {len(rows)} sweep rows to {out}")


# --- verify suites ---------------------------------------------------------

def _residuals_ok(res, recovery: bool = True) -> bool:
    """The closed-form CSS checks: Bloch gap, edge gap and, if asked, the
    reverse-map recovery gap within their tolerances."""
    gaps = res.residuals
    return (gaps["bloch_gap"] <= 1e-10 and gaps["edge_gap"] <= 1e-8
            and (not recovery or gaps["recovery_gap"] <= 1e-9))


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
                       "ok": _residuals_ok(res, recovery=not res.separable)})
    for i in range(5):
        res = css.css_horodecki(sample_lam(entangled_horodecki=True))
        checks.append({"name": f"horodecki_residuals_{i}", "ok": _residuals_ok(res)})
    for i in range(5):
        t = rng.uniform(-1, 1, size=3)
        while np.sum(np.abs(t)) <= 1.05 or not geometry.in_tetrahedron(t):
            t = rng.uniform(-1, 1, size=3)
        res = css.css_bell_diagonal(t)
        checks.append({"name": f"bell_diagonal_residuals_{i}",
                       "ok": _residuals_ok(res, recovery=False)})
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
                - revmap.family_from_css(p.matrix(), x))))
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


def _suite_oracle() -> list[dict]:
    """The oracle's bracket [lower, value] holds ln 2 for each Bell state;
    each check reports the bracket, its gap and the oracle's steps."""
    checks = []
    for i, bell in enumerate(BELL_STATES):
        rep = ree_numeric(bell)
        held = rep.lower <= math.log(2) <= rep.value
        check = {"name": f"bell_{i + 1}_ree", "ok": rep.converged and held,
                 "value": rep.value, "lower": rep.lower, "gap": rep.gap,
                 "iterations": rep.iterations}
        if not rep.converged:
            check["error"] = ("NotConverged: iteration budget spent or bracket "
                              "wider than its tolerance")
        elif not held:
            check["error"] = "ln 2 outside the bracket [lower, value]"
        checks.append(check)
    return checks


@main.command()
@click.option("--suite", type=click.Choice(["families", "revmap", "oracle", "all"]),
              default="all", show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="JSON report path.")
def verify(suite, seed, out):
    """Run internal consistency suites; exit 0 iff every check passes."""
    checks = []
    if suite in ("families", "all"):
        checks += _suite_families(seed)
    if suite in ("revmap", "all"):
        checks += _suite_revmap(seed)
    if suite in ("oracle", "all"):
        checks += _suite_oracle()

    n_ok = sum(c["ok"] for c in checks)
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        extra = f"  ({c['error']})" if "error" in c and not c["ok"] else ""
        click.echo(f"[{status}] {c['name']}{extra}")
    click.echo(f"{n_ok}/{len(checks)} checks passed")
    if out:
        _emit({"suite": suite, "seed": seed, "checks": checks,
               "passed": n_ok, "total": len(checks)}, out)
    sys.exit(EXIT_OK if n_ok == len(checks) else EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
