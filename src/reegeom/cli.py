"""Command-line front end: state I/O, computations as subcommands, and
figure-dataset export.

Exit codes: 0 ok, 1 check failure, 2 input error (a grid too large to
allocate included), 3 unsupported method.
Matrices travel as JSON ({"re": [[4x4]], "im": [[4x4]]}, row-major, basis
order |00>, |01>, |10>, |11>); meshes and sweeps as CSV.  Every output file
gets a sidecar manifest JSON recording the invocation.

Start-up is most of a command's time, so each subcommand imports the layers
it runs when it runs: `decompose` and `reconstruct` load only `qstate` and
`errors`, `surface` adds `geometry` and `spectra`, `sweep` adds `revmap`,
`ree` and `spectra`, and `css` and `verify --suite all` load every layer.
The `reegeom` command enters through `run`, which freezes the start-up heap.
"""

from __future__ import annotations

import gc
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .errors import InvalidState, NotConverged
from .qstate import (
    BELL_STATES,
    PSD_TOL,
    PauliForm,
    _canonicalize,
    _density,
    concurrence,
    from_pauli,
    is_ppt,
    su2_from_rotation,
    to_pauli,
)

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
    """The Hermitian part of the density matrix parse() builds from JSON of
    format fmt in PATH, which every subcommand reads; bad JSON (a
    ValueError), a missing key, a top level that is not an object or a value
    of the wrong type (a TypeError), a wrong shape or an invalid state exits 2.
    parse() runs without floating-point warnings: an entry it overflows is
    left non-finite, which validation rejects."""
    try:
        with open(path) as fh, np.errstate(all="ignore"):
            m = parse(json.load(fh, parse_constant=_reject_constant))
        rho = _density(m)[0]
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
    r, s, g = (np.asarray(obj[k], float) for k in "rsg")
    if r.shape != (3,) or s.shape != (3,) or g.shape != (3, 3):
        raise ValueError("Pauli blocks must be r [3], s [3] and g [3x3]")
    return from_pauli(PauliForm(r, s, g))


def load_state(path: str) -> np.ndarray:
    """The Hermitian part of the density matrix in a state JSON file; bad input exits 2."""
    return _read(path, _state_matrix, '{"re": [[4x4]], "im": [[4x4]]}')


def matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _write(out: str, text: str):
    """Write TEXT to OUT, then OUT's manifest: the subcommand, its arguments
    (inputs), its options other than --out and --seed (flags), the seed and
    the version.  An OSError, as from a missing or unwritable directory, exits 2."""
    ctx = click.get_current_context()
    flags = {k: v for k, v in ctx.params.items() if k != "out"}
    inputs = [flags.pop(p.name) for p in ctx.command.params if isinstance(p, click.Argument)]
    manifest = json.dumps({"subcommand": ctx.info_name, "inputs": inputs,
                           "seed": flags.pop("seed", None), "flags": flags,
                           "version": __version__, "outputs": [out]}, indent=2, sort_keys=True)
    try:
        for path, body in ((out, text), (out + ".manifest.json", manifest + "\n")):
            with open(path, "w") as fh:
                fh.write(body)
    except OSError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))


def _emit(payload: dict, out: str | None):
    """Write PAYLOAD as JSON to OUT and its manifest, or to stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _write_csv(out: str, header: str, rows: list[tuple], what: str):
    """Write HEADER and ROWS as CSV to OUT and its manifest, numbers with 17
    significant digits and strings as they are, and say how many WHAT it wrote."""
    line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0]) if rows else ""
    _write(out, header + "\n" + "".join(line % row + "\n" for row in rows))
    click.echo(f"wrote {len(rows)} {what} to {out}")


class _Main(click.Group):
    """Every subcommand's one exit boundary: a grid too large to allocate
    exits 2, an oracle that does not converge exits 1, each with one error line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MemoryError as exc:
            _fail(EXIT_INPUT_ERROR, str(exc) or "not enough memory for this input")
        except NotConverged as exc:
            _fail(EXIT_CHECK_FAILED, str(exc))


@click.group(cls=_Main)
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
    dpf, r_a, r_b = _canonicalize(pf)
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
    from . import css
    from .ree import ree_numeric

    rho = load_state(state)
    unit = 1.0 / math.log(2.0) if bits else 1.0
    tag = None if method == "auto" else css.classify(rho)
    # a separable state of any family is its own CSS, route "ppt"
    if method == "geometric" and tag.kind is css.FamilyKind.OTHER and not is_ppt(rho):
        _fail(EXIT_UNSUPPORTED, "state is outside the solvable families")
    if method == "numeric":
        rep = ree_numeric(rho)
        value, sigma = rep.value, rep.css_numeric
        payload = {"method": "numeric", "converged": rep.converged,
                   "lower": rep.lower * unit, "gap": rep.gap * unit}
    else:
        result = css.css_auto(rho)
        tag, value, sigma = result.family, result.ree, result.css
        payload = {
            "method": (result.route if result.route in ("maximally-correlated", "reverse-map")
                       else "geometric" if result.geometric else "numeric-fallback"),
            "lambdas": list(tag.lambdas) if tag.lambdas else None,
            "separable": result.separable,
            "tau": result.tau.tolist(),
            "residuals": {k: (None if math.isnan(v) else v)
                          for k, v in result.residuals.items()},
        }
    _emit({**payload, "family": tag.kind.value, "ree": value * unit,
           "units": "bits" if bits else "nats", "css": matrix_json(sigma)}, out)
    if method == "numeric" and not rep.converged:
        _fail(EXIT_CHECK_FAILED, "numeric bracket [lower, ree] is wider than its tolerance")


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
    from . import geometry

    mesh = geometry.surface_mesh(body, r, s, n, psd_tol=tol)
    _write_csv(out, "q1,q2,q3,sheet",
               [(*pt, sheet) for pt, sheet in zip(mesh.points.tolist(), mesh.sheets.tolist())],
               "mesh points")


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
    from . import revmap

    rng = np.random.default_rng(seed)
    try:
        params = [revmap.sample_params_for_bloch(r, s, rng) for _ in range(families)]
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    rows = revmap.css_line_sweep(params, np.linspace(0.0, xmax, xsteps))
    _write_csv(out, "family_id,x,t1,t2,t3,tau1,tau2,tau3,r,s",
               [(row["family_id"], row["x"], *row["t"], *row["tau"], row["r"], row["s"])
                for row in rows], "sweep rows")


# --- verify suites ---------------------------------------------------------

def _residuals_ok(res) -> bool:
    """The closed-form CSS checks at CI's bounds on the CLI files: Bloch gap <= 1e-15,
    edge gap <= 1e-14 and, unless rho is separable, recovery gap <= 1e-9."""
    gaps = res.residuals
    return (gaps["bloch_gap"] <= 1e-15 and gaps["edge_gap"] <= 1e-14
            and (res.separable or gaps["recovery_gap"] <= 1e-9))


def _suite_families(seed: int) -> list[dict]:
    from . import css, geometry

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

    def sample_t():
        t = rng.uniform(-1, 1, size=3)
        while np.sum(np.abs(t)) <= 1.05 or not geometry.in_tetrahedron(t):
            t = rng.uniform(-1, 1, size=3)
        return t

    for name, build, sample in (("vp", css.css_vp, sample_lam),
                                ("horodecki", css.css_horodecki, lambda: sample_lam(True)),
                                ("bell_diagonal", css.css_bell_diagonal, sample_t)):
        for i in range(5):
            checks.append({"name": f"{name}_residuals_{i}", "ok": _residuals_ok(build(sample()))})
    return checks


def _suite_revmap(seed: int) -> list[dict]:
    from . import revmap

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
    from .ree import ree_numeric

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


SUITES = {"families": _suite_families, "revmap": _suite_revmap,
          "oracle": lambda seed: _suite_oracle()}


@main.command()
@click.option("--suite", type=click.Choice([*SUITES, "all"]), default="all",
              show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="JSON report path.")
def verify(suite, seed, out):
    """Run internal consistency suites; exit 0 iff every check passes."""
    checks = [c for name, run in SUITES.items() if suite in (name, "all") for c in run(seed)]

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


def run():
    """The `reegeom` command: `main` with every object alive by now frozen
    (`gc.freeze`), so that neither a collection during the command nor the
    one at interpreter exit walks numpy's and the imported modules' objects."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
