"""The four benchmark workloads: seeded inputs, the timed call into reegeom,
and the check of its output against `reference`.

Every workload is a closed loop with one caller.  Inputs come in cycles of
fixed composition and size, so a run always measures the same mix of input
kinds and sizes and only the drawn parameters depend on the seed.  An
`Op.run` makes only the calls a user would make; the work of checking stays
in `Op.check`.  Calls go through module attributes (`css.css_auto`, not a
bound name) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import reference as ref
from reegeom import css, geometry, qstate, ree, revmap

PHI_PLUS_T = np.array([1.0, -1.0, 1.0])  # correlation vector of |Phi+>


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    inputs: tuple = ()  # the generated data the op is a function of
    traced: Callable | None = None  # run(tracer) for ops that leave the process


@dataclass
class Context:
    """Where a run may write, and the environment for child processes."""

    work: str
    env: dict


# --- input generators --------------------------------------------------------

def _bell_t(rng, entangled: bool):
    while True:
        t = rng.uniform(-1, 1, size=3)
        if not geometry.in_tetrahedron(t):
            continue
        norm1 = float(np.sum(np.abs(t)))
        if (entangled and norm1 > 1.05) or (not entangled and norm1 < 0.95):
            return t


def _ray_target(rng):
    """An entangled Bell-diagonal point on the segment from a tetrahedron
    vertex to a point near the origin, so the ray from that vertex through
    it passes the separable body near a face centre."""
    vertex = np.array(list(geometry.TETRA_VERTICES.values()))[rng.integers(4)]
    centre = rng.uniform(-0.1, 0.1, size=3)
    return vertex + rng.uniform(0.3, 0.6) * (centre - vertex)


def _weights(rng, entangled: bool, horodecki: bool):
    while True:
        lam = tuple(float(x) for x in rng.dirichlet([1, 1, 1]))
        if lam[0] <= 0.1:
            continue
        if not horodecki:
            return lam
        margin = lam[0] ** 2 - 4 * lam[1] * lam[2]
        if (entangled and margin > 5e-3) or (not entangled and margin < -5e-3):
            return lam


def family_member(kind: str, rng) -> dict:
    """A rotated member of a solvable family with its unrotated template REE."""
    if kind in ("bell", "bell_sep"):
        family, params = "BellDiagonal", _bell_t(rng, kind == "bell")
        rho0 = ref.bell_diagonal(params)
    elif kind == "werner":
        family, params = "BellDiagonal", rng.uniform(0.4, 0.95) * PHI_PLUS_T
        rho0 = ref.bell_diagonal(params)
    elif kind == "vp":
        family, params = "GeneralizedVP", _weights(rng, True, False)
        rho0 = ref.vp_state(params)
    else:
        family = "GeneralizedHorodecki"
        params = _weights(rng, kind == "horodecki", True)
        rho0 = ref.horodecki_state(params)
    rho = ref.local_rotation(rho0, ref.haar_su2(rng), ref.haar_su2(rng))
    return {"kind": family, "params": params, "rho": rho,
            "ree": ref.template_ree(family, params)}


def x_state(rng) -> np.ndarray:
    """Entangled single-coherence X-state outside the VP and Horodecki slices."""
    while True:
        a, b1, b2, d = rng.dirichlet([1, 1, 1, 1])
        c = math.sqrt(a * d) * rng.uniform(0.3, 1.0)
        if c * c > b1 * b2 + 1e-3:
            m = np.diag([a, b1, b2, d]).astype(complex)
            m[0, 3] = m[3, 0] = c
            return m


def pure_state(rng) -> np.ndarray:
    """cos(theta)|00> + sin(theta)|11>, away from product and Bell states."""
    th = rng.uniform(0.15, math.pi / 4 - 0.05)
    v = np.array([math.cos(th), 0, 0, math.sin(th)], dtype=complex)
    return np.outer(v, v)


def generic_state(rng) -> np.ndarray:
    """Full-rank random state with a clearly negative partial transpose."""
    while True:
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        m /= np.trace(m).real
        if ref.min_pt_eig(m) < -0.02:
            return m


# --- workloads -----------------------------------------------------------------

class Workload:
    name = ""
    cycle_s = 1.0           # nominal seconds per cycle on 2 cores; sizes a run
    import_statement = "import reegeom"
    setup_code = ""         # warm-up run after the import in a fresh process
    fingerprint_ops = 0     # leading op outputs kept for `fingerprint`
    group = 1               # consecutive ops whose times add up to one sample
    # Ops run in this process: BLAS on one thread, and op times scaled by the
    # speed of the calibration kernel timed around them (see run.py).
    in_process = True

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def cycles(self, rng):
        """Endless stream of op lists, one per cycle."""
        index = 0
        while True:
            yield self.make_cycle(rng, index)
            index += 1

    def make_cycle(self, rng, index: int) -> list:
        raise NotImplementedError

    def fingerprint(self, results: list) -> dict:
        """sha256 of the first outputs, for the run record."""
        return {}


class SolveFamilies(Workload):
    """Closed-form `css_auto` on rotated members of the three families.

    An op is one batch of `members`, solved one state at a time.  A single
    state takes about 4 ms, and the slowest of thousands of such states
    measures the host's preemption stalls of a shared machine more than the
    program; a batch of 18 dilutes them.  Over ten runs of 9-state batches
    the 11th-largest batch time moved by 32% (quartile distance over median),
    and the 11th-largest sum of two consecutive batches by 15%.
    """

    name = "solve-families"
    members = ("bell", "vp", "horodecki", "bell", "vp", "horodecki",
               "werner", "bell_sep", "horodecki_sep") * 2
    cycle_s = 0.08
    setup_code = "reegeom.css_auto(reegeom.bell_diagonal([0.9, -0.8, 0.7]))"
    fingerprint_ops = 5

    def make_cycle(self, rng, index):
        expected = [family_member(kind, rng) for kind in self.members]
        rhos = [e["rho"] for e in expected]

        def check(results):
            return [f"{kind}: {fail}" for kind, e, res in zip(self.members, expected, results)
                    for fail in ref.check_family_solve(e, res)]

        return [Op("batch", lambda: [css.css_auto(rho) for rho in rhos], check,
                   tuple(rhos))]

    def fingerprint(self, results):
        rounded = [[round(float(r.ree), 10),
                    np.round(np.asarray(r.css), 8).real.tolist(),
                    np.round(np.asarray(r.css), 8).imag.tolist()]
                   for batch in results if batch is not None for r in batch]
        blob = json.dumps(rounded).encode()
        return {"solve-families.rounded": hashlib.sha256(blob).hexdigest()}


class SolveCertified(Workload):
    """Criterion-3 inner loop on family states; numeric fallback otherwise.

    A cycle is six states, one of each kind in `members`, each its own op,
    and the six times add up to one latency sample (`group`).  The kinds
    differ in cost by up to 4x (VP about 0.25 s, Horodecki about 1 s), so
    the median of per-state latencies would fall between kind clusters;
    every cycle holds the same mix.  Timing the states one by one puts the
    calibration kernel between them, every 0.6 s instead of every 3.5 s.
    """

    name = "solve-certified"
    members = ("bell", "vp", "horodecki", "x_state", "pure", "generic")
    group = len(members)
    cycle_s = 3.5
    setup_code = ("rho = reegeom.bell_diagonal([0.9, -0.8, 0.7]); reegeom.css_auto(rho); "
                  "reegeom.ree_numeric(rho, reegeom.OracleConfig(restarts=1, "
                  "max_iterations=20))")

    def make_cycle(self, rng, index):
        ops = []
        for kind in self.members:
            if kind in ("bell", "vp", "horodecki"):
                rho = family_member(kind, rng)["rho"]
                control = index == 0 and kind == "horodecki"
                ops.append(self._certified(kind, rho, int(rng.integers(2 ** 31)), control))
            else:
                rho0 = {"x_state": x_state, "pure": pure_state,
                        "generic": generic_state}[kind](rng)
                rho = ref.local_rotation(rho0, ref.haar_su2(rng), ref.haar_su2(rng))
                ops.append(self._fallback(kind, rho))
        return ops

    @staticmethod
    def _certified(kind, rho, oracle_seed, control):
        def run():
            res = css.css_auto(rho)
            num = ree.ree_numeric(rho, ree.OracleConfig(seed=oracle_seed))
            cert = ree.directional_optimality_check(rho, res.css, n_directions=64)
            return res, num, cert

        def check(out):
            res, num, cert = out
            fails = ref.check_certified_family(rho, res, num.value, cert)
            if control and not planted_css_rejected(rho, res, num.value):
                fails.append("checker accepted the planted wrong CSS")
            return fails

        return Op(kind, run, check, (rho, oracle_seed))

    @staticmethod
    def _fallback(kind, rho):
        return Op(kind, lambda: css.css_auto(rho),
                  lambda res: ref.check_numeric_solve(rho, res, pure=kind == "pure"),
                  (rho,))


def planted_css_rejected(rho, res, oracle_value) -> bool:
    """Negative control: the Horodecki CSS mixed 1% with I/4 must fail the
    family check, although the sampled certificate passes it."""
    wrong = 0.99 * res.css + 0.01 * np.eye(4) / 4
    planted = css.CssResult(css=wrong, tau=res.tau, family=res.family,
                            ree=ref.relative_entropy(rho, wrong)[0],
                            residuals=res.residuals)
    cert = ree.directional_optimality_check(rho, wrong, n_directions=64)
    return bool(ref.check_certified_family(rho, planted, oracle_value, cert))


class GeometryExport(Workload):
    """One pass of the figure datasets: meshes, ray crossings, sweeps.

    A cycle is five passes of the fixed sizes in `sizes` (mesh resolution n,
    rays, families); the seed draws (r, s), the rays and the families.
    Passes of a single size would all take the same time, so their median
    would jump between the speed levels a shared machine moves through; over
    sizes that span about 4x in time the median follows a change in speed
    smoothly.
    """

    name = "geometry-export"
    sizes = ((32, 1, 4), (48, 2, 6), (64, 2, 8), (80, 3, 10), (96, 3, 12))
    cycle_s = 2.5
    x_grid = np.linspace(0.0, 2.5, 50)
    setup_code = "reegeom.surface_mesh('L', 0.1, 0.1, 16)"

    def make_cycle(self, rng, index):
        return [self._export(rng, *size) for size in self.sizes]

    def _export(self, rng, n, n_rays, n_families):
        r, s = rng.uniform(-0.3, 0.3, size=2)
        rays = [_ray_target(rng) for _ in range(n_rays)]
        params = [revmap.sample_params_for_bloch(r, s, rng) for _ in range(n_families)]
        grid = self.x_grid

        def run():
            return {"zero": {b: geometry.surface_mesh(b, 0.0, 0.0, n) for b in "TL"},
                    "deformed": {b: geometry.surface_mesh(b, r, s, n) for b in "TL"},
                    "rays": [geometry.line_surface_crossing(t, geometry.nearest_vertex(t), r, s)
                             for t in rays],
                    "rows": revmap.css_line_sweep(params, grid),
                    "lines": {(i, i + 1): revmap.line_crossing(params[i], params[i + 1])
                              for i in range(len(params) - 1)}}

        def check(out):
            fails = []
            for body, mesh in out["zero"].items():
                fails += ref.check_zero_bloch_mesh(body, mesh.points)
            for body, mesh in out["deformed"].items():
                fails += ref.check_boundary_mesh(body, r, s, mesh.points)
            for crossings in out["rays"]:
                fails += ref.check_crossings(r, s, [c.coords for c in crossings])
            return fails + ref.check_sweep(out["rows"], out["lines"])

        return Op("export", run, check, (r, s, n, rays, params))


class CliCold(Workload):
    """Fresh `python -m reegeom.cli` processes, one at a time; a cycle runs
    the five subcommands once each."""

    name = "cli-cold"
    # The ops are child processes in the user's environment, mostly imports.
    # A kernel timed in this process between them did not track their speed:
    # scaled spreads came out wider than raw ones.
    in_process = False
    cycle_s = 4.2
    import_statement = "import reegeom.cli"
    surface_n = 48
    sweep_families = 8
    sweep_steps = 50
    setup_code = "reegeom.cli.matrix_json(reegeom.bell_diagonal([0.9, -0.8, 0.7]))"

    def make_cycle(self, rng, index):
        kind = ("bell", "vp", "horodecki")[index % 3]
        rho = family_member(kind, rng)["rho"]
        stem = f"c{index}"
        files = {k: f"{stem}_{k}" for k in
                 ("state.json", "pauli.json", "css.json", "rebuilt.json",
                  "sweep.csv", "mesh.csv")}
        with open(os.path.join(self.ctx.work, files["state.json"]), "w") as fh:
            json.dump({"re": rho.real.tolist(), "im": rho.imag.tolist()}, fh)
        r, s = (float(x) for x in rng.uniform(-0.3, 0.3, size=2))
        sweep_seed = int(rng.integers(2 ** 31))
        body = "TL"[index % 2]
        return [
            self._op("decompose", ["decompose", files["state.json"], "--out",
                                   files["pauli.json"]],
                     lambda: self._check_decompose(rho, files["pauli.json"]), rho),
            self._op("css", ["css", files["state.json"], "--method", "auto",
                             "--out", files["css.json"]],
                     lambda: self._check_css(rho, files["css.json"]), rho),
            self._op("reconstruct", ["reconstruct", files["pauli.json"], "--out",
                                     files["rebuilt.json"]],
                     lambda: self._check_reconstruct(rho, files["rebuilt.json"]), rho),
            self._op("sweep", ["sweep", "--r", repr(r), "--s", repr(s),
                               "--families", str(self.sweep_families),
                               "--xsteps", str(self.sweep_steps),
                               "--seed", str(sweep_seed), "--out", files["sweep.csv"]],
                     lambda: self._check_sweep(r, s, sweep_seed, files["sweep.csv"]), rho),
            self._op("surface", ["surface", "--body", body, "--r", repr(r),
                                 "--s", repr(s), "--n", str(self.surface_n),
                                 "--out", files["mesh.csv"]],
                     lambda: self._check_surface(body, r, s, files["mesh.csv"]), rho),
        ]

    def _op(self, kind, args, compare, rho):
        def check(proc):
            if proc.returncode != 0:
                return [f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"]
            return compare()

        return Op(kind, lambda: self._spawn([sys.executable, "-m", "reegeom.cli"] + args),
                  check, (args, rho), lambda tracer: self._spawn_traced(tracer, args))

    def _spawn(self, argv):
        return subprocess.run(argv, cwd=self.ctx.work, env=self.ctx.env,
                              capture_output=True, text=True, timeout=120)

    def _spawn_traced(self, tracer, args):
        """The same command in `cli_child.py`, which traces every layer."""
        dump = os.path.join(self.ctx.work, "trace.json")
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        t0 = perf_counter()
        proc = self._spawn([sys.executable, child, dump] + args)
        wall = perf_counter() - t0
        if proc.returncode == 0:
            with open(dump) as fh:
                data = json.load(fh)
            tracer.merge(data)
            # interpreter start-up and the child's own bookkeeping
            tracer.self_s["bench.op"] += wall - sum(data["self_s"].values())
        tracer.wall_s += wall
        return proc

    def _path(self, name):
        return os.path.join(self.ctx.work, name)

    def _check_decompose(self, rho, out):
        with open(self._path(out)) as fh:
            got = json.load(fh)
        pf = qstate.to_pauli(rho)
        fails = _compare("decompose r", got["r"], pf.r)
        fails += _compare("decompose s", got["s"], pf.s)
        fails += _compare("decompose g", got["g"], pf.g)
        fails += _compare("decompose eigenvalues", got["eigenvalues"],
                          np.linalg.eigvalsh(rho))
        fails += _compare("decompose concurrence", got["concurrence"],
                          qstate.concurrence(rho))
        return fails

    def _check_css(self, rho, out):
        with open(self._path(out)) as fh:
            got = json.load(fh)
        res = css.css_auto(rho)
        fails = _compare("css ree", got["ree"], res.ree)
        fails += _compare("css matrix", np.array(got["css"]["re"]) + 1j * np.array(got["css"]["im"]),
                          res.css)
        if got["family"] != res.family.kind.value:
            fails.append(f"css family {got['family']} != {res.family.kind.value}")
        return fails

    def _check_reconstruct(self, rho, out):
        with open(self._path(out)) as fh:
            got = json.load(fh)
        return _compare("reconstruct", np.array(got["re"]) + 1j * np.array(got["im"]),
                        rho)

    def _check_sweep(self, r, s, seed, out):
        rng = np.random.default_rng(seed)
        params = [revmap.sample_params_for_bloch(r, s, rng)
                  for _ in range(self.sweep_families)]
        # 2.5 is the CLI's default --xmax
        want = revmap.css_line_sweep(params, np.linspace(0.0, 2.5, self.sweep_steps))
        with open(self._path(out)) as fh:
            got = list(csv.DictReader(fh))
        if len(got) != len(want):
            return [f"sweep has {len(got)} rows, in-process {len(want)}"]
        table = np.array([[float(row[k]) for k in ("x", "t1", "t2", "t3", "tau1",
                                                  "tau2", "tau3", "r", "s")]
                          for row in got])
        expect = np.array([[w["x"], *w["t"], *w["tau"], w["r"], w["s"]] for w in want])
        return _compare("sweep rows", table, expect)

    def _check_surface(self, body, r, s, out):
        mesh = geometry.surface_mesh(body, r, s, self.surface_n)
        with open(self._path(out)) as fh:
            got = list(csv.DictReader(fh))
        if len(got) != len(mesh.points):
            return [f"surface has {len(got)} points, in-process {len(mesh.points)}"]
        fails = _compare("surface points",
                         np.array([[float(row[k]) for k in ("q1", "q2", "q3")] for row in got]),
                         mesh.points)
        if [row["sheet"] for row in got] != list(mesh.sheets):
            fails.append("surface sheet tags differ from in-process")
        return fails

    def fingerprint(self, results):
        digests = {}
        for name in sorted(os.listdir(self.ctx.work)):
            if name.startswith("c0_"):
                with open(self._path(name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests


def _compare(what, got, want, tol=ref.MATCH_TOL) -> list:
    diff = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return [] if diff <= tol else [f"{what} differs from in-process by {diff:.1e}"]


WORKLOADS = {w.name: w for w in (SolveFamilies, SolveCertified, GeometryExport, CliCold)}
