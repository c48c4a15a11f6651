"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail
line; the assertion carries the same condition so pytest reports match the
printed summary.
"""

import math
import time

import numpy as np

from reegeom import css, geometry, qstate, revmap, spectra
from reegeom.qstate import BELL_STATES
from reegeom.ree import (
    directional_optimality_check,
    ree_numeric,
    relative_entropy,
)

from conftest import (
    coordinate_spectra,
    entangled_random_state,
    generic_family_state,
    random_density_matrix,
    random_unitary,
    rotate,
)

LN2 = math.log(2.0)


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_bell_state_ree():
    t0 = time.time()
    worst_geo, worst_num = 0.0, 0.0
    all_geometric = True
    for b in BELL_STATES:
        geo = css.css_auto(b)
        num = ree_numeric(b)
        all_geometric &= geo.geometric
        worst_geo = max(worst_geo, abs(geo.ree - LN2))
        worst_num = max(worst_num, abs(num.value - LN2))
    elapsed = time.time() - t0
    _report("criterion 1: Bell-state REE equals ln 2 on both routes",
            all_geometric and worst_geo <= 1e-12 and worst_num <= 1e-4 and elapsed < 5.0,
            f"geo err {worst_geo:.1e}, num err {worst_num:.1e}, {elapsed:.1f}s")


def test_criterion_2_face_property():
    # the octahedron face nearest the first Bell state gives exactly ln 2;
    # interiors of the other three vertex-facing faces give strictly more
    # (the entropy there is ln 2 - ln x with x < 1)
    t0 = time.time()
    b1 = BELL_STATES[0]
    # octahedron vertices e1, e2, e3, -e1, -e2, -e3 by row
    octa = np.vstack([np.eye(3), -np.eye(3)])
    faces = {
        "v1": [0, 4, 2],   # e1, -e2, e3
        "v2": [3, 1, 2],   # -e1, e2, e3
        "v3": [0, 1, 5],   # e1, e2, -e3
        "v4": [3, 4, 5],   # -e1, -e2, -e3
    }

    def barycentric_grid(n_side):
        for i in range(1, n_side):
            for j in range(1, n_side - i):
                a, b = i / n_side, j / n_side
                yield a, b, 1.0 - a - b

    def entropy_at(face, a, b, c):
        vs = octa[faces[face]]
        tau = a * vs[0] + b * vs[1] + c * vs[2]
        return relative_entropy(b1, qstate.bell_diagonal(tau))

    own = [entropy_at("v1", *w) for w in barycentric_grid(10)]
    assert len(own) >= 36
    own_err = max(abs(s - LN2) for s in own)
    others_min = min(entropy_at(f, *w)
                     for f in ("v2", "v3", "v4") for w in barycentric_grid(10))
    elapsed = time.time() - t0
    _report("criterion 2: ln 2 on the facing octahedron face, larger elsewhere",
            own_err <= 1e-12 and others_min > LN2 and elapsed < 5.0,
            f"face err {own_err:.1e}, other-face min {others_min:.4f} > ln2, "
            f"{elapsed:.1f}s")


def test_criterion_3_family_cross_validation():
    t0 = time.time()
    rng = np.random.default_rng(100)

    def sample(family):
        while True:
            if family == "bell":
                t = rng.uniform(-1, 1, size=3)
                if geometry.in_tetrahedron(t) and np.sum(np.abs(t)) > 1.05:
                    return qstate.bell_diagonal(t)
            elif family == "vp":
                lam = rng.dirichlet([1, 1, 1])
                if lam[0] > 0.1:
                    return css._vp_state(tuple(lam))
            else:
                lam = rng.dirichlet([1, 1, 1])
                if lam[0] ** 2 > 4 * lam[1] * lam[2] + 5e-3 and lam[0] > 0.1:
                    return css._horodecki_state(tuple(lam))

    # the certificate c is exact: >= -1e-8 at each CSS, and <= -excess at the
    # planted 0.99 css + 0.01 I/4, whose REE is excess too high
    worst = {"bloch": 0.0, "edge": 0.0, "gap": 0.0, "deriv": math.inf, "planted": -math.inf}
    n_per_family = 100
    for family in ("bell", "vp", "horodecki"):
        for _ in range(n_per_family):
            rho0 = sample(family)
            rho = rotate(rho0, random_unitary(rng), random_unitary(rng))
            res = css.css_auto(rho)
            rng.integers(2 ** 31)  # a former oracle seed: keeps the later states as they were
            num = ree_numeric(rho)
            worst["bloch"] = max(worst["bloch"], res.residuals["bloch_gap"])
            worst["edge"] = max(worst["edge"],
                                abs(qstate.validate_density_matrix(res.css)[0][1, 0]))
            worst["gap"] = max(worst["gap"], abs(res.ree - num.value))
            worst["deriv"] = min(worst["deriv"], directional_optimality_check(rho, res.css))
            planted = 0.99 * res.css + 0.01 * np.eye(4) / 4
            excess = relative_entropy(rho, planted) - res.ree
            worst["planted"] = max(worst["planted"],
                                   directional_optimality_check(rho, planted) + excess)
    elapsed = time.time() - t0
    _report("criterion 3: geometric CSS cross-validated on 300 family states",
            worst["bloch"] <= 1e-10 and worst["edge"] <= 1e-8
            and worst["gap"] <= 2e-4 and worst["deriv"] >= -1e-8
            and worst["planted"] <= 0 and elapsed < 600.0,
            f"bloch {worst['bloch']:.1e}, edge {worst['edge']:.1e}, "
            f"ree gap {worst['gap']:.1e}, min deriv {worst['deriv']:.1e}, "
            f"planted margin {-worst['planted']:.1e}, {elapsed:.0f}s")


def test_criterion_4_reverse_map_recovery():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    n_vp = n_h = 0
    while n_vp < 100 or n_h < 100:
        lam = tuple(rng.dirichlet([1, 1, 1]))
        if n_vp < 100 and lam[0] > 0.02:
            rho, sigma = css._vp_state(lam), css.css_vp(lam).css
            worst = max(worst, float(np.max(np.abs(revmap.recover(sigma, rho) - rho))))
            n_vp += 1
        if n_h < 100 and lam[0] ** 2 > 4 * lam[1] * lam[2] + 1e-3:
            rho, sigma = css._horodecki_state(lam), css.css_horodecki(lam).css
            worst = max(worst, float(np.max(np.abs(revmap.recover(sigma, rho) - rho))))
            n_h += 1
    elapsed = time.time() - t0
    _report("criterion 4: reverse map rebuilds both solvable families",
            worst <= 1e-9 and elapsed < 60.0,
            f"worst recovery gap {worst:.1e}, {elapsed:.1f}s")


def test_criterion_5_dual_route_equality():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(500):
        p = revmap.sample_params_for_bloch(rng.uniform(-0.4, 0.4),
                                           rng.uniform(-0.4, 0.4), rng)
        for x in (0.0, 0.05, 0.1):
            gap = np.max(np.abs(revmap.z_family(p, x)
                                - revmap.family_from_css(p.matrix(), x)))
            worst = max(worst, float(gap))
    elapsed = time.time() - t0
    _report("criterion 5: closed-form family matches the generator route",
            worst <= 1e-10 and elapsed < 60.0,
            f"worst gap {worst:.1e} over 500 edge states, {elapsed:.1f}s")


def test_criterion_6_geometry_degeneration():
    t0 = time.time()
    mesh_t = geometry.surface_mesh("T", 0.0, 0.0, 64)
    worst_t = max(min(abs(float(n @ p) - 1.0)
                      for n in geometry.TETRA_FACE_NORMALS)
                  for p in mesh_t.points)
    mesh_l = geometry.surface_mesh("L", 0.0, 0.0, 64)
    worst_l = float(np.max(np.abs(np.sum(np.abs(mesh_l.points), axis=1) - 1.0)))
    elapsed = time.time() - t0
    _report("criterion 6: zero-Bloch meshes recover tetrahedron and octahedron",
            worst_t <= 1e-8 and worst_l <= 1e-8 and elapsed < 10.0,
            f"tetra dev {worst_t:.1e}, octa dev {worst_l:.1e}, {elapsed:.1f}s")


def test_criterion_7_line_crossings():
    t0 = time.time()
    a, b = 0.21, 0.13
    _, _, mu = revmap.line_crossing(
        revmap.SigmaZParams(a, 0.5 - a, 0.5 - a, a),
        revmap.SigmaZParams(b, 0.5 - b, 0.5 - b, b))
    bd_err = float(np.max(np.abs(mu - [1.0, 1.0, -1.0])))

    rng = np.random.default_rng(103)
    vertices = list(geometry.TETRA_VERTICES.values())
    min_vertex_dist = math.inf
    n_pairs = 0
    while n_pairs < 100:
        r, s = rng.uniform(0.05, 0.3, size=2) * rng.choice([-1, 1], size=2)
        p1 = revmap.sample_params_for_bloch(r, s, rng)
        p2 = revmap.sample_params_for_bloch(r, s, rng)
        try:
            _, _, mu = revmap.line_crossing(p1, p2)
        except revmap.ParallelLines:
            continue
        min_vertex_dist = min(min_vertex_dist,
                              min(float(np.max(np.abs(mu - v)))
                                  for v in vertices))
        n_pairs += 1
    elapsed = time.time() - t0
    _report("criterion 7: only zero-Bloch family lines pass a vertex",
            bd_err <= 1e-10 and min_vertex_dist > 1e-3 and elapsed < 10.0,
            f"vertex hit err {bd_err:.1e}, generic min vertex dist "
            f"{min_vertex_dist:.2e}, {elapsed:.1f}s")


def test_criterion_8_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(104)
    ok = True
    notes = []

    # Pauli round trip
    worst = max(float(np.max(np.abs(
        qstate.from_pauli(qstate.to_pauli(rho)) - rho)))
        for rho in (random_density_matrix(rng) for _ in range(200)))
    ok &= worst < 1e-12
    notes.append(f"roundtrip {worst:.0e}")

    # PPT iff zero concurrence on 1000 random states
    mism = 0
    for _ in range(1000):
        rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
        if qstate.is_ppt(rho) != (qstate.concurrence(rho) < 1e-7):
            mism += 1
    ok &= mism == 0
    notes.append(f"ppt/concurrence mismatches {mism}")

    # dual-route equality and straightness of the families
    worst = 0.0
    for _ in range(50):
        p = revmap.sample_params_for_bloch(rng.uniform(-0.3, 0.3),
                                           rng.uniform(-0.3, 0.3), rng)
        for x in (0.0, 0.05, 0.1):
            worst = max(worst, float(np.max(np.abs(
                revmap.z_family(p, x)
                - revmap.family_from_css(p.matrix(), x)))))
        chord = (revmap.z_family(p, 0.0) + revmap.z_family(p, 0.2)) / 2
        worst = max(worst, float(np.max(np.abs(chord - revmap.z_family(p, 0.1)))))
    ok &= worst <= 1e-10
    notes.append(f"dual/straight {worst:.0e}")

    # closed-form smallest branches of rho (q2) and rho^Gamma (-q2) vs dense solver
    worst = 0.0
    for _ in range(300):
        r, s, q1, q2, q3 = rng.uniform(-1, 1, size=5)
        m = qstate.from_pauli(qstate.PauliForm(np.array([0, 0, r]), np.array([0, 0, s]),
                                                np.diag([q1, q2, q3])))
        worst = max(worst,
                    abs(spectra.branch_min(r, s, q1, q2, q3) - np.linalg.eigvalsh(m)[0]),
                    abs(spectra.branch_min(r, s, q1, -q2, q3)
                        - np.linalg.eigvalsh(qstate.partial_transpose(m))[0]))
    ok &= worst < 1e-12
    notes.append(f"spectra {worst:.0e}")

    # finite-difference check of the minimizer gradient, at the Pauli
    # coordinates of a strictly PPT state
    from reegeom import ree as ree_mod
    rho = random_density_matrix(rng)
    sigma = 0.3 * random_density_matrix(rng) + 0.7 * np.eye(4) / 4
    x = (qstate.PAULI_BASIS.conj() @ sigma.reshape(16)).real[1:]
    mu = 1e-3
    jac, _, _ = ree_mod._derivatives(rho, mu, *coordinate_spectra(x))
    h, worst = 1e-6, 0.0
    for i in range(len(x)):
        xp = x.copy()
        xp[i] += h
        fp = ree_mod._value(rho, mu, *coordinate_spectra(xp))
        xp[i] -= 2 * h
        fm = ree_mod._value(rho, mu, *coordinate_spectra(xp))
        worst = max(worst, abs((fp - fm) / (2 * h) - jac[i])
                    / max(1.0, abs(jac[i])))
    ok &= worst <= 1e-6 * 10
    notes.append(f"gradient {worst:.0e}")

    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _report("criterion 8: module property suite under fixed seed", bool(ok),
            ", ".join(notes) + f", {elapsed:.0f}s")


def test_criterion_10_generic_states_with_exact_css():
    # generic entangled states built backwards from their exact CSS sigma by
    # the reverse map, so the exact REE is S(rho || sigma): the oracle's
    # bracket must hold it with lower at least 1e-9 below (the barrier's slack,
    # which stands in for a rounding allowance; if a change shrinks it until
    # this fails, an allowance must be reconsidered), and both numeric routes
    # must return sigma
    t0 = time.time()
    rng = np.random.default_rng(105)
    all_other = all_converged = True
    above, below, css_err = [], [], 0.0
    for _ in range(100):
        rho, sigma = generic_family_state(rng)
        exact = relative_entropy(rho, sigma)
        num = ree_numeric(rho)
        res = css.css_auto(rho)
        all_other &= res.family.kind is css.FamilyKind.OTHER
        all_converged &= num.converged
        above.append(num.value - exact)
        below.append(num.lower - exact)
        css_err = max(css_err, float(np.max(np.abs(num.css_numeric - sigma))),
                      float(np.max(np.abs(res.css - sigma))))
    elapsed = time.time() - t0
    _report("criterion 10: the oracle brackets the exact REE of 100 generic states",
            all_other and all_converged and max(below) <= -1e-9
            and 0.0 <= min(above) and max(above) <= 1e-8 and css_err <= 1e-7
            and elapsed < 5.0,
            f"value - exact in [{min(above):.1e}, {max(above):.1e}], "
            f"lower - exact <= {max(below):.1e}, css err {css_err:.1e}, {elapsed:.1f}s")


def test_criterion_11_maximally_correlated_states(monkeypatch):
    # rotated a|00><00| + b|11><11| + z(|00><11| + h.c.), a third of them pure
    # (z^2 = ab): the VP closed form diag(a, 0, 0, b) is their exact CSS
    # (Rains 1999), with REE S(diag(a, b)) - S(rho), and no oracle runs.
    # Those with z > min(a, b), l3 < -CLASSIFY_TOL in the template frame,
    # are outside the VP family and take the maximally correlated route
    def oracle(*args, **kwargs):
        raise AssertionError("css_auto called the oracle")

    def entropy(p):
        p = np.asarray(p)[np.asarray(p) > 0]
        return float(-(p * np.log(p)).sum())

    monkeypatch.setattr(css, "ree_numeric", oracle)
    t0 = time.time()
    rng = np.random.default_rng(11)
    routes_ok, n_mc, ree_err, outside = True, 0, 0.0, 0
    gaps = {"bloch_gap": [], "edge_gap": [], "recovery_gap": []}
    for n in range(300):
        a = rng.uniform()
        b = 1.0 - a
        z = math.sqrt(a * b) * (1.0 if n % 3 == 0 else rng.uniform())
        rho = rotate(css._vp_state((2 * z, a - z, b - z)), random_unitary(rng),
                     random_unitary(rng))
        res = css.css_auto(rho)
        mc = min(a, b) - z < -css.CLASSIFY_TOL
        n_mc += mc
        routes_ok &= (res.route == ("maximally-correlated" if mc else "vp")
                      and res.family.kind is (css.FamilyKind.OTHER if mc
                                              else css.FamilyKind.GENERALIZED_VP))
        root = math.sqrt((a - b) ** 2 + 4 * z * z)
        exact = entropy([a, b]) - entropy([(1 + root) / 2, (1 - root) / 2])
        ree_err = max(ree_err, abs(res.ree - exact))
        for name, values in gaps.items():
            values.append(res.residuals[name])
        if n % 5 == 0:
            num = ree_numeric(rho)
            outside += not (num.converged and num.lower <= res.ree <= num.value)
    elapsed = time.time() - t0
    gaps = {name: float(np.max(values)) for name, values in gaps.items()}  # NaN if any is
    _report("criterion 11: maximally correlated states in closed form, no oracle",
            routes_ok and 0 < n_mc < 300 and ree_err <= 1e-14
            and gaps["bloch_gap"] <= 1e-15 and gaps["edge_gap"] <= 1e-14
            and gaps["recovery_gap"] <= 1e-13 and outside == 0 and elapsed < 5.0,
            f"{n_mc} of 300 maximally correlated, REE err {ree_err:.1e}, "
            + ", ".join(f"{k} {v:.1e}" for k, v in gaps.items())
            + f", {outside} of 60 outside the oracle bracket, {elapsed:.1f}s")


def test_criterion_12_reverse_map_route(monkeypatch):
    # css_auto's Newton solve of the reverse map on 300 entangled random
    # states of rank 2-4, 300 generic states with a known CSS and 200
    # rotated X states (Dirichlet diagonal, coherences uniform within their
    # PSD bounds, entangled, lambda_min(rho) > 1e-6): every state on route
    # "reverse-map" ran no oracle, stopped at x > 0 with |F|_2 <= 1e-12,
    # sits on the PPT edge and rebuilds rho within 1e-12, has certificate
    # c >= -1e-10, lies 0 to 2e-9 below the oracle's value, and for the
    # generic states is the generating sigma within 1e-12; the Jacobians of
    # each failed solve, and of all solves, are reported.  The solved shares
    # are pinned: a stop at |F|_2 < 1e-14 instead of the rounding floor
    # lost four random states at RANK_FLOOR 1e-4, whose floors are 1.0e-14 to
    # 1.0e-13.  So is the count of failed solves, 0: the 35 random states left
    # converge to a CSS below RANK_FLOOR, and none runs out of NEWTON_STEPS
    def x_state(rng):
        while True:
            d = rng.dirichlet(np.ones(4))
            rho = np.diag(d).astype(complex)
            for i, j in ((0, 3), (1, 2)):
                phase = np.exp(2j * math.pi * rng.uniform())
                rho[i, j] = math.sqrt(d[i] * d[j]) * rng.uniform() * phase
                rho[j, i] = np.conj(rho[i, j])
            if not qstate.is_ppt(rho) and np.linalg.eigvalsh(rho)[0] > 1e-6:
                return rotate(rho, random_unitary(rng), random_unitary(rng)), None

    ends, oracle_calls, shares = [], [], {}
    newton, oracle = revmap._newton, css.ree_numeric
    monkeypatch.setattr(revmap, "_newton", lambda *args: ends.append(newton(*args)) or ends[-1])
    monkeypatch.setattr(css, "ree_numeric", lambda rho: oracle_calls.append(rho) or oracle(rho))
    t0 = time.time()
    ok, notes, failed, jacobians = True, [], [], 0
    for name, draw, count, seed in (("random", lambda rng: (entangled_random_state(rng), None),
                                     300, 42),
                                    ("generic", generic_family_state, 300, 5),
                                    ("X", x_state, 200, 0)):
        rng = np.random.default_rng(seed)
        solved, worst = 0, {"F": 0.0, "edge": 0.0, "recovery": 0.0, "sigma": 0.0,
                            "c": 0.0, "excess": [math.inf, -math.inf]}
        for _ in range(count):
            rho, sigma = draw(rng)
            ends.clear(), oracle_calls.clear()
            res = css.css_auto(rho)
            end = ends[-1]
            jacobians += end.jacobians
            if res.route != "reverse-map":
                if not end.converged:
                    failed.append(end.jacobians)
                continue
            solved += 1
            num = ree_numeric(rho)
            excess = num.value - res.ree
            c = directional_optimality_check(rho, res.css)
            ok &= (not oracle_calls and end.x > 0 and num.lower <= res.ree
                   and end.residual <= 1e-12 and res.residuals["edge_gap"] <= 1e-12
                   and res.residuals["recovery_gap"] <= 1e-12 and c >= -1e-10
                   and 0.0 <= excess <= 2e-9)
            for key, value in (("F", end.residual), ("edge", res.residuals["edge_gap"]),
                               ("recovery", res.residuals["recovery_gap"]), ("c", -c)):
                worst[key] = max(worst[key], value)
            worst["excess"] = [min(worst["excess"][0], excess), max(worst["excess"][1], excess)]
            if sigma is not None:
                worst["sigma"] = max(worst["sigma"], float(np.max(np.abs(res.css - sigma))))
        ok &= worst["sigma"] <= 1e-12
        shares[name] = solved
        notes.append(f"{name} {solved}/{count} solved, |F| {worst['F']:.0e}, "
                     f"edge {worst['edge']:.0e}, recovery {worst['recovery']:.0e}, "
                     f"c >= {-worst['c']:.0e}, excess {worst['excess'][0]:.2e}-"
                     f"{worst['excess'][1]:.2e}"
                     + (f", sigma err {worst['sigma']:.0e}" if name == "generic" else ""))
    elapsed = time.time() - t0
    _report("criterion 12: route reverse-map solves the reverse map exactly",
            bool(ok) and shares == {"random": 265, "generic": 300, "X": 200}
            and len(failed) == 0 and elapsed < 60.0,
            "; ".join(notes) + f"; Jacobians of the failed solves {sorted(failed)}, "
            f"{jacobians} in all, {elapsed:.1f}s")
