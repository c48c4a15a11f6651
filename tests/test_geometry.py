import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reegeom import css, geometry, qstate, spectra
from reegeom.errors import NoCrossing, OutsideTetrahedron
from reegeom.geometry import Vertex
from reegeom.qstate import PSD_TOL


def _modulus(a, b):
    """|(a, b)| in the arithmetic of `spectra.moduli`: the loops below compare
    with it bit for bit, and at psd_tol = 0 a keep decision hangs on the last
    bit of a modulus."""
    return np.sqrt(a * a + b * b)


def _branch_min_scalar(r, s, q1, q2, q3):
    m1 = _modulus(r - s, q1 + q2)
    m2 = _modulus(r + s, q1 - q2)
    return min((1 - q3) - m1, (1 + q3) - m2) / 4.0


def _surface_candidates_loop(body, r, s, n):
    """Every sheet root of the per-point loop, as (point, sheet, branch) with
    the state's smallest branch at that point."""
    axis = np.linspace(-1.0, 1.0, n)
    out = []
    for q1 in axis:
        for q2 in axis:
            qq2 = q2 if body == "T" else -q2
            m1 = _modulus(r - s, q1 + qq2)
            m2 = _modulus(r + s, q1 - qq2)
            if not m1 + m2 <= 2.0 + 1e-12:
                continue
            for q3, sheet in ((1.0 - m1, "mu"), (m2 - 1.0, "nu")):
                out.append(([q1, q2, q3], sheet, _branch_min_scalar(r, s, q1, q2, q3)))
    return out


def surface_mesh_loop(body, r, s, n, psd_tol=1e-10, candidates=None):
    """The per-point loop that `surface_mesh` replaced, kept as its reference;
    `candidates` reuses the roots of an earlier `_surface_candidates_loop`."""
    if candidates is None:
        candidates = _surface_candidates_loop(body, r, s, n)
    kept = [(p, sheet) for p, sheet, branch in candidates if not branch < -psd_tol]
    pts = [p for p, _ in kept]
    return (np.array(pts) if pts else np.empty((0, 3))), [sheet for _, sheet in kept]


def _golden_max(f, a, b, tol):
    """Golden-section maximizer; robust at the kinks of the branch minimum."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def line_surface_crossing_loop(t, v, r, s, w_max=10.0, scan_step=1e-3, w_tol=1e-12):
    """The scan of w in [0, w_max], bisection of each sign change and
    golden-section refinement of each touch that `line_surface_crossing`
    replaced, kept as its reference; returns (coords, line_parameter, sheet)
    triples."""
    t = np.asarray(t, dtype=float)
    d = t - v.coords

    def f(w):
        p = v.coords + w * d
        return _branch_min_scalar(r, s, p[0], -p[1], p[2])

    ws = np.arange(0.0, w_max + scan_step, scan_step)
    vals = np.array([f(w) for w in ws])
    roots = []
    for i in range(len(ws) - 1):
        a, b, fa, fb = ws[i], ws[i + 1], vals[i], vals[i + 1]
        if fa == 0.0 and (i == 0 or vals[i - 1] != 0.0):
            roots.append(a)
        elif fa * fb < 0.0:
            while b - a > w_tol:
                m = 0.5 * (a + b)
                fm = f(m)
                if fa * fm <= 0.0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    for i in range(1, len(ws) - 1):
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1] and vals[i] < 0.0:
            w_star, f_star = _golden_max(f, ws[i - 1], ws[i + 1], w_tol)
            if f_star >= -1e-10:
                roots.append(w_star)
    crossings = []
    for root in sorted(roots):
        if any(abs(root - c[1]) < 1e-9 for c in crossings):
            continue
        q1, q2, q3 = p = v.coords + root * d
        sheet = "mu" if abs((1 - q3) - np.hypot(r - s, q1 - q2)) <= \
            abs((1 + q3) - np.hypot(r + s, q1 + q2)) else "nu"
        crossings.append((p, float(root), sheet))
    crossings.sort(key=lambda c: np.linalg.norm(c[0] - t))
    return crossings


def nearest_vertex_by_norm(t):
    """The min-norm rule that `nearest_vertex` replaced, kept as its
    reference: the label of the vertex v nearest to t by np.linalg.norm(t - v),
    ties by label."""
    return min(geometry.TETRA_VERTICES.items(),
               key=lambda kv: (np.linalg.norm(t - kv[1]), kv[0]))[0]


class TestTetrahedron:
    def test_vertices_inside(self):
        for v in geometry.TETRA_VERTICES.values():
            assert geometry.in_tetrahedron(v)

    def test_octahedron_inside(self):
        for o in np.vstack([np.eye(3), -np.eye(3)]):
            assert geometry.in_tetrahedron(o)

    def test_outside_point(self):
        assert not geometry.in_tetrahedron([1.0, 1.0, 1.0])

    def test_face_normals_touch_opposite_faces(self):
        # each vertex saturates n.t = 1 on exactly three of the four faces
        for v in geometry.TETRA_VERTICES.values():
            sat = sum(abs(float(n @ v) - 1.0) < 1e-14
                      for n in geometry.TETRA_FACE_NORMALS)
            assert sat == 3

    def test_nearest_vertex(self):
        assert geometry.nearest_vertex([0.9, -0.9, 0.9]).label == "v1"
        assert geometry.nearest_vertex([-0.9, 0.9, 0.9]).label == "v2"
        assert geometry.nearest_vertex([0.9, 0.9, -0.9]).label == "v3"
        assert geometry.nearest_vertex([-0.9, -0.9, -0.9]).label == "v4"

    def test_nearest_vertex_tie_break(self):
        # the origin is equidistant from all four; label order wins
        assert geometry.nearest_vertex([0.0, 0.0, 0.0]).label == "v1"

    def test_nearest_vertex_matches_the_norm_rule(self):
        """The largest Bell weight picks the vertex the min-norm rule picks,
        on 50,000 points drawn uniformly from the tetrahedron, and returns
        the one Vertex of that label."""
        rng = np.random.default_rng(5302)
        vertices = np.array(list(geometry.TETRA_VERTICES.values()))
        for t in rng.dirichlet(np.ones(4), size=50_000) @ vertices:
            got = geometry.nearest_vertex(t)
            assert got.label == nearest_vertex_by_norm(t)
            assert got.coords is geometry.TETRA_VERTICES[got.label]

    @pytest.mark.parametrize("t, label", [
        ([0.0, 0.0, 1.0], "v1"), ([1.0, 0.0, 0.0], "v1"), ([0.0, -1.0, 0.0], "v1"),
        ([0.0, 1.0, 0.0], "v2"), ([-1.0, 0.0, 0.0], "v2"), ([0.0, 0.0, -1.0], "v3"),
        ([-1 / 3, 1 / 3, -1 / 3], "v2"), ([1 / 3, -1 / 3, -1 / 3], "v1"),
        ([-1 / 3, -1 / 3, 1 / 3], "v1"), ([1 / 3, 1 / 3, 1 / 3], "v1")],
        ids=["edge-v1-v2", "edge-v1-v3", "edge-v1-v4", "edge-v2-v3", "edge-v2-v4",
             "edge-v3-v4", "face-not-v1", "face-not-v2", "face-not-v3", "face-not-v4"])
    def test_exact_ties_go_by_label(self, t, label):
        """Where Bell weights tie exactly, at the edge midpoints and the face
        centres as at the origin, the first tied label wins."""
        assert geometry.nearest_vertex(t).label == label

    # at (inf, -inf, inf) v1.t is inf and the other three NaN: a test by
    # min(v_k.t), which keeps its first operand against a NaN, reads inside
    @pytest.mark.parametrize("t", [[np.nan, 0.0, 0.0], [0.0, 0.0, np.nan], [np.nan] * 3,
                                   [np.inf, 0.0, 0.0], [np.inf, -np.inf, np.inf]])
    def test_non_finite_is_outside(self, t):
        assert geometry.in_tetrahedron(t) is False

    def test_just_past_a_face(self):
        """A face's tolerance is TETRA_TOL on n.t: a step along the face
        normal n from the face centre to n.t = 1 + TETRA_TOL / 2 stays
        inside, one to 1 + 2 TETRA_TOL is outside, and `nearest_vertex` says
        so."""
        for n in geometry.TETRA_FACE_NORMALS:
            centre = n / 3  # n.centre = 1
            assert geometry.in_tetrahedron(centre + n * (geometry.TETRA_TOL / 6))
            past = centre + n * (2 * geometry.TETRA_TOL / 3)
            assert not geometry.in_tetrahedron(past)
            with pytest.raises(OutsideTetrahedron):
                geometry.nearest_vertex(past)

    def test_nearest_vertex_outside_raises(self):
        with pytest.raises(OutsideTetrahedron):
            geometry.nearest_vertex([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("shape", [(3, 1), (), (4,), (2,), (1, 3)])
    @pytest.mark.parametrize("name", ["in_tetrahedron", "nearest_vertex"])
    def test_rejects_t_not_three_numbers(self, name, shape):
        """A t that is not three numbers raises one ValueError naming its
        shape, a NaN entry included, and not a TypeError or an unpacking error."""
        for fill in (0.1, np.nan):
            with pytest.raises(ValueError, match=rf"^t must be three numbers, not an array "
                                                 rf"of shape {re.escape(str(shape))}$"):
                getattr(geometry, name)(np.full(shape, fill))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nearest_vertex_rejects_non_finite(self, bad):
        # not OutsideTetrahedron: every face test is false at a NaN
        with pytest.raises(ValueError, match="^t must be finite"):
            geometry.nearest_vertex([0.1, bad, 0.2])


class TestSurfaceMesh:
    def test_state_body_degenerates_to_tetrahedron(self):
        mesh = geometry.surface_mesh("T", 0.0, 0.0, 16)
        assert len(mesh.points) > 0
        for p in mesh.points:
            assert min(abs(float(n @ p) - 1.0)
                       for n in geometry.TETRA_FACE_NORMALS) < 1e-8
            assert geometry.in_tetrahedron(p)

    def test_separable_body_degenerates_to_octahedron(self):
        mesh = geometry.surface_mesh("L", 0.0, 0.0, 16)
        assert len(mesh.points) > 0
        one_norms = np.sum(np.abs(mesh.points), axis=1)
        assert np.max(np.abs(one_norms - 1.0)) < 1e-8

    def test_points_are_physical(self):
        mesh = geometry.surface_mesh("L", 0.4, -0.2, 12)
        for p in mesh.points:
            assert spectra.branch_min(0.4, -0.2, *p) >= -1e-10

    def test_row_major_grid_order(self):
        mesh = geometry.surface_mesh("T", 0.0, 0.0, 8)
        q1 = mesh.points[:, 0]
        assert np.all(np.diff(q1) >= -1e-15)

    def test_deformation_shrinks_body(self):
        # a nonzero Bloch pair strictly shrinks the surface footprint
        full = geometry.surface_mesh("T", 0.0, 0.0, 16)
        deformed = geometry.surface_mesh("T", 0.5, 0.5, 16)
        assert 0 < len(deformed.points) < len(full.points)

    # 32 to 96: the mesh sizes of the geometry-export benchmark; an odd n puts
    # 0.0 on the axis
    @pytest.mark.parametrize("n", [2, 3, 16, 32, 33, 48, 64, 80, 96])
    @pytest.mark.parametrize("body", ["T", "L"])
    def test_matches_loop_reference(self, body, n):
        rng = np.random.default_rng(100 + n)
        bloch = [(0.0, 0.0)] + [tuple(rng.uniform(-0.6, 0.6, size=2)) for _ in range(3)]
        # 9e-13 and 1e-12 = _T_KEEPS_ALL: the T filter just below and at the
        # bound from which it is skipped
        dropped = dict.fromkeys((0.0, 9e-13, geometry._T_KEEPS_ALL, PSD_TOL, 1e-3), 0)
        for r, s in bloch:
            candidates = _surface_candidates_loop(body, r, s, n)
            for psd_tol in dropped:
                mesh = geometry.surface_mesh(body, r, s, n, psd_tol=psd_tol)
                points, sheets = surface_mesh_loop(body, r, s, n, psd_tol, candidates)
                assert np.array_equal(mesh.points, points)
                assert mesh.sheets.tolist() == sheets
                dropped[psd_tol] += len(candidates) - len(sheets)
        if n >= 16:
            # psd_tol = 0 drops roots on both bodies, so that case is never
            # vacuous.  On T every drop there is rounding alone, as PSD_TOL
            # keeps them all: the keep decision then hangs on the last bit
            # of the moduli
            assert dropped[0.0] > 0
            if body == "T":
                assert dropped[9e-13] == dropped[geometry._T_KEEPS_ALL] == dropped[PSD_TOL] == 0

    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.integers(2, 120))
    @settings(max_examples=200)
    def test_t_roots_pass_the_psd_check_from_the_bound(self, r, s, n):
        """Every T footprint root passes `sheet_min` at psd_tol =
        _T_KEEPS_ALL = 1e-12, which `surface_mesh` therefore skips there.  A
        root zeroes its own branch to rounding, and the footprint test, which
        admits M1 + M2 up to 2 + FOOTPRINT_SLACK, keeps the other at or
        above -FOOTPRINT_SLACK / 4 to rounding: a 4x margin.  Checked on the
        grid's moduli and on moduli a few ulp either side of the test's edge."""
        assert geometry._T_KEEPS_ALL == spectra.FOOTPRINT_SLACK == 1e-12
        floor = -(spectra.FOOTPRINT_SLACK + 4 * np.spacing(2.0)) / 4
        assert floor >= -geometry._T_KEEPS_ALL / 3.99
        axis = np.linspace(-1.0, 1.0, n)
        m1, m2 = (m.ravel() for m in spectra.moduli(r, s, axis[:, None], axis[None, :]))
        edge = np.linspace(0.0, 2.0, n)
        edge_m2 = (2.0 + spectra.FOOTPRINT_SLACK) - edge
        edge_m2 += np.resize(np.arange(-4, 5), n) * np.spacing(edge_m2)
        for a, b in ((m1, m2), (edge, edge_m2)):
            mu, nu, inside = spectra.boundary_roots(a, b)
            for roots in (mu, nu):
                assert (spectra.sheet_min(a[inside], b[inside], roots[inside]) >= floor).all()

    @pytest.mark.parametrize("body", ["T", "L"])
    def test_empty_mesh_keeps_shape(self, body):
        # |r| = |s| = 1 leaves only the footprint point q1 = q2 = 0, which an
        # even grid misses
        mesh = geometry.surface_mesh(body, 1.0, 1.0, 16)
        assert mesh.points.shape == (0, 3)
        assert mesh.sheets.tolist() == []
        assert surface_mesh_loop(body, 1.0, 1.0, 16)[0].shape == (0, 3)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            geometry.surface_mesh("T", 0.0, 0.0, 1)

    @pytest.mark.parametrize("n", [16.0, 16.5, np.nan, "16", None])
    def test_rejects_non_integer_grid(self, n):
        with pytest.raises(ValueError, match="grid size must be an integer"):
            geometry.surface_mesh("T", 0.0, 0.0, n)

    @pytest.mark.parametrize("n", [2, 3, 16, 33])
    @pytest.mark.parametrize("body", ["T", "L"])
    def test_points_are_c_contiguous_float64(self, body, n):
        for r, s in [(0.0, 0.0), (0.2, -0.1), (1.0, 1.0)]:
            mesh = geometry.surface_mesh(body, r, s, n)
            assert mesh.points.dtype == np.float64 and mesh.points.flags.c_contiguous
            assert mesh.points.shape == (len(mesh.sheets), 3)

    def test_sheets_are_a_str_array(self):
        mesh = geometry.surface_mesh("L", 0.2, -0.1, np.int64(12))
        assert isinstance(mesh.sheets, np.ndarray) and mesh.sheets.dtype.kind == "U"
        assert mesh.sheets.shape == (len(mesh.points),)
        assert set(mesh.sheets.tolist()) == {"mu", "nu"}

    @pytest.mark.parametrize("body", ["X", "t", ""])
    def test_rejects_unknown_body(self, body):
        with pytest.raises(ValueError, match="body"):
            geometry.surface_mesh(body, 0.1, 0.2, 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["r", "s"])
    @pytest.mark.parametrize("body", ["T", "L"])
    def test_rejects_non_finite_bloch(self, body, name, bad):
        args = {"r": 0.0, "s": 0.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            geometry.surface_mesh(body, args["r"], args["s"], 16)

    @pytest.mark.parametrize("psd_tol", [np.nan, -1e-12, -np.inf])
    def test_rejects_bad_psd_tol(self, psd_tol):
        with pytest.raises(ValueError, match="psd_tol"):
            geometry.surface_mesh("T", 0.0, 0.0, 16, psd_tol=psd_tol)


def _pt_branch(r, s, p):
    """The smallest partial-transpose branch at correlation vector p."""
    return spectra.branch_min(r, s, p[0], -p[1], p[2])


class TestLineSurfaceCrossing:
    def test_bell_diagonal_face_crossing(self):
        v = geometry.nearest_vertex([0.8, -0.8, 0.8])
        crossings = geometry.line_surface_crossing(
            np.array([0.8, -0.8, 0.8]), v, 0.0, 0.0)
        assert np.allclose(crossings[0].coords, [1 / 3, -1 / 3, 1 / 3], atol=1e-9)

    def test_crossings_sorted_by_distance(self):
        t = np.array([0.5, -0.5, 0.05])
        v = geometry.nearest_vertex(t)
        crossings = geometry.line_surface_crossing(t, v, 0.2, -0.2)
        dists = [np.linalg.norm(c.coords - t) for c in crossings]
        assert dists == sorted(dists)

    def test_crossing_points_on_boundary(self):
        t = np.array([0.5, -0.5, 0.1])
        v = geometry.nearest_vertex(t)
        for c in geometry.line_surface_crossing(t, v, 0.1, 0.1):
            q1, q2, q3 = c.coords
            assert abs(spectra.branch_min(0.1, 0.1, q1, -q2, q3)) < 1e-9

    def test_tangential_touch_found(self):
        # the ray through a one-Bell-plus-diagonal state grazes the boundary
        # at w = 2 without a sign change: a double root, one crossing
        t = np.array([0.5, -0.5, 1.0])
        v = geometry.nearest_vertex(t)
        crossings = geometry.line_surface_crossing(t, v, 0.1, 0.1)
        assert len(crossings) == 1
        assert abs(crossings[0].line_parameter - 2.0) <= 1e-8

    def test_degenerate_start_raises(self):
        v = Vertex("v1", geometry.TETRA_VERTICES["v1"])
        with pytest.raises(ValueError):
            geometry.line_surface_crossing(v.coords, v, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["r", "s"])
    def test_rejects_non_finite_bloch(self, name, bad):
        # not NoCrossing: the ray is fine, the body is undefined
        t = np.array([0.5, -0.5, 0.1])
        args = {"r": 0.0, "s": 0.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            geometry.line_surface_crossing(t, geometry.nearest_vertex(t), args["r"], args["s"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_t(self, bad):
        # not NoCrossing after RuntimeWarnings: the ray itself is undefined
        v = geometry.nearest_vertex([0.5, -0.5, 0.1])
        with pytest.raises(ValueError, match="^t must be finite"):
            geometry.line_surface_crossing(np.array([0.5, bad, 0.1]), v, 0.1, 0.1)

    def test_sheet_is_a_plain_str(self):
        t = np.array([0.5, -0.5, 0.1])
        for c in geometry.line_surface_crossing(t, geometry.nearest_vertex(t), 0.1, 0.1):
            assert type(c.sheet) is str and c.sheet in ("mu", "nu")

    def test_matches_loop_reference(self):
        """Crossings in the loop's window w <= 10 match it within the loop's
        own error, and lie on the boundary to 1e-13, where the loop's
        bisection stops at up to 2.9e-13."""
        rng = np.random.default_rng(7)
        rays = [(np.array([0.8, -0.8, 0.8]), 0.0, 0.0),   # exact face hit
                (np.array([0.5, -0.5, 1.0]), 0.1, 0.1),   # tangential touch
                (np.array([-0.875, -0.875, -0.875]), 0.5, 0.5)]  # zero at w = 8
        for _ in range(12):
            w = rng.dirichlet(np.ones(4))
            t = sum(wk * vk for wk, vk in zip(w, geometry.TETRA_VERTICES.values()))
            rays.append((t, *rng.uniform(-0.4, 0.4, size=2)))
        missed = 0
        for t, r, s in rays:
            v = geometry.nearest_vertex(t)
            want = line_surface_crossing_loop(t, v, r, s)
            try:
                got = geometry.line_surface_crossing(t, v, r, s)
            except NoCrossing:
                got = []
            for c in got:
                assert abs(_pt_branch(r, s, c.coords)) <= 1e-13
            got = [c for c in got if c.line_parameter <= 10.0]
            missed += not want
            assert len(got) == len(want)
            for c, (coords, w_root, sheet) in zip(got, want):
                assert abs(c.line_parameter - w_root) <= 1e-10 * max(1.0, w_root)
                assert c.sheet == sheet
        assert missed < len(rays)

    @pytest.mark.parametrize("kind", ["vp", "horodecki"])
    def test_nearest_crossing_from_v1_is_tau(self, kind):
        """Fact (ii) in the template frame, with the z-axis Bloch components
        as (r, s): the ray from the Bell vertex v1 through rho's correlation
        vector first meets L(r, s) at the CSS's tau.  From lambda1 of about
        0.92 on, that crossing lies beyond w = 10.  v1 is the Phi+ vertex, not
        the nearest one: for the six entangled Horodecki weights with
        lambda1 < 1/3 below, `nearest_vertex` is v3 or v4, and tau lies 4.6e-3
        to 0.11 off that vertex's ray."""
        lams = [(0.95, 0.03, 0.02), (0.93, 0.05, 0.02), (0.99, 0.006, 0.004),
                (0.95, 0.05, 0.0)]
        rng = np.random.default_rng(5)
        while len(lams) < 100:
            lam = tuple(rng.dirichlet(np.ones(3)))
            if kind == "vp" or lam[0] ** 2 > 4 * lam[1] * lam[2]:  # entangled
                lams.append(lam)
        off_nearest = [(0.1, 0.899, 0.001), (0.2, 0.79, 0.01), (0.25, 0.73, 0.02),
                       (0.3, 0.67, 0.03), (0.33, 0.64, 0.03), (0.33, 0.669, 0.001)]
        if kind == "horodecki":
            lams += off_nearest
        v1 = Vertex("v1", geometry.TETRA_VERTICES["v1"])
        for l1, l2, l3 in lams:
            # VP: r = s = l2 - l3; Horodecki: r = -s = l2 - l3
            diag = [l2, 0, 0, l3] if kind == "vp" else [0, l2, l3, 0]
            p = qstate.to_pauli(l1 * qstate.BELL_STATES[0] + np.diag(diag))
            t = p.g.diagonal()
            tau = (css.css_vp if kind == "vp" else css.css_horodecki)((l1, l2, l3)).tau
            nearest = geometry.line_surface_crossing(t, v1, p.r[2], p.s[2])[0]
            assert np.max(np.abs(nearest.coords - tau)) <= 1e-12
            if (l1, l2, l3) in off_nearest:
                assert l1 ** 2 > 4 * l2 * l3
                v = geometry.nearest_vertex(t)
                assert v.label != "v1"
                u = (t - v.coords) / np.linalg.norm(t - v.coords)
                d = tau - v.coords
                assert np.linalg.norm(d - (d @ u) * u) > 1e-6

    @given(st.integers(0, 2 ** 32 - 1), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))
    @settings(max_examples=200)
    def test_crossings_end_the_ppt_segment(self, seed, r, s):
        """lambda_min(rho^Gamma) is concave along the ray, so the crossings are
        at most the two ends of the segment where it is >= 0."""
        w = np.random.default_rng(seed).dirichlet(np.ones(4))
        t = w @ np.array(list(geometry.TETRA_VERTICES.values()))
        try:
            crossings = geometry.line_surface_crossing(t, geometry.nearest_vertex(t), r, s)
        except NoCrossing:
            crossings = []
        assert len(crossings) <= 2
        for c in crossings:
            assert abs(_pt_branch(r, s, c.coords)) <= PSD_TOL
        if len(crossings) == 2:
            mid = (crossings[0].coords + crossings[1].coords) / 2
            assert _pt_branch(r, s, mid) >= -PSD_TOL
        if _pt_branch(r, s, t) > 0:
            assert any(0 < c.line_parameter <= 1 for c in crossings)
