import warnings

import numpy as np
import pytest

from reegeom import css, ree, revmap, spectra
from reegeom.errors import DegenerateZ, NotEdgeState, ParallelLines, RankDeficient
from reegeom.qstate import PSD_TOL, partial_transpose, to_pauli, validate_density_matrix
from reegeom.ree import _log_divided, ree_numeric
from reegeom.revmap import SigmaZParams

from conftest import generic_edge_state, physical_range, random_density_matrix


def bell_diagonal_params(a):
    return SigmaZParams(a, 0.5 - a, 0.5 - a, a)


class TestSigmaZParams:
    def test_matrix_is_edge_state(self):
        p = SigmaZParams(0.2, 0.35, 0.25, 0.2)
        m = p.matrix()
        validate_density_matrix(m)
        pt_vals = np.linalg.eigvalsh(partial_transpose(m))
        assert np.min(np.abs(pt_vals)) < 1e-14

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SigmaZParams(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(ValueError):
            SigmaZParams(0.3, 0.3, 0.3, 0.3)
        with pytest.raises(ValueError):
            SigmaZParams(0.4, 0.05, 0.15, 0.4)


def einsum_outer(a, b):
    return np.einsum("i,j->ij", a, b)


def g_matrix_reference(sigma, outer=np.outer):
    """The generator as built before `ree._generators`, kept as its
    reference: a single unit vector phi spanning ker sigma^Gamma, and D_sigma's
    coefficients as reciprocal log divided differences on sigma's support."""
    sigma = np.asarray(sigma, dtype=complex)
    lam, v = np.linalg.eigh(sigma)
    if lam[0] <= 1e-12:
        raise RankDeficient(f"smallest eigenvalue {lam[0]:.3e} <= 1e-12")
    vals, vecs = np.linalg.eigh(partial_transpose(sigma))
    near_zero = np.abs(vals) <= ree.EDGE_TOL
    if np.count_nonzero(near_zero) != 1:
        raise NotEdgeState(f"{np.count_nonzero(near_zero)} near-zero PT eigenvalues")
    phi = vecs[:, near_zero].ravel()
    support = lam > 1e-12
    lam = np.where(support, lam, 1.0)
    coef = np.outer(support, support) / _log_divided(lam[:, None], lam[None, :])
    core = v.conj().T @ partial_transpose(outer(phi, phi.conj())) @ v
    return v @ (coef * core) @ v.conj().T


class TestGMatrix:
    def test_traceless(self, rng):
        for _ in range(50):
            p = revmap.sample_params_for_bloch(rng.uniform(-0.3, 0.3),
                                               rng.uniform(-0.3, 0.3), rng)
            g = revmap.g_matrix(p.matrix())
            assert abs(np.trace(g)) < 1e-12
            assert np.allclose(g, g.conj().T, atol=1e-12)

    def test_rank_deficient_raises(self):
        sigma = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(RankDeficient):
            revmap.g_matrix(sigma)

    def test_non_edge_raises(self):
        with pytest.raises(NotEdgeState):
            revmap.g_matrix(np.eye(4) / 4)

    def test_matches_single_kernel_reference(self):
        # g_matrix and family_from_css equal the reference bit for bit on 100
        # X-shaped and 50 generic edge states.  The reference's np.outer may
        # fuse a multiply-add in a complex product, and the einsum that both
        # g_matrix and recover use does not: with einsum's product the two are
        # equal, and with np.outer's they differ by a few units of rounding
        rng = np.random.default_rng(30)
        xs = [revmap.sample_params_for_bloch(*rng.uniform(-0.4, 0.4, size=2), rng).matrix()
              for _ in range(100)]
        generic = [generic_edge_state(rng) for _ in range(50)]
        for sigma in xs + generic:
            want = g_matrix_reference(sigma, outer=einsum_outer)
            assert np.array_equal(revmap.g_matrix(sigma), want)
            assert np.array_equal(revmap.family_from_css(sigma, 0.05), sigma - 0.05 * want)
            near = g_matrix_reference(sigma)
            assert np.max(np.abs(revmap.g_matrix(sigma) - near)) <= \
                8 * np.finfo(float).eps * np.max(np.abs(near))
        for sigma in xs:
            assert np.array_equal(revmap.g_matrix(sigma), g_matrix_reference(sigma))


class TestFamilyFromCss:
    def test_x_zero_is_identity(self):
        p = bell_diagonal_params(0.2)
        assert np.allclose(revmap.family_from_css(p.matrix(), 0.0), p.matrix())

    def test_physical_range(self):
        # the closed-form x_max bounds the family on 50 generic full-rank edge
        # states and 50 X-shaped ones, and agrees with a bisection on lambda_min
        def bisection(sigma):
            g = revmap.g_matrix(sigma)

            def psd(x):
                return np.linalg.eigvalsh(sigma - x * g)[0] >= -PSD_TOL

            lo, hi = 0.0, 1.0
            while psd(hi):
                lo, hi = hi, 2 * hi
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if psd(mid) else (lo, mid)
            return lo

        rng = np.random.default_rng(27)
        sigmas = [generic_edge_state(rng) for _ in range(50)] + [
            revmap.sample_params_for_bloch(*rng.uniform(-0.4, 0.4, size=2), rng).matrix()
            for _ in range(50)]
        for sigma in sigmas:
            x_max = physical_range(sigma)
            assert np.linalg.eigvalsh(revmap.family_from_css(sigma, 0.999 * x_max))[0] >= -1e-12
            assert np.linalg.eigvalsh(revmap.family_from_css(sigma, 1.001 * x_max))[0] < 0
            # the bisection stops at lambda_min = -PSD_TOL, just past x_max
            assert bisection(sigma) == pytest.approx(x_max, rel=1e-7)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            revmap.family_from_css(bell_diagonal_params(0.2).matrix(), -0.1)

    @pytest.mark.parametrize("call", [
        lambda x: revmap.family_from_css(bell_diagonal_params(0.2).matrix(), x),
        lambda x: revmap.z_family(bell_diagonal_params(0.2), x),
        lambda x: revmap.z_family(bell_diagonal_params(0.2), np.array([0.0, 0.5, x])),
        lambda x: revmap.css_line_sweep([bell_diagonal_params(0.2)], [0.0, 0.5, x])],
        ids=["family_from_css", "z_family", "z_family-array", "css_line_sweep-grid"])
    def test_one_domain_for_rho_of_x(self, call):
        """rho(x) = sigma - x G is in the family only for x >= 0.  Each route to
        it raises the same ValueError on a negative x, or on a negative entry
        of an array or grid, where the closed forms returned sigma + |x| G."""
        call(1e-3)
        with pytest.raises(ValueError, match="^family parameter must be nonnegative$"):
            call(-1e-3)

    def test_array_x_rejected(self):
        """family_from_css takes one x: an array of four, which would scale
        G's columns one by one, raises rather than returning a non-member."""
        with pytest.raises(TypeError):
            revmap.family_from_css(bell_diagonal_params(0.2).matrix(), np.full(4, 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [
        lambda x: revmap.family_from_css(bell_diagonal_params(0.2).matrix(), x),
        lambda x: revmap.z_family(bell_diagonal_params(0.2), x),
        lambda x: revmap.z_family(bell_diagonal_params(0.2), [0.0, x]),
        lambda x: SigmaZParams(x, 0.3, 0.3, 0.4),
        lambda x: SigmaZParams(0.2, 0.3, 0.3, x)],
        ids=["family_from_css", "z_family", "z_family-array", "SigmaZParams-r1",
             "SigmaZParams-r4"])
    def test_non_finite_rejected(self, call, bad):
        """The X-shaped family's builders raise ValueError on a NaN or infinite
        parameter, rather than returning non-finite entries."""
        with pytest.raises(ValueError):
            call(bad)


class TestDualRoute:
    def test_closed_form_matches_g_matrix(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(100):
            p = revmap.sample_params_for_bloch(rng.uniform(-0.4, 0.4),
                                               rng.uniform(-0.4, 0.4), rng)
            for x in (0.0, 0.05, 0.1):
                gap = np.max(np.abs(revmap.z_family(p, x)
                                    - revmap.family_from_css(p.matrix(), x)))
                worst = max(worst, float(gap))
        assert worst <= 1e-10

    def test_family_is_straight_in_x(self):
        # rho(x) is affine in x: midpoint coincides with the chord
        p = bell_diagonal_params(0.15)
        a, b = revmap.z_family(p, 0.0), revmap.z_family(p, 0.2)
        mid = revmap.z_family(p, 0.1)
        assert np.max(np.abs(mid - (a + b) / 2)) < 1e-14

    def test_pauli_form_matches_matrix(self, rng):
        # the closed-form (r, s, t) that css_line_sweep writes
        p = revmap.sample_params_for_bloch(0.2, -0.1, rng)
        for x in (0.0, 0.3):
            r, s, t1, t3 = revmap._z_rst(revmap._z_line(p, revmap.z_derivatives(p)), x)
            pf = to_pauli(revmap.z_family(p, x))
            assert pf.r[2] == pytest.approx(r, abs=1e-12)
            assert pf.s[2] == pytest.approx(s, abs=1e-12)
            assert np.allclose(np.diag(pf.g), [t1, t1, t3], atol=1e-12)

    def test_derivative_identity(self):
        # the diagonal derivative coefficients sum to zero (trace preserved)
        p = revmap.sample_params_for_bloch(0.1, 0.2, np.random.default_rng(3))
        d = revmap.z_derivatives(p)
        assert d.rb1 + d.rb2 + d.rb3 + d.rb4 == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_z_raises(self):
        with pytest.raises(DegenerateZ):
            revmap.z_derivatives(SigmaZParams(0.0, 0.5, 0.5, 0.0))

    def test_diverging_logarithm_raises(self):
        """At R2 R3 = R1 R4, z = R2 + R3 and ln((R2 + R3 + z) / (R2 + R3 - z))
        diverges: here z = 0.5."""
        with pytest.raises(DegenerateZ, match="logarithm argument diverges"):
            revmap.z_derivatives(SigmaZParams(0.25, 0.25, 0.25, 0.25))


class TestLineCrossing:
    def test_bell_diagonal_lines_hit_vertex(self):
        x, x2, mu = revmap.line_crossing(bell_diagonal_params(0.2),
                                         bell_diagonal_params(0.1))
        assert np.allclose(mu, [1, 1, -1], atol=1e-10)
        assert x == pytest.approx(2.0, abs=1e-10)
        assert x2 == pytest.approx(2.0, abs=1e-10)

    def test_generic_crossing_consistent(self):
        rng = np.random.default_rng(21)
        p1 = revmap.sample_params_for_bloch(0.1, -0.2, rng)
        p2 = revmap.sample_params_for_bloch(0.1, -0.2, rng)
        x, x2, mu = revmap.line_crossing(p1, p2)
        t1 = np.diag(to_pauli(revmap.z_family(p1, x)).g)
        t2 = np.diag(to_pauli(revmap.z_family(p2, x2)).g)
        assert np.allclose(t1, mu, atol=1e-10)
        assert np.allclose(t2, mu, atol=1e-10)

    def test_identical_params_parallel(self):
        p = bell_diagonal_params(0.2)
        with pytest.raises(ParallelLines):
            revmap.line_crossing(p, p)


class TestSampling:
    def test_bloch_targets_met(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            r, s = rng.uniform(-0.4, 0.4, size=2)
            p = revmap.sample_params_for_bloch(r, s, rng)
            pf = to_pauli(revmap.z_family(p, 0.0))
            r0, s0 = pf.r[2], pf.s[2]
            assert r0 == pytest.approx(r, abs=1e-12)
            assert s0 == pytest.approx(s, abs=1e-12)

    def test_unreachable_bloch_raises(self):
        """No X-shaped state has |r| = 1 or |s| = 1."""
        for r, s in [(1.0, 1.0), (1.0, 0.0), (-1.0, 0.5), (0.3, 1.0), (0.2, -1.0),
                     (1.0, -1.0), (-1.0, -1.0)]:
            with pytest.raises(ValueError, match="^no X-shaped state has Bloch components"):
                revmap.sample_params_for_bloch(r, s, np.random.default_rng(0))

    @pytest.mark.parametrize("r, s", [(0.95, 0.95), (0.97, 0.97), (0.99, 0.99),
                                      (-0.98, -0.96), (0.999, -0.5)])
    def test_near_boundary_served(self, r, s):
        """Near |r| = 1 or |s| = 1 the admissible h form a short interval, and
        every draw lands in it: a valid edge state with the Bloch targets."""
        for seed in range(20):
            p = revmap.sample_params_for_bloch(r, s, np.random.default_rng(seed))
            pf = to_pauli(revmap.z_family(p, 0.0))
            assert abs(pf.r[2] - r) <= 1e-12 and abs(pf.s[2] - s) <= 1e-12
            assert min(p.r1, p.r2, p.r3, p.r4) > 0
            assert p.r2 * p.r3 > p.r1 * p.r4

    def test_one_draw_per_sample(self):
        class Counting:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def uniform(self, *args, **kwargs):
                self.calls += 1
                return self.rng.uniform(*args, **kwargs)

        rng = Counting(np.random.default_rng(0))
        for n in range(1, 51):
            revmap.sample_params_for_bloch(0.3, 0.3, rng)
            assert rng.calls == n

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["r", "s"])
    def test_non_finite_bloch_raises(self, name, bad):
        args = {"r": 0.0, "s": 0.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            revmap.sample_params_for_bloch(args["r"], args["s"], np.random.default_rng(0))


def css_line_sweep_loop(params, x_grid, psd_tol=1e-10):
    """The per-point loop that `css_line_sweep` replaced, kept as its reference."""
    def pauli(p, d, x):
        r = (p.r1 + p.r2 - p.r3 - p.r4) - x * (d.rb2 - d.rb3)
        s = (p.r1 - p.r2 + p.r3 - p.r4) + x * (d.rb2 - d.rb3)
        t1 = 2 * p.y - 2 * x * d.yb
        t3 = (p.r1 - p.r2 - p.r3 + p.r4) - 4 * x * d.rb1
        return r, s, np.array([t1, t1, t3])

    rows = []
    for fid, p in enumerate(params):
        d = revmap.z_derivatives(p)
        _, _, tau = pauli(p, d, 0.0)
        for x in x_grid:
            x = float(x)
            m = np.diag([p.r1 - x * d.rb1, p.r2 - x * d.rb2,
                         p.r3 - x * d.rb3, p.r4 - x * d.rb4]).astype(complex)
            m[1, 2] = m[2, 1] = p.y - x * d.yb
            if np.linalg.eigvalsh(m)[0] < -psd_tol:
                continue
            r, s, t = pauli(p, d, x)
            rows.append({"family_id": fid, "x": x, "t": t, "tau": tau, "r": r, "s": s})
    return rows


def css_line_sweep_per_family(params, x_grid):
    """`css_line_sweep` as one array pass per family, the form that the one
    pass over all families replaced, kept as its bit-for-bit reference."""
    xs = np.asarray(x_grid, dtype=float)
    rows = []
    for fid, p in enumerate(params):
        line = revmap._z_line(p, revmap.z_derivatives(p))
        _, _, tau1, tau3 = revmap._z_rst(line, 0.0)
        r, s, t1, t3 = revmap._z_rst(line, xs)
        tau, t = np.array([tau1, tau1, tau3]), np.array([t1, t1, t3]).T
        keep = spectra.branch_min(r, s, t[:, 0], t[:, 1], t[:, 2]) >= -PSD_TOL
        rows += [{"family_id": fid, "x": x, "t": t_x, "tau": tau, "r": r_x, "s": s_x}
                 for x, t_x, r_x, s_x in zip(xs[keep].tolist(), t[keep],
                                             r[keep].tolist(), s[keep].tolist())]
    return rows


def assert_same_rows(rows, want):
    assert len(rows) == len(want)
    for row, ref in zip(rows, want):
        assert list(row) == list(ref)
        for key in ("family_id", "x", "r", "s"):
            assert type(row[key]) is type(ref[key]) and row[key] == ref[key]
        for key in ("t", "tau"):
            assert row[key].tobytes() == ref[key].tobytes()


class TestSweep:
    def test_matches_per_family_reference(self):
        """Bit for bit on 240 random family lists of 0 to 12 families, with
        (r, s) drawn as the benchmark draws them, wider, and near |r| = |s| = 1
        as in the fixed CLI inputs, on grids that leave the PSD cone."""
        rng = np.random.default_rng(36)
        bloch = [lambda: tuple(rng.uniform(-0.3, 0.3, size=2)),
                 lambda: tuple(rng.uniform(-0.9, 0.9, size=2)),
                 lambda: (0.97, 0.97), lambda: (-0.98, -0.96)]
        grids = [np.linspace(0.0, 2.5, 50), np.linspace(0.0, 8.0, 37), np.array([0.7]),
                 np.empty(0)]
        rows = dropped = 0
        for i in range(240):
            r, s = bloch[i % 4]()
            params = [revmap.sample_params_for_bloch(r, s, rng)
                      for _ in range(rng.integers(0, 13))]
            grid = grids[(i // 4) % 4]
            want = css_line_sweep_per_family(params, grid)
            assert_same_rows(revmap.css_line_sweep(params, grid), want)
            rows += len(want)
            dropped += len(params) * len(grid) - len(want)
        assert rows > 0 and dropped > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_raises(self, bad):
        """A NaN or infinite x in the grid raises ValueError, as z_family's
        does, rather than dropping its rows or overflowing."""
        grid = np.array([0.0, 0.5, bad, 1.0])
        with pytest.raises(ValueError, match="^x_grid must be finite"):
            revmap.css_line_sweep([bell_diagonal_params(0.2)], grid)

    def test_overflowing_points_drop(self):
        """At x = 1e200, far past every family's x_max, the arithmetic
        overflows: the point drops like any other past x_max, with no
        floating-point warning, and the rows are those of the grid without it."""
        rng = np.random.default_rng(40)
        params = [revmap.sample_params_for_bloch(-0.5, 0.5, rng) for _ in range(8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = revmap.css_line_sweep(params, [0.0, 1.0, 1e200])
        assert rows
        assert_same_rows(rows, revmap.css_line_sweep(params, [0.0, 1.0]))

    @pytest.mark.parametrize("bad", [SigmaZParams(0.0, 0.5, 0.5, 0.0),
                                     SigmaZParams(0.25, 0.25, 0.25, 0.25)])
    def test_degenerate_family_raises(self, bad):
        """A family where `z_derivatives` raises fails the whole sweep with
        the per-family form's DegenerateZ and message, wherever it stands."""
        good = bell_diagonal_params(0.2)
        grid = np.linspace(0.0, 2.5, 50)
        for params in ([bad], [good, bad], [bad, good, good]):
            with pytest.raises(DegenerateZ) as want:
                css_line_sweep_per_family(params, grid)
            with pytest.raises(DegenerateZ) as got:
                revmap.css_line_sweep(params, grid)
            assert str(got.value) == str(want.value)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(26)
        grids = [np.linspace(0.0, 2.5, 50), np.linspace(0.0, 8.0, 301)]
        dropped = 0
        for _ in range(6):
            r, s = rng.uniform(-0.5, 0.5, size=2)
            params = [revmap.sample_params_for_bloch(r, s, rng) for _ in range(8)]
            for grid in grids:
                rows = revmap.css_line_sweep(params, grid)
                want = css_line_sweep_loop(params, grid)
                dropped += len(params) * len(grid) - len(want)
                assert len(rows) == len(want)
                for row, ref in zip(rows, want):
                    assert list(row) == list(ref)
                    assert (row["family_id"], row["x"], row["r"], row["s"]) == \
                        (ref["family_id"], ref["x"], ref["r"], ref["s"])
                    assert np.array_equal(row["t"], ref["t"])
                    assert np.array_equal(row["tau"], ref["tau"])
        # the families leave the PSD cone inside the grids
        assert dropped > 0

    def test_branch_min_filter_matches_eigvalsh(self):
        # the rows keep exactly the points where the dense smallest eigenvalue
        # of z_family is >= -PSD_TOL: on 500 families over one grid past their
        # physical range, and on each family's own points at relative offsets
        # 1e-13 to 1e-6 around its x_max, where that eigenvalue crosses -PSD_TOL
        def kept(params, grid):
            return [(fid, x) for fid, p in enumerate(params)
                    for x in grid[np.linalg.eigvalsh(revmap.z_family(p, grid))[:, 0]
                                  >= -PSD_TOL].tolist()]

        def rows(params, grid):
            return [(row["family_id"], row["x"])
                    for row in revmap.css_line_sweep(params, grid)]

        rng = np.random.default_rng(28)
        grid = np.linspace(0.0, 8.0, 161)
        offsets = np.geomspace(1e-13, 1e-6, 15)
        offsets = np.concatenate([-offsets[::-1], offsets])
        dropped = tolerated = 0
        for _ in range(50):
            r, s = rng.uniform(-0.6, 0.6, size=2)
            params = [revmap.sample_params_for_bloch(r, s, rng) for _ in range(10)]
            want = kept(params, grid)
            assert rows(params, grid) == want
            dropped += len(params) * len(grid) - len(want)
            for p in params:
                near = physical_range(p.matrix()) * (1 + offsets)
                assert rows([p], near) == kept([p], near)
                lam = np.linalg.eigvalsh(revmap.z_family(p, near))[:, 0]
                tolerated += np.count_nonzero((lam < 0) & (lam >= -PSD_TOL))
        # the grids leave the PSD cone, and some kept points lie inside -PSD_TOL
        assert dropped > 0 and tolerated > 0

    def test_rows_schema_and_straightness(self):
        rng = np.random.default_rng(23)
        params = [revmap.sample_params_for_bloch(0.3, 0.3, rng) for _ in range(3)]
        rows = revmap.css_line_sweep(params, np.linspace(0, 0.5, 11))
        assert rows
        by_fam = {}
        for row in rows:
            by_fam.setdefault(row["family_id"], []).append(row)
        for fam_rows in by_fam.values():
            # all rows of one family share tau, and t is affine in x
            tau0 = fam_rows[0]["tau"]
            ts = np.array([r["t"] for r in fam_rows])
            xs = np.array([r["x"] for r in fam_rows])
            for r in fam_rows:
                assert np.allclose(r["tau"], tau0)
            if len(fam_rows) >= 3:
                fit = np.polyfit(xs, ts, 1)
                recon = np.outer(xs, fit[0]) + fit[1]
                assert np.max(np.abs(recon - ts)) < 1e-10


def vp_css(lam):
    return css.css_vp(lam).css


def horodecki_css(lam):
    return css.css_horodecki(lam).css


class TestRecovery:
    def test_vp_recovery(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            lam = tuple(rng.dirichlet([1, 1, 1]))
            if lam[0] < 0.05:
                continue
            rho = css._vp_state(lam)
            assert np.max(np.abs(revmap.recover(vp_css(lam), rho) - rho)) <= 1e-9

    def test_vp_recovery_degenerate_weights(self):
        lam = (0.4, 0.3, 0.3)
        rho = css._vp_state(lam)
        assert np.max(np.abs(revmap.recover(vp_css(lam), rho) - rho)) <= 1e-9

    def test_horodecki_recovery(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            lam = tuple(rng.dirichlet([1, 1, 1]))
            if lam[0] ** 2 <= 4 * lam[1] * lam[2] + 1e-3:
                continue
            rho = css._horodecki_state(lam)
            assert np.max(np.abs(revmap.recover(horodecki_css(lam), rho) - rho)) <= 1e-9

    def test_full_rank_edge_state_families(self):
        # a one-dimensional kernel: the fit rebuilds rho(x) = sigma - x G(sigma)
        rng = np.random.default_rng(29)
        for _ in range(20):
            sigma = generic_edge_state(rng)
            rho = revmap.family_from_css(sigma, 0.5 * physical_range(sigma))
            assert np.max(np.abs(revmap.recover(sigma, rho) - rho)) <= 1e-12

    def test_no_pt_kernel_raises(self):
        with pytest.raises(NotEdgeState):
            revmap.recover(np.eye(4, dtype=complex) / 4, css._vp_state((0.5, 0.3, 0.2)))

    def test_kernel_ends_at_edge_tol(self, rng):
        """sigma = (1 - p) sigma0 + p I/4, with sigma0 a full-rank edge state,
        has lambda_min(sigma^Gamma) = p/4.  At 1e-9, within EDGE_TOL, its
        eigenvector is sigma^Gamma's kernel, and the family sigma - x G(sigma)
        is recovered; at 1e-7 sigma^Gamma has no kernel."""
        sigma0 = generic_edge_state(rng)
        near, off = ((1 - p) * sigma0 + p * np.eye(4) / 4 for p in (4e-9, 4e-7))
        rho = revmap.family_from_css(near, 0.5 * physical_range(near))
        assert np.max(np.abs(revmap.recover(near, rho) - rho)) <= 1e-12
        with pytest.raises(NotEdgeState):
            revmap.recover(off, off)


def edge_jacobian_reference(x, w, v, l1, g_eig, g):
    """`revmap._edge_jacobian` as it conjugated each of the 15 directions and
    dG terms into sigma's eigenbasis by V^dagger X V, kept as its reference."""
    directions = revmap._DIRECTIONS_FLAT.reshape(2, 15, 4, 4)
    vs, vh, a, u = v[0], v[0].conj().T, w[1], v[1]
    phi = u[:, 0]
    e_phi = directions[1] @ phi
    dphi = -((e_phi @ u[:, 1:].conj()) / (a[1:] - a[0])) @ u[:, 1:].T
    outer = dphi[:, :, None] * phi.conj()
    e = vh @ directions[0] @ vs
    t = np.matmul(e.transpose(1, 0, 2), ree._log_divided2(w[0], l1) * g_eig).transpose(1, 0, 2)
    dg = (vh @ partial_transpose(outer + outer.conj().transpose(0, 2, 1)) @ vs
          - t - t.conj().transpose(0, 2, 1)) / l1
    jac = np.zeros((16, 16))
    jac[:15, :15] = np.eye(15) - 4 * x * (e.reshape(15, 16).conj() @ dg.reshape(15, 16).T).real
    jac[:15, 15] = -g
    jac[15, :15] = (e_phi @ phi.conj()).real
    return jac


class TestNewton:
    """The Newton solve of the reverse map behind css_auto's route
    "reverse-map": its closed-form Jacobian, and every way it can fail
    without raising."""

    def test_jacobian_matches_central_differences(self):
        """On 20 generic edge states moved 1e-3 off the edge, at x = 0.3, the
        closed-form Jacobian is within 1e-7 of central differences (h =
        1e-7, whose own error is about 1e-9), relative to its largest entry."""
        rng = np.random.default_rng(5)
        rows = revmap._PAULI_ROWS
        worst = 0.0
        for _ in range(20):
            sigma, rho = generic_edge_state(rng), generic_edge_state(rng)
            c = (rows @ sigma.reshape(16)).real + 1e-3 * rng.normal(size=15)
            target = (rows @ rho.reshape(16)).real
            w, v = revmap._spectra(c)
            _, l1, g_eig, g = revmap._edge_residual(c, 0.3, target, w, v)
            jac = revmap._edge_jacobian(0.3, w, v, l1, g_eig, g)
            diff = np.empty((16, 16))
            for k in range(16):
                h = 1e-7 * np.eye(16)[k]
                plus, minus = c + h[:15], c - h[:15]
                f_plus = revmap._edge_residual(plus, 0.3 + h[15], target, *revmap._spectra(plus))
                f_minus = revmap._edge_residual(minus, 0.3 - h[15], target,
                                                *revmap._spectra(minus))
                diff[:, k] = (f_plus[0] - f_minus[0]) / 2e-7
            worst = max(worst, np.abs(diff - jac).max() / np.abs(jac).max())
        assert worst <= 1e-7

    def test_jacobian_matches_per_direction_reference(self):
        """On 500 random full-rank sigma, at x = 0.3, the Jacobian, which
        `ree._frame` takes into sigma's eigenbasis, is within 1e-15 of
        `edge_jacobian_reference`, relative to its largest entry (up to 6.2
        here, where one ulp is 8.9e-16); measured 3.7e-16."""
        rng = np.random.default_rng(40)
        worst = 0.0
        for _ in range(500):
            c = (revmap._PAULI_ROWS @ random_density_matrix(rng).reshape(16)).real
            w, v = revmap._spectra(c)
            _, l1, g_eig, g = revmap._edge_residual(c, 0.3, c, w, v)
            got = revmap._edge_jacobian(0.3, w, v, l1, g_eig, g)
            want = edge_jacobian_reference(0.3, w, v, l1, g_eig, g)
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
        assert worst <= 1e-15

    def test_one_generator(self):
        """The solve builds G(sigma) with `g_matrix`'s builder: at the Newton
        ends of entangled random states of rank 2-4, wherever sigma^Gamma has
        one kernel vector at EDGE_TOL (266 of them), the residual's G
        coordinates are _PAULI_ROWS @ g_matrix(sigma), bit for bit."""
        rng = np.random.default_rng(42)
        ends = 0
        for _ in range(300):
            rho = random_density_matrix(rng, rank=int(rng.integers(2, 5)))
            w, v = validate_density_matrix(rho)
            if w[1, 0] >= -PSD_TOL:
                continue
            end = revmap._newton(rho, w, v)
            sigma = (ree._EYE_FLAT + end.c @ ree._B_FLAT).reshape(4, 4)
            if np.count_nonzero(np.abs(np.linalg.eigvalsh(partial_transpose(sigma)))
                                <= ree.EDGE_TOL) != 1:
                continue
            g = revmap._edge_residual(end.c, end.x, end.c, end.w, end.v)[3]
            want = (revmap._PAULI_ROWS @ revmap.g_matrix(sigma).reshape(16)).real
            assert np.array_equal(g, want)
            ends += 1
        assert ends >= 250

    def test_solves_generic_family_states(self):
        """rho = sigma - x G(sigma) is solved to its rounding floor, sigma
        within 1e-12 and x within 1e-10."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            sigma = generic_edge_state(rng)
            x = 0.5 * physical_range(sigma)
            rho = revmap.family_from_css(sigma, x)
            end = revmap._newton(rho, *validate_density_matrix(rho))
            assert end.converged and end.residual <= revmap.NEWTON_TOL
            assert 0 < end.jacobians <= revmap.NEWTON_STEPS
            got = (ree._EYE_FLAT + end.c @ ree._B_FLAT).reshape(4, 4)
            assert np.abs(got - sigma).max() <= 1e-12 and abs(end.x - x) <= 1e-10

    def test_negative_multiplier_falls_back_to_the_oracle(self, monkeypatch):
        """x is the multiplier of sigma^Gamma >= 0, so a converged solve with
        x < 0 is not a CSS: with the converged end's x negated, and nothing
        else moved, css_auto takes route "oracle".  Its certificate, which
        reads the fit and not x, passes such an end."""
        rng = np.random.default_rng(7)
        sigma = generic_edge_state(rng)
        rho = revmap.family_from_css(sigma, 0.5 * physical_range(sigma))
        newton = revmap._newton

        def negated(*args):
            end = newton(*args)
            assert end.converged and end.x > 0
            return end._replace(x=-end.x)

        monkeypatch.setattr(revmap, "_newton", negated)
        assert css.css_auto(rho).route == "oracle"

    @pytest.mark.parametrize("failure", ["singular", "not finite", "halvings", "steps",
                                         "floor", "certificate"])
    def test_failure_falls_back_to_the_oracle(self, monkeypatch, failure):
        """A singular Jacobian (the solver's 16 x 16 `np.linalg.solve`
        raising LinAlgError), a step that is not finite, halvings that run
        out, the step cap, a CSS below RANK_FLOOR and a certificate below
        CERTIFICATE_TOL each send css_auto to the oracle, with no error; the
        oracle's REE lies in its own bracket.  Unpatched, the state takes
        route "reverse-map"."""
        rng = np.random.default_rng(7)
        sigma = generic_edge_state(rng)
        rho = revmap.family_from_css(sigma, 0.5 * physical_range(sigma))
        assert css.css_auto(rho).route == "reverse-map"
        solve = np.linalg.solve

        def patched(a, b):
            if a.shape == (16, 16):  # the Jacobian; the oracle's Hessian is 15 x 15
                if failure == "singular":
                    raise np.linalg.LinAlgError("Singular matrix")
                return np.full(16, np.nan)
            return solve(a, b)

        if failure in ("singular", "not finite"):
            monkeypatch.setattr(np.linalg, "solve", patched)
        else:
            name, value = {"halvings": ("MAX_HALVINGS", 0), "steps": ("NEWTON_STEPS", 2),
                           "floor": ("RANK_FLOOR", 1.0),
                           "certificate": ("CERTIFICATE_TOL", 1.0)}[failure]
            monkeypatch.setattr(revmap, name, value)
        end = revmap._newton(rho, *validate_density_matrix(rho))
        assert end.converged is (failure in ("floor", "certificate"))
        res = css.css_auto(rho)
        monkeypatch.undo()
        assert res.route == "oracle" and res.family.kind is css.FamilyKind.OTHER
        num = ree_numeric(rho)
        assert num.lower <= res.ree <= num.value
