import numpy as np
import pytest

from reegeom import css, revmap
from reegeom.errors import DegenerateZ, NotEdgeState, ParallelLines, RankDeficient
from reegeom.qstate import PSD_TOL, partial_transpose, to_pauli, validate_density_matrix
from reegeom.ree import _log_divided
from reegeom.revmap import SigmaZParams

from conftest import generic_edge_state, physical_range


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
    """The generator as built before `revmap._generators`, kept as its
    reference: a single unit vector phi spanning ker sigma^Gamma, and D_sigma's
    coefficients as reciprocal log divided differences on sigma's support."""
    sigma = np.asarray(sigma, dtype=complex)
    lam, v = np.linalg.eigh(sigma)
    if lam[0] <= 1e-12:
        raise RankDeficient(f"smallest eigenvalue {lam[0]:.3e} <= 1e-12")
    vals, vecs = np.linalg.eigh(partial_transpose(sigma))
    near_zero = np.abs(vals) <= revmap.EDGE_TOL
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
            r, s, t = revmap._z_family_rst(p, revmap.z_derivatives(p), x)
            pf = to_pauli(revmap.z_family(p, x))
            assert pf.r[2] == pytest.approx(r, abs=1e-12)
            assert pf.s[2] == pytest.approx(s, abs=1e-12)
            assert np.allclose(np.diag(pf.g), t, atol=1e-12)

    def test_derivative_identity(self):
        # the diagonal derivative coefficients sum to zero (trace preserved)
        p = revmap.sample_params_for_bloch(0.1, 0.2, np.random.default_rng(3))
        d = revmap.z_derivatives(p)
        assert d.rb1 + d.rb2 + d.rb3 + d.rb4 == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_z_raises(self):
        with pytest.raises(DegenerateZ):
            revmap.z_derivatives(SigmaZParams(0.0, 0.5, 0.5, 0.0))


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


class TestSweep:
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
