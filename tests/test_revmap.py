from decimal import Decimal, localcontext

import numpy as np
import pytest

from reegeom import css, revmap
from reegeom.errors import DegenerateZ, NotEdgeState, ParallelLines, RankDeficient
from reegeom.qstate import (
    PSD_TOL,
    min_eigenvalue,
    partial_transpose,
    to_pauli,
    validate_density_matrix,
)
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
            revmap.pt_kernel(np.eye(4, dtype=complex) / 4)


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
                return min_eigenvalue(sigma - x * g) >= -PSD_TOL

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
            assert min_eigenvalue(revmap.family_from_css(sigma, 0.999 * x_max)) >= -1e-12
            assert min_eigenvalue(revmap.family_from_css(sigma, 1.001 * x_max)) < 0
            # the bisection stops at lambda_min = -PSD_TOL, just past x_max
            assert bisection(sigma) == pytest.approx(x_max, rel=1e-7)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            revmap.family_from_css(bell_diagonal_params(0.2).matrix(), -0.1)


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
        with pytest.raises(ValueError):
            revmap.sample_params_for_bloch(1.0, 1.0, np.random.default_rng(0))


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
            if min_eigenvalue(m) < -psd_tol:
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
    return css._vp_parts(lam)[1]


def horodecki_css(lam):
    return css._horodecki_parts(lam)[1]


def x_vp_reference(lam) -> Decimal:
    """l1 (ln a - ln b) / (a - b) with a, b = l1/2 + l2, l1/2 + l3, in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        l1, l2, l3 = (Decimal(v) for v in lam)
        a, b = l1 / 2 + l2, l1 / 2 + l3
        return l1 / a if a == b else l1 * (a.ln() - b.ln()) / (a - b)


class TestRecovery:
    def test_vp_recovery(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            lam = tuple(rng.dirichlet([1, 1, 1]))
            if lam[0] < 0.05:
                continue
            back = revmap.recover_vp(vp_css(lam), lam)
            assert np.max(np.abs(back - css._vp_state(lam))) <= 1e-9

    def test_vp_recovery_degenerate_weights(self):
        lam = (0.4, 0.3, 0.3)
        back = revmap.recover_vp(vp_css(lam), lam)
        assert np.max(np.abs(back - css._vp_state(lam))) <= 1e-9

    def test_horodecki_recovery(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            lam = tuple(rng.dirichlet([1, 1, 1]))
            if lam[0] ** 2 <= 4 * lam[1] * lam[2] + 1e-3:
                continue
            back = revmap.recover_horodecki(horodecki_css(lam), lam)
            assert np.max(np.abs(back - css._horodecki_state(lam))) <= 1e-9

    def test_x_vp_continuity(self):
        # one formula from l2 = l3 (x = 2 l1) to the widest gap, to rounding
        for l1 in (0.05, 0.4, 0.9):
            gaps = [0.0, *np.geomspace(1e-16, 0.999 * (1 - l1), 60)]
            for g in gaps:
                lam = (l1, (1 - l1 + g) / 2, (1 - l1 - g) / 2)
                want = x_vp_reference(lam)
                got = revmap.x_vp(lam)
                assert abs((Decimal(got) - want) / want) <= Decimal("1e-15"), lam
        assert revmap.x_vp((0.4, 0.3, 0.3)) == 0.8
