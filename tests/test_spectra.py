import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reegeom import spectra
from reegeom.qstate import PauliForm, from_pauli, partial_transpose

unit = st.floats(-1.0, 1.0, allow_nan=False)


def canonical_matrix(r, s, q1, q2, q3):
    """The canonical state (r, s, q1, q2, q3) as a dense 4x4 matrix."""
    return from_pauli(PauliForm(np.array([0, 0, r]), np.array([0, 0, s]), np.diag([q1, q2, q3])))


def dense_deviation(r, s, q1, q2, q3):
    """Largest deviation of branch_min from the smallest dense eigenvalue, of
    the state at (q1, q2) and of its partial transpose at (q1, -q2)."""
    m = canonical_matrix(r, s, q1, q2, q3)
    d1 = abs(spectra.branch_min(r, s, q1, q2, q3) - np.linalg.eigvalsh(m)[0])
    d2 = abs(spectra.branch_min(r, s, q1, -q2, q3)
             - np.linalg.eigvalsh(partial_transpose(m))[0])
    return float(max(d1, d2))


class TestEigensystem:
    def test_matches_dense_solver(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(500):
            worst = max(worst, dense_deviation(*rng.uniform(-1, 1, size=5)))
        assert worst < 1e-12

    @given(unit, unit, unit, unit, unit)
    @settings(max_examples=100)
    def test_matches_dense_property(self, r, s, q1, q2, q3):
        assert dense_deviation(r, s, q1, q2, q3) < 1e-10


class TestModuli:
    def test_within_one_ulp_of_hypot(self):
        """sqrt(a * a + b * b) is within one ulp of np.hypot, relative 2.3e-16,
        on 1e5 points; so the mu- root 1 - M1 and the nu- root M2 - 1 move by
        at most an ulp of M, 4.5e-16 at M <= 2.83, and only where M does."""
        r, s, q1, q2 = np.random.default_rng(36).uniform(-1.0, 1.0, size=(4, 100_000))
        got = spectra.moduli(r, s, q1, q2)
        want = np.hypot(r - s, q1 + q2), np.hypot(r + s, q1 - q2)
        for m, h in zip(got, want):
            assert np.all(np.abs(m - h) <= np.spacing(h))
            assert np.all(np.abs(m - h) <= 2.3e-16 * h)
            moved = np.abs((1.0 - m) - (1.0 - h))
            assert np.all(moved <= 4.5e-16) and np.all(moved[m == h] == 0.0)


class TestMinBranches:
    def test_min_branch_is_smallest_eigenvalue(self):
        # one call over arrays, as the geometry makes it
        r, s, q1, q2, q3 = np.random.default_rng(12).uniform(-1, 1, size=(200, 5)).T
        m = np.array([canonical_matrix(*z) for z in zip(r, s, q1, q2, q3)])
        pt = np.array([partial_transpose(a) for a in m])
        np.testing.assert_allclose(spectra.branch_min(r, s, q1, q2, q3),
                                   np.linalg.eigvalsh(m)[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(spectra.branch_min(r, s, q1, -q2, q3),
                                   np.linalg.eigvalsh(pt)[:, 0], rtol=0, atol=1e-12)


class TestBoundarySheets:
    def test_roots_lie_on_boundary(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            r, s, q1, q2 = rng.uniform(-0.6, 0.6, size=4)
            for sign in (1, -1):  # the state body, then the separable body
                mu, nu, inside = spectra.boundary_roots(*spectra.moduli(r, s, q1, sign * q2))
                if inside:
                    for q3 in (mu, nu):
                        assert abs(spectra.branch_min(r, s, q1, sign * q2, q3)) < 1e-12

    def test_zero_bloch_state_body_is_tetrahedron_planes(self):
        # at r = s = 0 the two sheets reduce to q3 = 1 - |q1 + q2| and
        # q3 = |q1 - q2| - 1
        for q1, q2 in [(0.3, 0.2), (-0.5, 0.1), (0.0, 0.0), (0.7, -0.7)]:
            mu, nu, inside = spectra.boundary_roots(*spectra.moduli(0, 0, q1, q2))
            assert inside
            assert mu == pytest.approx(1 - abs(q1 + q2))
            assert nu == pytest.approx(abs(q1 - q2) - 1)

    def test_zero_bloch_separable_body_is_octahedron(self):
        # only roots that are also physical states count; the sheet equations
        # alone extend past the state body
        hits = 0
        for q1, q2 in [(0.3, 0.2), (-0.5, 0.1), (0.25, -0.6)]:
            mu, nu, inside = spectra.boundary_roots(*spectra.moduli(0, 0, q1, -q2))
            for q3 in (mu, nu) if inside else ():
                if spectra.branch_min(0, 0, q1, q2, q3) < -1e-10:
                    continue
                hits += 1
                assert abs(q1) + abs(q2) + abs(q3) == pytest.approx(1.0)
        assert hits >= 3

    def test_sheets_absent_outside_footprint(self):
        # M1 + M2 > 2 leaves no q3 root at all
        _, _, inside = spectra.boundary_roots(*spectra.moduli(0.9, -0.9, 0.9, 0.9))
        assert not inside
