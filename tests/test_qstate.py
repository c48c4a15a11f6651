import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reegeom import qstate, ree, revmap
from reegeom.errors import InvalidState

from conftest import random_density_matrix, random_unitary, reference_frames, rotate

OPS = (qstate.I2,) + qstate.PAULI  # sigma_0 = I, sigma_1..3


def kron_to_pauli(m):
    """Reference: c_ab = tr(m sigma_a x sigma_b) from explicit Kronecker products."""
    c = np.array([[np.trace(m @ np.kron(a, b)).real for b in OPS] for a in OPS])
    return c[1:, 0], c[0, 1:], c[1:, 1:]


def kron_from_pauli(r, s, g):
    """Reference: (1/4) sum_ab c_ab sigma_a x sigma_b with c_00 = 1."""
    c = np.block([[np.ones((1, 1)), np.reshape(s, (1, 3))],
                  [np.reshape(r, (3, 1)), g]])
    return sum(c[a, b] * np.kron(OPS[a], OPS[b])
               for a in range(4) for b in range(4)) / 4


def random_hermitian(rng):
    a = rng.uniform(-1, 1, size=(4, 4)) + 1j * rng.uniform(-1, 1, size=(4, 4))
    return (a + a.conj().T) / 2


def rotation_about(axis, angle):
    """Rodrigues' formula for the rotation by `angle` about `axis`."""
    n = np.asarray(axis, float) / np.linalg.norm(axis)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.cos(angle) * np.eye(3) + np.sin(angle) * k \
        + (1 - np.cos(angle)) * np.outer(n, n)


BLOCKS = "shape r [3], s [3], g [3x3]"
Z3, Z33 = np.zeros(3), np.zeros((3, 3))
# each call, with the InvalidState invariant that it must raise
MALFORMED_PAULI = {
    "canonicalize-blocks-4-2-9": (
        lambda: qstate.canonicalize(qstate.PauliForm(np.zeros(4), np.zeros(2), 0.1 * np.eye(3))),
        BLOCKS),
    "g-2x2": (lambda: qstate.from_pauli(qstate.PauliForm(Z3, Z3, np.eye(2))), BLOCKS),
    "g-4x4": (lambda: qstate.from_pauli(qstate.PauliForm(Z3, Z3, np.eye(4))), BLOCKS),
    "bell-diagonal-2": (lambda: qstate.bell_diagonal([0.1, 0.2]), BLOCKS),
    "r-scalar": (lambda: qstate.from_pauli(qstate.PauliForm(0.1, Z3, Z33)), BLOCKS),
    "r-length-1": (lambda: qstate.from_pauli(qstate.PauliForm([0.1], Z3, Z33)), BLOCKS),
    "g-nan": (lambda: qstate.from_pauli(qstate.PauliForm(Z3, Z3, np.diag([0.1, np.nan, 0.1]))),
              "finite entries"),
    "t-nan": (lambda: qstate.bell_diagonal([0.1, 0.2, np.nan]), "finite entries"),
    "r-inf": (lambda: qstate.from_pauli(qstate.PauliForm(np.array([0.0, np.inf, 0.0]), Z3, Z33)),
              "finite entries"),
    "r-complex": (lambda: qstate.from_pauli(qstate.PauliForm(np.array([0.1j, 0, 0]), Z3, Z33)),
                  "real entries"),
    "s-complex": (lambda: qstate.from_pauli(qstate.PauliForm(Z3, np.array([0, 0.1j, 0]), Z33)),
                  "real entries"),
    "g-complex": (lambda: qstate.from_pauli(qstate.PauliForm(Z3, Z3, np.diag([0, 0, 0.1j]))),
                  "real entries"),
    "bell-diagonal-complex": (lambda: qstate.bell_diagonal([0.1, 0.1j, 0.1]), "real entries"),
    "canonicalize-g-complex": (
        lambda: qstate.canonicalize(qstate.PauliForm(Z3, Z3, (1 + 0.5j) * np.eye(3))),
        "real entries"),
}


class TestValidation:
    def test_bell_states_valid(self):
        for b in qstate.BELL_STATES:
            qstate.validate_density_matrix(b)

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(InvalidState) as exc:
            qstate.validate_density_matrix(m)
        assert exc.value.invariant == "Hermiticity"

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidState) as exc:
            qstate.validate_density_matrix(np.eye(3) / 3)
        assert exc.value.invariant == "shape 4x4" and exc.value.magnitude == 9.0

    def test_wrong_trace_rejected(self):
        with pytest.raises(InvalidState) as exc:
            qstate.validate_density_matrix(np.eye(4, dtype=complex))
        assert exc.value.invariant == "unit trace"

    def test_negative_rejected(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(InvalidState) as exc:
            qstate.validate_density_matrix(m)
        assert exc.value.invariant == "positive semidefiniteness"
        assert exc.value.magnitude == pytest.approx(0.1)

    def test_returns_the_pt_spectra(self, rng):
        """A valid state's return is `_pt_spectra(rho)` bit for bit: the
        spectra its PSD test reads, which the routes take instead of a second
        eigh."""
        rho = random_density_matrix(rng, 3)
        (w, v), (w_ref, v_ref) = qstate.validate_density_matrix(rho), qstate._pt_spectra(rho)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        m = np.diag([bad, 1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvalidState) as exc:
            qstate.validate_density_matrix(m)
        assert exc.value.invariant == "finite entries"

    @pytest.mark.parametrize("call", [
        qstate.is_ppt, qstate.concurrence, revmap.g_matrix,
        lambda m: revmap.family_from_css(m, 0.1),
        lambda m: revmap.recover(m, qstate.BELL_STATES[0]),
        lambda m: revmap.recover(np.diag([0.5, 0, 0, 0.5]), m)],
        ids=["is_ppt", "concurrence", "g_matrix", "family_from_css",
             "recover-sigma", "recover-rho"])
    def test_non_finite_matrix_rejected(self, call):
        """Every function that takes a spectrum of a matrix, or fits rho in
        `recover`, raises InvalidState on a NaN entry, not LinAlgError or a
        NaN result."""
        m = np.diag([np.nan, 1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvalidState) as exc:
            call(m)
        assert exc.value.invariant == "finite entries" and exc.value.magnitude == 1

    @pytest.mark.parametrize("m", [np.eye(2) / 2, np.eye(3) / 3, np.array([np.eye(4) / 4] * 2),
                                   np.eye(4).ravel() / 4], ids=["2x2", "3x3", "2x4x4", "flat-16"])
    @pytest.mark.parametrize("call", [
        qstate.is_ppt, qstate.concurrence, revmap.g_matrix,
        lambda m: revmap.family_from_css(m, 0.1),
        lambda m: revmap.recover(m, qstate.BELL_STATES[0]),
        lambda m: revmap.recover(np.diag([0.5, 0, 0, 0.5]), m),
        lambda m: ree.relative_entropy(m, np.eye(4) / 4),
        lambda m: ree.relative_entropy(np.eye(4) / 4, m),
        lambda m: ree.directional_optimality_check(m, np.eye(4) / 4),
        lambda m: ree.directional_optimality_check(qstate.BELL_STATES[0], m)],
        ids=["is_ppt", "concurrence", "g_matrix", "family_from_css", "recover-sigma",
             "recover-rho", "relative_entropy-rho", "relative_entropy-sigma",
             "directional_optimality_check-rho", "directional_optimality_check-css"])
    def test_wrong_shape_matrix_rejected(self, call, m):
        """Every function that takes a spectrum of a matrix, or fits rho in
        `recover`, raises InvalidState with the size of a matrix that is not
        4x4, as `validate_density_matrix` does, not numpy's error or a number."""
        with pytest.raises(InvalidState) as exc:
            call(m)
        assert exc.value.invariant == "shape 4x4" and exc.value.magnitude == m.size


    def test_pt_spectra_is_eigh_of_the_pair(self):
        """`_pt_spectra(m)`, which stacks m and m^Gamma by one gather of
        `_PT_PAIR`, equals eigh of np.array([m, partial_transpose(m)]) bit for
        bit, eigenvalues and eigenvectors, on 20,000 random complex 4x4
        matrices, half of them Hermitian and half not."""
        rng = np.random.default_rng(51)
        for n in range(20_000):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            if n % 2:
                m = (m + m.conj().T) / 2
            (w, v), (w_ref, v_ref) = qstate._pt_spectra(m), np.linalg.eigh(
                np.array([m, qstate.partial_transpose(m)]))
            assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()


class TestPauliDecomposition:
    def test_maximally_mixed_is_zero(self):
        p = qstate.to_pauli(np.eye(4) / 4)
        assert np.allclose(p.r, 0) and np.allclose(p.s, 0) and np.allclose(p.g, 0)

    def test_bell_correlation_tensors(self):
        # the four Bell states have zero Bloch vectors and diagonal g with
        # entries of magnitude one and product -1
        expected = [np.diag([1.0, -1.0, 1.0]), np.diag([-1.0, 1.0, 1.0]),
                    np.diag([1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, -1.0])]
        for b, g in zip(qstate.BELL_STATES, expected):
            p = qstate.to_pauli(b)
            assert np.allclose(p.r, 0, atol=1e-14)
            assert np.allclose(p.s, 0, atol=1e-14)
            assert np.allclose(p.g, g, atol=1e-14)

    def test_round_trip_many_states(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            rho = random_density_matrix(rng)
            back = qstate.from_pauli(qstate.to_pauli(rho))
            assert np.max(np.abs(back - rho)) < 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50)
    def test_round_trip_property(self, seed):
        rho = random_density_matrix(np.random.default_rng(seed))
        back = qstate.from_pauli(qstate.to_pauli(rho))
        assert np.max(np.abs(back - rho)) < 1e-12

    def test_transforms_match_kronecker_definition(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            h = random_hermitian(rng)
            p = qstate.to_pauli(h)
            for got, want in zip((p.r, p.s, p.g), kron_to_pauli(h)):
                assert np.max(np.abs(got - want)) <= 1e-15
            back = qstate.from_pauli(p)
            assert np.max(np.abs(back - kron_from_pauli(p.r, p.s, p.g))) <= 1e-15

    def test_one_pauli_rows_table(self):
        """`ree` and `revmap` read Pauli coordinates through qstate's one
        table, and rebuild states through its one builder (`ree` also stacks
        sigma^Gamma on its two tables), and `to_pauli`'s 15 rows of it give
        the bits of the full 16-row product it replaced."""
        assert ree._PAULI_ROWS is qstate._PAULI_ROWS
        assert revmap._PAULI_ROWS is qstate._PAULI_ROWS
        for table in ("_B_FLAT", "_EYE_FLAT"):
            assert getattr(ree, table) is getattr(qstate, table)
        assert ree._from_coordinates is revmap._from_coordinates is qstate._from_coordinates
        rng = np.random.default_rng(39)
        for _ in range(1000):
            h = random_hermitian(rng)
            c = (qstate.PAULI_BASIS.conj() @ h.reshape(16)).real.reshape(4, 4)
            p = qstate.to_pauli(h)
            for got, want in zip((p.r, p.s, p.g), (c[1:, 0], c[0, 1:], c[1:, 1:])):
                assert np.array_equal(got, want)

    def test_from_pauli_is_the_solvers_arithmetic(self):
        """`from_pauli` of the blocks of x is _EYE_FLAT + x @ _B_FLAT, the
        state the oracle and the reverse map build, bit for bit."""
        rng = np.random.default_rng(0)
        for _ in range(20000):
            x = rng.uniform(-1, 1, size=15)
            c = np.append(1.0, x).reshape(4, 4)  # c_ab = x_k, k = 4a + b - 1
            got = qstate.from_pauli(qstate.PauliForm(c[1:, 0], c[0, 1:], c[1:, 1:]))
            assert np.array_equal(got, (qstate._EYE_FLAT + x @ qstate._B_FLAT).reshape(4, 4))

    def test_builder_is_from_pauli_byte_for_byte(self):
        """The unchecked builder, `_from_coordinates(_coordinates(r, s, g))`,
        is `from_pauli(PauliForm(r, s, g))` byte for byte, zero signs
        included, on 20,000 random coordinate vectors with exact zeros of
        either sign; and so is it with the closed form's g = (a^T * tau) @ b
        against a^T @ diag(tau) @ b, for random rotations and for the signed
        permutations of the template frames."""
        rng = np.random.default_rng(50)
        frames = reference_frames()
        for k in range(20000):
            x = rng.uniform(-1, 1, size=15)
            x[rng.random(15) < 0.2] = 0.0
            x[rng.random(15) < 0.1] = -0.0
            r, s, g = x[3::4], x[:3], x[3:].reshape(3, 4)[:, 1:]
            got = qstate._from_coordinates(qstate._coordinates(r, s, g))
            assert got.tobytes() == qstate.from_pauli(qstate.PauliForm(r, s, g)).tobytes()
            a, b = (frames[k % len(frames)] if k % 2 else
                    [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2)])
            tau = g.diagonal().copy()
            got = qstate._from_coordinates(qstate._coordinates(r, s, (a.T * tau) @ b))
            want = qstate.from_pauli(qstate.PauliForm(r, s, a.T @ np.diag(tau) @ b))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(MALFORMED_PAULI))
    def test_malformed_pauli_form_rejected(self, name):
        """A Pauli form whose blocks are not r [3], s [3] and g [3x3], or with
        a NaN, infinite or non-real entry, raises InvalidState with no
        warning: not numpy's ValueError, a state with r broadcast from one
        number, a matrix of NaNs, or the real part with a ComplexWarning."""
        call, invariant = MALFORMED_PAULI[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidState) as exc:
                call()
        assert exc.value.invariant == invariant
        if invariant == "real entries":
            # the count of non-real entries: three on the diagonal of (1 + 0.5j) I
            assert exc.value.magnitude == (3.0 if name == "canonicalize-g-complex" else 1.0)

    @pytest.mark.parametrize("dtype", [int, float, complex])
    def test_real_blocks_of_any_dtype_accepted(self, dtype):
        """Blocks of int or float dtype, or complex with zero imaginary
        parts, give the float blocks' state with no warning."""
        blocks = np.array([0, 0, 1]), np.array([1, 0, 0]), np.diag([1, -1, 1])
        want = qstate.from_pauli(qstate.PauliForm(*(b.astype(float) for b in blocks)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = qstate.from_pauli(qstate.PauliForm(*(b.astype(dtype) for b in blocks)))
        assert np.array_equal(got, want) and got.dtype == complex

    def test_partial_trace_consistency(self, rng):
        rho = random_density_matrix(rng)
        p = qstate.to_pauli(rho)
        # r is the Bloch vector of rho_A, traced out by hand, and s of rho_B
        r4 = rho.reshape(2, 2, 2, 2)
        ra, rb = np.einsum("ikjk->ij", r4), np.einsum("kikj->ij", r4)
        assert np.trace(ra).real == pytest.approx(1.0)
        for k, pauli in enumerate(qstate.PAULI):
            assert np.trace(ra @ pauli).real == pytest.approx(p.r[k])
            assert np.trace(rb @ pauli).real == pytest.approx(p.s[k])

    def test_product_state_tensor_factorizes(self, rng):
        a = random_density_matrix(rng)[:2, :2]
        a = (a + a.conj().T) / 2
        a /= np.trace(a).real
        b = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        rho = np.kron(a, b)
        p = qstate.to_pauli(rho)
        assert np.allclose(p.g, np.outer(p.r, p.s), atol=1e-12)


class TestPartialTranspose:
    def test_involution(self, rng):
        rho = random_density_matrix(rng)
        assert np.allclose(qstate.partial_transpose(qstate.partial_transpose(rho)), rho)

    def test_bell_negative(self):
        for b in qstate.BELL_STATES:
            assert qstate.validate_density_matrix(b)[0][1, 0] == pytest.approx(-0.5)
            assert not qstate.is_ppt(b)

    def test_werner_threshold(self):
        # the isotropic mixture crosses separability at visibility 1/3
        for p, ppt in [(0.32, True), (0.34, False)]:
            rho = p * qstate.BELL_STATES[0] + (1 - p) * np.eye(4) / 4
            assert qstate.is_ppt(rho) is ppt


class TestConcurrence:
    def test_bell_states_maximal(self):
        for b in qstate.BELL_STATES:
            assert qstate.concurrence(b) == pytest.approx(1.0)

    def test_maximally_mixed_zero(self):
        assert qstate.concurrence(np.eye(4) / 4) == 0.0

    @pytest.mark.parametrize("scale", [1e308, 1.7e308])
    def test_overflowing_product_rejected(self, scale):
        """Finite entries near 1e308 overflow the largest eigenvalue of H,
        4 x scale: concurrence raises InvalidState with no floating-point
        warning, where psi = V sqrt(p) would be inf x 0 = NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidState) as exc:
                qstate.concurrence(np.full((4, 4), scale))
        assert exc.value.invariant == "finite eigenvalues" and exc.value.magnitude == 1

    def test_closed_forms(self):
        """Within 1e-12 of the closed forms under random local unitaries,
        where eigvals of rho rho~ and square roots of its eigenvalues that
        round near zero erred by up to about 2.5e-8: 2 |c00 c11 - c01 c10|
        for a pure state, max(0, 2 p_max - 1) for a Bell-diagonal state of
        rank 1 to 3, and l1 for a VP state."""
        rng = np.random.default_rng(52)
        cases = []
        for _ in range(100):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            c /= np.linalg.norm(c)
            cases.append((np.outer(c, c.conj()), 2 * abs(c[0] * c[3] - c[1] * c[2])))
            for rank in (1, 2, 3):
                p = rng.permutation(np.concatenate([rng.dirichlet(np.ones(rank)),
                                                    np.zeros(4 - rank)]))
                cases.append((sum(w * b for w, b in zip(p, qstate.BELL_STATES)),
                              max(0.0, 2 * p.max() - 1)))
            lam = rng.dirichlet(np.ones(3))
            cases.append((lam[0] * qstate.BELL_STATES[0] + np.diag([lam[1], 0, 0, lam[2]]),
                          lam[0]))
        for rho, want in cases:
            rho = rotate(rho, random_unitary(rng), random_unitary(rng))
            assert abs(qstate.concurrence(rho) - want) <= 1e-12, want

    def test_ppt_iff_concurrence_zero(self):
        rng = np.random.default_rng(2)
        n_ent = 0
        for _ in range(1000):
            rho = random_density_matrix(rng, rank=rng.integers(1, 5))
            ppt = qstate.is_ppt(rho)
            c = qstate.concurrence(rho)
            if ppt:
                assert c < 1e-7
            else:
                n_ent += 1
                assert c > 0
        assert n_ent > 100  # the sample must actually exercise both branches


def rotation_from_su2(u: np.ndarray) -> np.ndarray:
    """Reference for su2_from_rotation: the SO(3) action of conjugation by a
    single-qubit unitary."""
    return np.array(
        [[0.5 * np.trace(qstate.PAULI[i] @ u @ qstate.PAULI[j] @ u.conj().T).real
          for j in range(3)]
         for i in range(3)]
    )


class TestLocalUnitary:
    """The SU(2) lift of a local frame, which `decompose` prints."""

    def test_su2_lift_covariance(self, rng):
        for _ in range(20):
            rot = rotation_from_su2(random_unitary(rng))
            u = qstate.su2_from_rotation(rot)
            assert np.allclose(rotation_from_su2(u), rot, atol=1e-12)
            v = rng.normal(size=3)
            vs = sum(v[i] * qstate.PAULI[i] for i in range(3))
            rvs = sum((rot @ v)[i] * qstate.PAULI[i] for i in range(3))
            assert np.allclose(u @ vs @ u.conj().T, rvs, atol=1e-12)

    @pytest.mark.parametrize("axis, angle", [
        ((1, 2, 3), 0.3),                  # trace branch
        ((1, 0, 0), 2.5), ((0, 1, 0), 2.5), ((0, 0, 1), 2.5),  # diagonal branches
        ((1, 0, 0), np.pi), ((0, 1, 0), np.pi), ((0, 0, 1), np.pi),
        ((1, 1, 0), np.pi),                # tie between two diagonal entries
        ((0, 0, 1), 0.0),
    ])
    def test_su2_lift_matches_scipy(self, axis, angle):
        from scipy.spatial.transform import Rotation

        rot = rotation_about(axis, angle)
        u = qstate.su2_from_rotation(rot)
        v = np.array([0.3, -0.7, 0.5])
        vs = sum(v[i] * qstate.PAULI[i] for i in range(3))
        rvs = sum((rot @ v)[i] * qstate.PAULI[i] for i in range(3))
        assert np.allclose(u @ vs @ u.conj().T, rvs, atol=1e-14)
        x, y, z, w = Rotation.from_matrix(rot).as_quat()
        want = w * qstate.I2 - 1j * (x * qstate.SX + y * qstate.SY + z * qstate.SZ)
        assert np.max(np.abs(u - want)) <= 1e-15

    def test_su2_lift_matches_scipy_random(self):
        from scipy.spatial.transform import Rotation

        for rot in Rotation.random(500, random_state=8).as_matrix():
            x, y, z, w = Rotation.from_matrix(rot).as_quat()
            want = w * qstate.I2 - 1j * (x * qstate.SX + y * qstate.SY + z * qstate.SZ)
            assert np.max(np.abs(qstate.su2_from_rotation(rot) - want)) <= 1e-15


class TestCanonicalize:
    @pytest.mark.parametrize("field", ["r", "s", "g"])
    def test_non_finite_rejected(self, field):
        """A NaN anywhere in the Pauli form raises InvalidState, not the SVD's
        LinAlgError or a NaN frame."""
        p = qstate.to_pauli(qstate.BELL_STATES[0])
        parts = {"r": p.r.copy(), "s": p.s.copy(), "g": p.g.copy()}
        parts[field].flat[0] = np.nan
        with pytest.raises(InvalidState) as exc:
            qstate.canonicalize(qstate.PauliForm(**parts))
        assert exc.value.invariant == "finite entries" and exc.value.magnitude == 1

    def test_q_sorted_and_signed(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rho = random_density_matrix(rng)
            dpf, _, _ = qstate.canonicalize(qstate.to_pauli(rho))
            q = dpf.q
            assert abs(q[0]) >= abs(q[1]) >= abs(q[2]) - 1e-12
            assert q[0] >= -1e-12 and q[1] >= -1e-12

    def test_transforms_to_diagonal_frame(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            rho = random_density_matrix(rng)
            dpf, r_a, r_b = qstate.canonicalize(qstate.to_pauli(rho))
            assert np.linalg.det(r_a) == pytest.approx(1.0)
            assert np.linalg.det(r_b) == pytest.approx(1.0)
            mapped = qstate.to_pauli(rotate(rho, qstate.su2_from_rotation(r_a),
                                            qstate.su2_from_rotation(r_b)))
            assert np.allclose(mapped.g, np.diag(dpf.q), atol=1e-10)
            assert np.allclose(mapped.r, dpf.r, atol=1e-10)
            assert np.allclose(mapped.s, dpf.s, atol=1e-10)

    def test_lu_invariance_of_q(self, rng):
        rho = random_density_matrix(rng)
        q0 = qstate.canonicalize(qstate.to_pauli(rho))[0].q
        rho1 = rotate(rho, random_unitary(rng), random_unitary(rng))
        q1 = qstate.canonicalize(qstate.to_pauli(rho1))[0].q
        assert np.allclose(q0, q1, atol=1e-10)

    def test_frame_sign_is_numpys(self):
        """`_det3`'s sign is np.linalg.det's on both SVD frames of 20,000 g
        (random, rank 0 to 2, and with repeated |q|, among them Werner and
        Bell-diagonal tensors), and on improper frames planted from them;
        on every tenth g, `_canonicalize` equals its np.linalg.det version
        byte for byte."""
        rng = np.random.default_rng(51)
        odd = np.eye(3)[[1, 0, 2]]  # an odd permutation: det -1 exactly

        def rotated(q):
            u, v = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
            return (u * q) @ v.T

        kinds = (lambda q: rng.normal(size=(3, 3)),
                 lambda q: np.outer(rng.normal(size=3), rng.normal(size=3)),
                 lambda q: rotated([q[0], q[1], 0.0]),
                 lambda q: np.zeros((3, 3)),
                 lambda q: rotated([q[0], q[0], -q[0]]),
                 lambda q: rotated([q[0], -q[0], q[1]]),
                 lambda q: np.diag([q[0], -q[0], q[0]]),  # Werner
                 lambda q: np.diag(q.round(1)))  # Bell-diagonal, |q| often repeated
        for k in range(20000):
            g = kinds[k % len(kinds)](rng.uniform(-1, 1, size=3))
            o1, _, o2t = np.linalg.svd(g)
            for o in (o1, o2t.T, -o1, o2t.T @ odd, odd @ o1):
                assert (qstate._det3(o.tolist()) < 0) == (np.linalg.det(o) < 0)
            if k % 10:
                continue
            p = qstate.PauliForm(rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=3), g)
            got, want = qstate._canonicalize(p), canonicalize_by_det(p)
            for x, y in zip((got[0].r, got[0].s, got[0].q, got[1], got[2]),
                            (want[0].r, want[0].s, want[0].q, want[1], want[2])):
                assert x.tobytes() == y.tobytes()


def canonicalize_by_det(p):
    """Reference: `qstate._canonicalize` reading each frame's handedness
    from np.linalg.det."""
    o1, q, o2t = np.linalg.svd(p.g)
    o2 = o2t.T
    for o, det in zip((o1, o2), np.linalg.det(np.array([o1, o2]))):
        if det < 0:
            o[:, 2] *= -1
            q[2] *= -1
    r_a, r_b = o1.T.copy() + 0.0, o2.T.copy() + 0.0
    return qstate.DiagonalPauliForm(r_a @ p.r, r_b @ p.s, q), r_a, r_b
