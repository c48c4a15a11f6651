import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from click.testing import CliRunner

import reegeom
from reegeom import cli, css, geometry, qstate, ree
from reegeom.errors import InvalidState
from reegeom.ree import (
    OracleConfig,
    directional_optimality_check,
    ree_numeric,
    relative_entropy,
)

from conftest import (
    coordinate_spectra,
    generic_edge_state,
    generic_family_state,
    hermitian_part,
    random_density_matrix,
    random_unitary,
    rotate,
)


class TestRelativeEntropy:
    def test_identical_states_zero(self, rng):
        rho = random_density_matrix(rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(50):
            a, b = random_density_matrix(rng), random_density_matrix(rng)
            assert relative_entropy(a, b) >= -1e-12

    def test_support_violation_infinite(self):
        rho = qstate.BELL_STATES[0]
        sigma = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        assert relative_entropy(rho, sigma) == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["rho", "sigma"])
    def test_non_finite_rejected(self, which, bad):
        good = np.eye(4, dtype=complex) / 4
        broken = np.diag([bad, 1.0, 0.0, 0.0]).astype(complex)
        args = (broken, good) if which == "rho" else (good, broken)
        with pytest.raises(InvalidState):
            relative_entropy(*args)

    def test_shared_support_finite(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        sigma = np.diag([0.25, 0.75, 0.0, 0.0]).astype(complex)
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)

    def test_diagonal_case_is_kl_divergence(self, rng):
        p = rng.dirichlet([1] * 4)
        q = rng.dirichlet([1] * 4)
        kl = float(np.sum(p * np.log(p / q)))
        assert relative_entropy(np.diag(p).astype(complex),
                                np.diag(q).astype(complex)) == pytest.approx(kl, abs=1e-12)

    def test_one_sigma_matches_reference(self):
        """One sigma at a time, bit for bit the subset-indexed reference on
        the Hermitian parts of rho and sigma, on rotated family states against
        their CSS and planted CSS, and on random pairs of every rank; and
        within 1e-14 of the overlap form sum_ij p_i |<u_i|v_j>|^2 ln q_j, with
        the same infinities."""
        rng = np.random.default_rng(41)
        pairs = []
        for rho in _family_states(rng, 10):
            c = css.css_auto(rho).css
            pairs += [(rho, c), (rho, 0.99 * c + 0.01 * np.eye(4) / 4)]
        pairs += [(random_density_matrix(rng, r), random_density_matrix(rng, k))
                  for r in (1, 2, 3, 4) for k in (r, 4) for _ in range(10)]
        for rho, sigma in pairs:
            got = relative_entropy(rho, sigma)
            rho, sigma = hermitian_part(rho), hermitian_part(sigma)
            assert type(got) is float
            assert got == _relative_entropy_reference(rho, sigma)
            overlap = _relative_entropy_reference(rho, sigma, overlap=True)
            assert (got == math.inf) == (overlap == math.inf)
            if got != math.inf:
                assert abs(got - overlap) <= 1e-14

    def test_unitary_invariance_and_data_processing(self):
        """On 500 pairs, rho of rank 1-4 and sigma of full rank: S is
        invariant under a random 4x4 unitary within 1e-12, plus 4 eps /
        lambda_min(sigma) for the rounding of U sigma U^dagger, which moves S
        by up to its gradient ~ 1 / lambda_min(sigma) times eps (1.3e-12 at
        lambda_min 3.9e-5, the same with the overlap form); and S does not
        grow under tr_B followed by appending I/2."""
        rng = np.random.default_rng(2041)

        def reduced(m):
            return np.kron(np.trace(m.reshape(2, 2, 2, 2), axis1=1, axis2=3), np.eye(2) / 2)

        for n in range(500):
            rho, sigma = random_density_matrix(rng, n % 4 + 1), random_density_matrix(rng)
            u = random_unitary(rng, 4)
            s = relative_entropy(rho, sigma)
            tol = 1e-12 + 4 * np.finfo(float).eps / np.linalg.eigvalsh(sigma)[0]
            assert abs(relative_entropy(u @ rho @ u.conj().T, u @ sigma @ u.conj().T) - s) <= tol
            assert relative_entropy(reduced(rho), reduced(sigma)) <= s + 1e-12


def _relative_entropy_reference(rho, sigma, overlap=False):
    """Reference: one sigma, with rho's null space and sigma's kernel cut out
    by subset indexing; -tr(rho ln sigma) from the weights <v_j|rho|v_j>, or
    with `overlap` from rho's eigenpairs through |<u_i|v_j>|^2."""
    p, u = np.linalg.eigh(rho)
    q, v = np.linalg.eigh(sigma)
    p = np.clip(p, 0.0, None)
    kernel = q <= ree.SUPPORT_TOL
    if np.any(kernel):
        k = v[:, kernel]
        if float(np.real(np.trace(k.conj().T @ rho @ k))) > ree.SUPPORT_TOL:
            return math.inf
    pos_p = p > ree.SUPPORT_TOL
    s_rho = float(np.sum(p[pos_p] * np.log(p[pos_p])))
    support = ~kernel
    if overlap:
        overlaps = np.abs(u.conj().T @ v) ** 2
        return s_rho - float(p[pos_p] @ overlaps[np.ix_(pos_p, support)] @ np.log(q[support]))
    weight = np.real(np.sum(v.conj() * (rho @ v), axis=0))
    return s_rho - float(weight[support] @ np.log(q[support]))


def _coordinates(sigma):
    """The oracle's 15 Pauli coordinates x_k = tr(sigma sigma_a (x) sigma_b)."""
    return (qstate.PAULI_BASIS.conj() @ sigma.reshape(16)).real[1:]


def _rotated(rng, m):
    return rotate(m, random_unitary(rng), random_unitary(rng))


class TestGradient:
    def test_matches_finite_differences(self):
        """Gradient and Hessian of the barrier objective against central
        differences of its value and gradient, at a generic interior point,
        a spectrum with three equal eigenvalues (Werner, (0.2, 0.2, 0.2, 0.4))
        and one with two eigenvalues 1e-9 apart."""
        rng = np.random.default_rng(30)
        rho = random_density_matrix(rng)
        for sigma in (
                0.3 * random_density_matrix(rng) + 0.7 * np.eye(4) / 4,
                _rotated(rng, 0.2 * qstate.BELL_STATES[3] + 0.8 * np.eye(4) / 4),
                _rotated(rng, np.diag([0.3, 0.2, 0.25 - 5e-10, 0.25 + 5e-10]))):
            self._check(rho, sigma)

    @staticmethod
    def _check(rho, sigma):
        x, mu, h = _coordinates(sigma), 1e-3, 1e-6
        assert qstate.is_ppt(sigma) and np.linalg.eigvalsh(sigma)[0] > 0

        def derivatives(y):
            w, v = coordinate_spectra(y)
            return (ree._value(rho, mu, w, v),) + ree._derivatives(rho, mu, w, v)[:2]

        _, grad, hess = derivatives(x)
        for i in range(15):
            e = np.zeros(15)
            e[i] = h
            fp, gp, _ = derivatives(x + e)
            fm, gm, _ = derivatives(x - e)
            fd = (fp - fm) / (2 * h)
            assert abs(fd - grad[i]) / max(1.0, abs(grad[i])) < 1e-5
            fd_col = (gp - gm) / (2 * h)
            assert np.all(np.abs(fd_col - hess[:, i])
                          / np.maximum(1.0, np.abs(hess[:, i])) < 1e-5)

    def test_hessian_at_close_eigenvalues(self):
        """The entropy term's Hessian (mu = 0) against central differences
        (h = 1e-6) of its gradient, where sigma = Q diag(1 - d, 1, 1 + d, 1) Q^dag
        / 4 has eigenvalues a relative 2e-3 to 1e-2 apart: the exact second
        divided differences keep the error within 1e-7 of the largest entry
        (about 1e-9 measured), while their limit -1 / (2 mean^2), which
        DIVIDED_SPREAD = 1e-2 would take there, is off by about 7e-6."""
        rng = np.random.default_rng(0)
        h = 1e-6

        def gradient(rho, y):
            return ree._derivatives(rho, 0.0, *coordinate_spectra(y))[0]

        for delta in (1e-3, 2e-3, 5e-3) * 5:
            q = random_unitary(rng, 4)
            sigma = q @ np.diag(np.array([1 - delta, 1, 1 + delta, 1]) / 4) @ q.conj().T
            rho = random_density_matrix(rng)
            assert np.linalg.eigvalsh(qstate.partial_transpose(sigma))[0] > 0
            x = _coordinates(sigma)
            hess = ree._derivatives(rho, 0.0, *coordinate_spectra(x))[1]
            fd = np.array([gradient(rho, x + h * e) - gradient(rho, x - h * e)
                           for e in np.eye(15)]).T / (2 * h)
            assert np.abs(fd - hess).max() <= 1e-7 * np.abs(hess).max()

    def test_log_divided_accurate_at_every_spread(self):
        """(ln a - ln b) / (a - b) to a few ulps, from coincident eigenvalues
        through spreads where ln a - ln b cancels to ones of 1e8."""
        for m in (1e-10, 1e-3, 0.25, 0.9):
            for rel in (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-5, 1.01e-5, 1e-4, 0.5, 1e8):
                a, b = m * (1 + rel), m
                with localcontext() as ctx:
                    ctx.prec = 50
                    exact = (1 / Decimal(a) if a == b else
                             (Decimal(a).ln() - Decimal(b).ln()) / (Decimal(a) - Decimal(b)))
                for got in (ree._log_divided(np.array(a), np.array(b)),
                            ree._log_divided(np.array(b), np.array(a))):
                    assert abs(float(got) / float(exact) - 1) <= 4e-16


# References: the barrier objective's pieces written plainly (tensordot,
# np.real, np.sum, (3, 4, 4, 4) index triples); ree's leaner versions must
# match them bit for bit.
_TRIPLES_REFERENCE = np.array(
    [sorted(t) for t in itertools.product(range(4), repeat=3)]).T.reshape(3, 4, 4, 4)
# sigma = I/4 + sum_k x_k B_k, B_k = (sigma_a (x) sigma_b) / 4 flattened, k = 4a + b - 1;
# the partial transpose flips the sign of each B_k with sigma_y on B, k = 1, 5, 9, 13
_B_REFERENCE = qstate.PAULI_BASIS[1:] / 4
_PT_SIGN_REFERENCE = np.array([1, -1, 1, 1, 1, -1, 1, 1, 1, -1, 1, 1, 1, -1, 1], dtype=float)
_DIRECTIONS_REFERENCE = np.stack([_B_REFERENCE, _PT_SIGN_REFERENCE[:, None] * _B_REFERENCE])


def _spectra_reference(x):
    m = np.eye(4) / 4 + np.tensordot(np.stack([x, _PT_SIGN_REFERENCE * x]),
                                     _B_REFERENCE.reshape(15, 4, 4), axes=1)
    return np.linalg.eigh(m)


def _value_reference(rho, mu, w, v):
    if w[:, 0].min() <= 0.0:
        return math.inf
    weights = np.real(np.sum(v[0].conj() * (rho @ v[0]), axis=0))
    return -float(weights @ np.log(w[0])) - mu * float(np.sum(np.log(w)))


def _log_divided2_reference(w, l1):
    lo, mid, hi = _TRIPLES_REFERENCE
    mean = (w[lo] + w[mid] + w[hi]) / 3
    spread = w[hi] - w[lo]
    close = spread <= ree.DIVIDED_SPREAD * mean
    return np.where(close, -0.5 / mean ** 2,
                    (l1[hi, mid] - l1[mid, lo]) / np.where(close, 1.0, spread))


def _derivatives_reference(rho, mu, w, v):
    kron = (v.conj()[:, :, None, :, None] * v[:, None, :, None, :]).reshape(2, 16, 16)
    e = _DIRECTIONS_REFERENCE @ kron
    r = (rho.reshape(16) @ kron[0]).reshape(4, 4)
    l1 = ree._log_divided(w[0][:, None], w[0][None, :])
    grad = -np.real(e[0] @ (l1 * r).T.reshape(16))
    t = _log_divided2_reference(w[0], l1) * r.T[:, None, :]
    p = np.matmul(e[0].reshape(15, 4, 4).transpose(2, 0, 1), t.transpose(1, 0, 2))
    hess = -2.0 * np.real(p.transpose(1, 0, 2).reshape(15, 16) @ e[0].T)
    inv = 1.0 / w
    barrier = -np.real(e[:, :, ::5] * inv[:, None, :]).sum(axis=(0, 2))
    grad += mu * barrier
    c = (e * np.sqrt(inv[:, :, None] * inv[:, None, :]).reshape(2, 1, 16))
    c = c.transpose(1, 0, 2).reshape(15, 32)
    hess += mu * np.real(c @ c.conj().T)
    return grad, hess, barrier


class TestNewtonPieces:
    def test_bit_equal_to_reference(self):
        """`coordinate_spectra`, _value and _derivatives equal their
        references bit for bit at random interior points, a Werner spectrum
        with three equal eigenvalues, two eigenvalues 1e-9 apart, and
        (spectra and value, +inf) outside sigma > 0."""
        rng = np.random.default_rng(31)
        sigmas = [0.3 * random_density_matrix(rng) + 0.7 * np.eye(4) / 4 for _ in range(20)]
        sigmas += [_rotated(rng, 0.2 * qstate.BELL_STATES[3] + 0.8 * np.eye(4) / 4),
                   _rotated(rng, np.diag([0.3, 0.2, 0.25 - 5e-10, 0.25 + 5e-10]))]
        outside = _coordinates(_rotated(rng, np.diag([1.2, 0.1, -0.1, -0.2])))
        rho = random_density_matrix(rng, 3)
        for x in [_coordinates(s) for s in sigmas] + [outside]:
            w, v = coordinate_spectra(x)
            w_ref, v_ref = _spectra_reference(x)
            assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
            for mu in (1.0, 1e-3, 1e-9):
                f = ree._value(rho, mu, w, v)
                assert f == _value_reference(rho, mu, w, v)
                if x is outside:
                    assert f == math.inf
                    continue
                got, want = ree._derivatives(rho, mu, w, v), _derivatives_reference(rho, mu, w, v)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_coordinate_spectra_are_the_stacked_builder(self):
        """`qstate._pt_spectra(_from_coordinates(x))`, which the oracle and the
        reverse map take, equals the second builder it replaced, eigh of
        _EYE_FLAT + x @ _DIRECTIONS_FLAT, bit for bit on 20,000 draws of x."""
        rng = np.random.default_rng(1)
        for _ in range(20_000):
            x = rng.normal(size=15) * rng.choice([1e-3, 0.1, 0.3, 1.0])
            w, v = coordinate_spectra(x)
            w_ref, v_ref = np.linalg.eigh(
                (qstate._EYE_FLAT + x @ qstate._DIRECTIONS_FLAT).reshape(2, 4, 4))
            assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    def test_directions_stack_the_table_and_its_partial_transpose(self):
        """qstate._DIRECTIONS_FLAT, a gather of _PT_PAIR, is the C-ordered
        stack of _B_FLAT and its partial transpose, bit for bit."""
        table = qstate._B_FLAT
        want = np.stack([table,
                         qstate.partial_transpose(table.reshape(15, 4, 4)).reshape(15, 16)])
        got = qstate._DIRECTIONS_FLAT
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_frame_takes_matrices_into_the_basis(self):
        """(M.ravel() @ _frame(V)).reshape(4, 4) is V^dagger M V within 1e-15,
        for 500 random unitaries V and Hermitian M of spectral norm 1; a stack
        of bases gives each basis' frame, bit for bit."""
        rng = np.random.default_rng(40)
        worst = 0.0
        for _ in range(500):
            v = random_unitary(rng, 4)
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = (a + a.conj().T) / np.linalg.norm(a + a.conj().T, 2)
            got = (m.ravel() @ ree._frame(v)).reshape(4, 4)
            worst = max(worst, np.abs(got - v.conj().T @ m @ v).max())
        assert worst <= 1e-15
        stack = np.stack([random_unitary(rng, 4) for _ in range(2)])
        frames = ree._frame(stack)
        assert frames.shape == (2, 16, 16)
        assert all(np.array_equal(frames[i], ree._frame(stack[i])) for i in range(2))


class TestNumericOracle:
    def test_bell_states(self):
        for b in qstate.BELL_STATES:
            rep = ree_numeric(b)
            assert rep.converged
            assert abs(rep.value - math.log(2)) <= 1e-4

    def test_separable_state_zero(self, rng):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rep = ree_numeric(rho)
        assert rep.value <= 1e-6

    def test_css_is_separable(self):
        rep = ree_numeric(qstate.BELL_STATES[0])
        assert qstate.validate_density_matrix(rep.css_numeric)[0][1, 0] >= -1e-9

    def test_seed_determinism(self):
        """The barrier path has no random start: `seed` and `restarts` change
        no bit of the report."""
        rho = css._vp_state((0.5, 0.3, 0.2))
        a = ree_numeric(rho, OracleConfig(restarts=3, seed=5))
        b = ree_numeric(rho)
        assert (a.value, a.lower, a.gap, a.iterations, a.converged) == (
            b.value, b.lower, b.gap, b.iterations, b.converged)
        assert np.array_equal(a.css_numeric, b.css_numeric)


# perfbench solve-certified, seed 52, op 34: a rotated cos t|00> + sin t|11>
SEED52_PURE = np.array([
    [0.37184371990584714 - 2.7755575615628914e-17j,
     0.1477084668154544 + 7.6680791846201524e-02j,
     0.17693853655503197 - 5.4141766798651000e-02j,
     -0.40796070491318814 - 7.2164530634622248e-02j],
    [0.14770846681545438 - 7.6680791846201524e-02j,
     0.07448756970844067 + 0.0j,
     0.05912076829106445 - 5.7994752368325353e-02j,
     -0.1769369228895689 + 5.5462648990287765e-02j],
    [0.17693853655503197 + 5.4141766798651007e-02j,
     0.05912076829106445 + 5.7994752368325353e-02j,
     0.09207786711843699 - 6.9388939039072284e-18j,
     -0.18361707151550924 - 9.3739380078598028e-02j],
    [-0.4079607049131881 + 7.2164530634622248e-02j,
     -0.1769369228895689 - 5.5462648990287772e-02j,
     -0.18361707151550927 + 9.3739380078598014e-02j,
     0.46159084326727584 + 0.0j]])


def _entanglement_entropy(rho):
    # rho_A by tracing out the second qubit
    p = np.linalg.eigvalsh(np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2)))
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log(p)))


def _pure(theta, rng=None):
    v = np.array([math.cos(theta), 0, 0, math.sin(theta)], dtype=complex)
    rho = np.outer(v, v)
    return rho if rng is None else _rotated(rng, rho)


def _family_states(rng, n_per_family):
    """Rotated family states drawn as acceptance criterion 3 draws them."""
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

    for family in ("bell", "vp", "horodecki"):
        for _ in range(n_per_family):
            rho0 = sample(family)
            rho = rotate(rho0, random_unitary(rng), random_unitary(rng))
            rng.integers(2 ** 31)
            yield rho


class TestBracket:
    """lower <= REE - 1e-9 and REE <= value, with value within 1e-8 of the
    exact REE.  The barrier leaves lower 2e-9 or more below the REE, so no
    rounding allowance is taken off it; if a later change to the last
    barrier weight or to the bracket shrinks that slack until this fails, a
    rounding allowance must be reconsidered."""

    @staticmethod
    def _check(rho, exact):
        rep = ree_numeric(rho)
        assert rep.value - exact <= 1e-8
        assert rep.lower <= exact - 1e-9 and exact <= rep.value
        assert rep.converged and rep.gap <= 1e-6
        assert qstate.validate_density_matrix(rep.css_numeric)[0][1, 0] >= 0
        assert rep.value == relative_entropy(rho, rep.css_numeric)
        return rep

    def test_pure_states(self):
        # seed 52 came out 1.23e-6 above S(rho_A) from the multi-start oracle
        s_a = _entanglement_entropy(SEED52_PURE)
        assert s_a == pytest.approx(0.6873719036142252, abs=1e-14)
        self._check(SEED52_PURE, s_a)
        rng = np.random.default_rng(52)
        for theta in (0.2, 0.4, 0.65):
            rho = _pure(theta, rng)
            self._check(rho, _entanglement_entropy(rho))

    def test_family_and_bell_states(self):
        # every third of criterion 3's 300 states, the Bell states, 5 pure states
        states = list(_family_states(np.random.default_rng(100), 100))[::3]
        cases = [(rho, css.css_auto(rho).ree) for rho in states]
        cases += [(b, math.log(2)) for b in qstate.BELL_STATES]
        cases += [(_pure(t), _entanglement_entropy(_pure(t)))
                  for t in (0.05, 0.3, 0.5, 0.7, math.pi / 4)]
        assert len(cases) == 109
        for rho, exact in cases:
            self._check(rho, exact)

    def test_generic_states(self, monkeypatch):
        """On states of rank 1 to 4 with no closed form, the floor lies below
        <ab|G|ab> on sampled product states, and `lower` below S(rho||sigma)
        for the sigma of a path run on to mu = 1e-10.  The oracle's sigma has
        full rank, so `_log_gradient`'s kernel mask never acts on the
        bracket's G; the certificate reads the same G and bound, so it is at
        least -gap."""
        rng = np.random.default_rng(2024)
        states = [random_density_matrix(rng, rank) for rank in (1, 2, 3, 4) for _ in range(6)]
        products = _product_vectors(rng, 2000)
        reports = [ree_numeric(rho) for rho in states]
        for rho, rep in zip(states, reports):
            assert rep.converged and rep.gap <= 1e-6
            gmat = ree._log_gradient(rho, *np.linalg.eigh(rep.css_numeric))
            w, v = np.linalg.eigh(qstate.partial_transpose(rep.css_numeric))
            sampled = np.real(np.einsum("ki,ij,kj->k", products.conj(), gmat, products))
            q = (v * (ree.MU_SCHEDULE[-1] / w)) @ v.conj().T
            assert ree._dual_floor(gmat, q) <= sampled.min()
            assert np.linalg.eigvalsh(rep.css_numeric)[0] > ree.SUPPORT_TOL
            assert directional_optimality_check(rho, rep.css_numeric) >= -rep.gap - 1e-12
        monkeypatch.setattr(ree, "MU_SCHEDULE", ree.MU_SCHEDULE + (1e-10,))
        for rho, rep in zip(states, reports):
            assert rep.lower <= ree_numeric(rho).value

    def test_deterministic(self):
        a = ree_numeric(SEED52_PURE)
        b = ree_numeric(SEED52_PURE)
        assert a.value == b.value and np.array_equal(a.css_numeric, b.css_numeric)

    def test_runs_without_scipy(self):
        src = os.path.dirname(os.path.dirname(reegeom.__file__))
        code = ("import sys; sys.modules['scipy'] = None\n"
                "import numpy as np\n"
                "from reegeom import css_auto, qstate, ree_numeric\n"
                "rep = ree_numeric(qstate.BELL_STATES[0])\n"
                "rng = np.random.default_rng(7)\n"
                "a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))\n"
                "rho = 0.3 * a @ a.conj().T / np.trace(a @ a.conj().T).real\n"
                "rho = rho + 0.7 * qstate.BELL_STATES[0]\n"
                "res = css_auto(rho)\n"
                "assert rep.converged and not res.geometric and res.ree > 0\n"
                "print('ok')\n")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"


def _centre(rho, mu, x):
    """x(mu) on the central path, by damped Newton from x, run past the
    oracle's stage stop (half the squared decrement <= CENTERING_TOL * mu)
    until the decrement stops shrinking."""
    lam2 = math.inf
    for _ in range(100):
        w, v = coordinate_spectra(x)
        f = ree._value(rho, mu, w, v)
        grad, hess, _ = ree._derivatives(rho, mu, w, v)
        dx = ree._newton_step(grad, hess)
        slope = float(grad @ dx)
        if -slope / 2 <= 1e-24 or (-slope / 2 <= 1e-14 and -slope >= lam2):
            break
        lam2 = -slope
        t = 1.0
        while ree._value(rho, mu, *coordinate_spectra(x + t * dx)) > f + ree.ARMIJO_C * t * slope:
            t /= 2
            if t < 1e-12:
                return x
        x = x + t * dx
    return x


class TestPredictor:
    """The tangent step that opens each barrier weight after the first."""

    def test_barrier_gradient_matches_derivatives(self):
        """grad F at mu = 1 minus grad F at mu = 0 is the barrier gradient
        that _derivatives returns beside them."""
        rng = np.random.default_rng(31)
        rho = random_density_matrix(rng)
        for sigma in (0.3 * random_density_matrix(rng) + 0.7 * np.eye(4) / 4,
                      _rotated(rng, 0.2 * qstate.BELL_STATES[3] + 0.8 * np.eye(4) / 4),
                      np.eye(4) / 4):
            w, v = coordinate_spectra(_coordinates(sigma))
            grad1, _, barrier = ree._derivatives(rho, 1.0, w, v)
            want = grad1 - ree._derivatives(rho, 0.0, w, v)[0]
            assert np.max(np.abs(barrier - want)) <= 1e-13

    def test_tangent_lands_near_the_next_centre(self):
        """From x(mu), x - H^-1 grad phi (mu/10 - mu) lands within a tenth of
        the way to x(mu/10), in the median over all transitions; a sign error
        or a wrong weight change gives ratios of 1 or more."""
        rng = np.random.default_rng(5)
        states = list(_family_states(rng, 2))
        states += [random_density_matrix(rng, rank) for rank in (2, 3, 4)]
        ratios = []
        for rho in states:
            x = _centre(rho, ree.MU_SCHEDULE[0], np.zeros(15))
            for mu, mu_next in zip(ree.MU_SCHEDULE, ree.MU_SCHEDULE[1:]):
                w, v = coordinate_spectra(x)
                _, hess, barrier = ree._derivatives(rho, mu, w, v)
                pred = x + ree._newton_step((mu_next - mu) * barrier, hess)
                x_next = _centre(rho, mu_next, x)
                ratios.append(np.linalg.norm(pred - x_next) / np.linalg.norm(x - x_next))
                x = x_next
        assert len(ratios) == (len(ree.MU_SCHEDULE) - 1) * len(states)
        assert np.median(ratios) < 0.1

    def test_step_count(self):
        """TestBracket's 109 family, Bell and pure states and the seed-52
        pure state: without the predictor the path takes 44 to 64 steps,
        median 53; with it and stages ended at an absolute decrement of
        1e-12, at most 42, median 32; with every stage ended at
        CENTERING_TOL * mu, at most 31, median 23; with the stages before
        the last ended at PATH_TOL * mu, at most 22, median 19; started at
        rho mixed toward I/4 at mu = 1e-2 instead of at I/4 at mu = 1, at
        most 18, median 15."""
        states = list(_family_states(np.random.default_rng(100), 100))[::3]
        states += list(qstate.BELL_STATES)
        states += [_pure(t) for t in (0.05, 0.3, 0.5, 0.7, math.pi / 4)]
        states.append(SEED52_PURE)
        assert len(states) == 110
        steps = [ree_numeric(rho).iterations for rho in states]
        assert np.median(steps) <= 15 and max(steps) <= 18

    @pytest.mark.parametrize("index", range(12))
    def test_budget_counts_predictor_steps(self, monkeypatch, index):
        """A budget spent mid-path, before or after a tangent step, gives an
        unconverged report with exactly `budget` steps, not an exception.
        The budgets are 0 to the default run's stage-loop steps (its steps
        with no polish), every one of which cuts the stage loop; the run
        `index` takes every 12th from `index` on, or the last where none is
        left, so that together they cover every stage boundary."""
        rho = qstate.BELL_STATES[1]
        with monkeypatch.context() as m:
            m.setattr(ree, "POLISH_STEPS", 0)
            path_steps = ree_numeric(rho).iterations
        for budget in range(index, path_steps + 1, 12) or [path_steps]:
            rep = ree_numeric(rho, OracleConfig(max_iterations=budget))
            assert not rep.converged and rep.iterations == budget
            assert math.isfinite(rep.value)

    @pytest.mark.parametrize("name", ["bell", "werner", "vp"])
    def test_every_budget_holds(self, name):
        """Every budget from 0 to the default run's step count + 3 gives at
        most that many steps, polish steps included, and every budget at or
        above that count the default run's value and CSS exactly."""
        rho = {"bell": qstate.BELL_STATES[1],
               "werner": 0.7 * qstate.BELL_STATES[3] + 0.3 * np.eye(4) / 4,
               "vp": css._vp_state((0.5, 0.3, 0.2))}[name]
        full = ree_numeric(rho)
        assert full.converged
        for budget in range(full.iterations + 4):
            rep = ree_numeric(rho, OracleConfig(max_iterations=budget))
            assert rep.iterations <= budget
            if budget >= full.iterations:
                assert rep.value == full.value
                assert np.array_equal(rep.css_numeric, full.css_numeric)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_step_is_rejected(self, monkeypatch, bad):
        """A Newton, tangent or polish step that comes out non-finite, at any
        one call of the run, is rejected as a step out of the cone is: no
        LinAlgError escapes from eigh, the report is finite, and its bracket
        still holds ln 2 on a Bell state."""
        newton_step = ree._newton_step
        calls = 0
        bad_call = 0

        def poisoned(grad, hess):
            nonlocal calls
            calls += 1
            dx = newton_step(grad, hess)
            return np.full_like(dx, bad) if calls == bad_call else dx

        monkeypatch.setattr(ree, "_newton_step", poisoned)
        rho = qstate.BELL_STATES[1]
        ree_numeric(rho)
        n_calls = calls
        for bad_call in range(1, n_calls + 2):
            calls = 0
            # the slope of an infinite step is NaN, by inf - inf
            with np.errstate(invalid="ignore" if math.isinf(bad) else "warn"):
                rep = ree_numeric(rho)
            assert calls >= min(bad_call, n_calls)
            assert math.isfinite(rep.value) and math.isfinite(rep.lower)
            assert np.all(np.isfinite(rep.css_numeric))
            assert rep.lower <= math.log(2) <= rep.value
            assert rep.iterations <= OracleConfig().max_iterations

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_newton_step_ends_the_stage(self, monkeypatch, bad):
        """A Newton step of the stage loop or the polish that comes out
        non-finite, at any one of them on a Bell state, ends its stage at
        once: no trial point is taken along it, and its slope is never formed,
        so no RuntimeWarning is raised.  Without the check, such a step spent
        all MAX_HALVINGS trial calls, and grad @ dx warned."""
        derivatives, newton_step, trial = ree._derivatives, ree._newton_step, ree._trial
        events, grads = [], []
        newton_calls = 0
        bad_call = 0

        def recording_derivatives(rho, mu, w, v):
            out = derivatives(rho, mu, w, v)
            grads.append(out[0])
            events.append("derivatives")
            return out

        def poisoned(grad, hess):
            # a Newton step solves with the gradient _derivatives just gave;
            # the tangent predictor solves with the barrier gradient
            nonlocal newton_calls
            dx = newton_step(grad, hess)
            if grads and grad is grads[-1]:
                newton_calls += 1
                if newton_calls == bad_call:
                    events.append("bad step")
                    return np.full_like(dx, bad)
            events.append("step")
            return dx

        def recording_trial(rho, mu, x):
            events.append("trial")
            return trial(rho, mu, x)

        monkeypatch.setattr(ree, "_derivatives", recording_derivatives)
        monkeypatch.setattr(ree, "_newton_step", poisoned)
        monkeypatch.setattr(ree, "_trial", recording_trial)
        rho = qstate.BELL_STATES[1]
        ree_numeric(rho)
        n_newton = newton_calls
        assert n_newton > 10
        for bad_call in range(1, n_newton + 1):
            events.clear()
            newton_calls = 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = ree_numeric(rho)
            after = events[events.index("bad step") + 1:]
            stage_rest = list(itertools.takewhile(lambda e: e == "trial", after))
            assert stage_rest == [], (bad_call, len(stage_rest))
            assert math.isfinite(rep.value) and rep.lower <= math.log(2) <= rep.value

    def test_step_leaving_the_cone_is_rejected(self, monkeypatch):
        """A tangent step that leaves sigma > 0 or sigma^Gamma > 0 raises F to
        +inf and is not taken; the corrector still centres the path."""
        derivatives = ree._derivatives

        def scaled(rho, mu, w, v):
            grad, hess, barrier = derivatives(rho, mu, w, v)
            return grad, hess, 1e9 * barrier

        monkeypatch.setattr(ree, "_derivatives", scaled)
        rho = SEED52_PURE
        rep = ree_numeric(rho)
        assert rep.converged and rep.gap <= 1e-6
        assert rep.lower <= _entanglement_entropy(rho) <= rep.value
        assert qstate.validate_density_matrix(rep.css_numeric)[0][1, 0] >= 0

    @pytest.mark.parametrize("index", range(4))
    def test_armijo_and_polish_exits(self, monkeypatch, index):
        """With an Armijo fraction of 1e6 no Newton step passes: each of the
        MU_SCHEDULE stages spends all MAX_HALVINGS trials and ends at the
        Armijo exit, only the tangent steps are taken, and the polish ends at
        its first trial, which leaves the cone.  The report is unconverged,
        and its bracket still holds ln 2 on each Bell state."""
        trial = ree._trial
        values = []

        def recording_trial(rho, mu, x):
            out = trial(rho, mu, x)
            values.append(out[2])
            return out

        monkeypatch.setattr(ree, "ARMIJO_C", 1e6)
        monkeypatch.setattr(ree, "_trial", recording_trial)
        rep = ree_numeric(qstate.BELL_STATES[index])
        stages = len(ree.MU_SCHEDULE)
        assert len(values) == (stages - 1) + stages * ree.MAX_HALVINGS + 1
        assert values[-1] == math.inf and rep.iterations == stages - 1
        assert rep.converged is False
        assert rep.lower <= math.log(2) <= rep.value


class TestStartPoint:
    """The path starts at sigma0 = (1 - m) rho + m I/4, with the least m in
    [0, 1) that gives sigma0 and sigma0^Gamma eigenvalues >= MU_SCHEDULE[0]."""

    @pytest.mark.parametrize("name", ["maximally_mixed", "separable_margin", "rank1",
                                      "bell", "near_separable"])
    def test_start_clears_the_first_weight(self, monkeypatch, name):
        """sigma0 and sigma0^Gamma have eigenvalues >= mu0 - 1e-15.  A state
        with that margin (I/4, a full-rank separable state) is its own start;
        any other start lies on the segment from rho to I/4, at
        min(lambda_min(sigma0), lambda_min(sigma0^Gamma)) = mu0 within 1e-15."""
        rng = np.random.default_rng(41)
        rho = {"maximally_mixed": np.eye(4, dtype=complex) / 4,
               "separable_margin": 0.2 * random_density_matrix(rng) + 0.8 * np.eye(4) / 4,
               "rank1": random_density_matrix(rng, 1),
               "bell": qstate.BELL_STATES[2],
               "near_separable": _rotated(rng, (1 / 3 + 1e-4) * qstate.BELL_STATES[0]
                                          + (2 / 3 - 1e-4) * np.eye(4) / 4)}[name]
        starts = []
        build = ree._from_coordinates

        def recording(x):
            starts.append(build(x))
            return starts[-1]

        monkeypatch.setattr(ree, "_from_coordinates", recording)
        assert ree_numeric(rho).converged
        sigma0 = starts[0]
        mu0 = ree.MU_SCHEDULE[0]
        low = min(np.linalg.eigvalsh(sigma0)[0], qstate.validate_density_matrix(sigma0)[0][1, 0])
        assert low >= mu0 - 1e-15
        if name in ("maximally_mixed", "separable_margin"):
            assert np.max(np.abs(sigma0 - rho)) <= 1e-15
            return
        toward = np.eye(4) / 4 - rho
        m = float(np.vdot(toward, sigma0 - rho).real / np.vdot(toward, toward).real)
        assert 0 < m < 1
        assert np.max(np.abs(sigma0 - (rho + m * toward))) <= 1e-15
        assert abs(low - mu0) <= 1e-15


def _newton_step_eigh(grad, hess):
    """Reference: -H^-1 grad through eigh(H), eigenvalues clipped at
    HESSIAN_FLOOR of the largest."""
    lam, q = np.linalg.eigh(hess)
    lam = np.maximum(lam, ree.HESSIAN_FLOOR * lam[-1])
    return -q @ ((q.T @ grad) / lam)


def _record_derivatives(monkeypatch):
    """Patch ree._derivatives to log (mu, grad, hess) of every call, the
    stage loop's and the polish's."""
    log = []
    derivatives = ree._derivatives

    def recorder(rho, mu, w, v):
        grad, hess, barrier = derivatives(rho, mu, w, v)
        log.append((mu, grad, hess))
        return grad, hess, barrier

    monkeypatch.setattr(ree, "_derivatives", recorder)
    return log


def _half_decrements(log, mu):
    """lambda^2 / 2 of each logged call at the weight mu, in call order."""
    return [-float(grad @ ree._newton_step(grad, hess)) / 2
            for m, grad, hess in log if m == mu]


class TestStageStop:
    """Each barrier stage ends at half the squared Newton decrement of F / mu
    at most its bound, i.e. lambda^2 / 2 <= PATH_TOL * mu at every weight
    but the last and lambda^2 / 2 <= CENTERING_TOL * mu at the last."""

    def test_last_stage_bound_is_1e_12(self):
        assert ree.CENTERING_TOL * ree.MU_SCHEDULE[-1] == pytest.approx(1e-12, rel=1e-15)

    def test_every_stage_exits_at_its_bound(self, monkeypatch):
        """On Bell, family, pure and random states of ranks 1-4: at each
        weight before the last, every Newton step is taken above
        PATH_TOL * mu and the stage ends at its first decrement at or below
        it; at the last weight the same holds with CENTERING_TOL * mu, and
        at most POLISH_STEPS polish steps follow.  Some early stage ends
        above CENTERING_TOL * mu, so the looser bound is the one in use."""
        log = _record_derivatives(monkeypatch)
        rng = np.random.default_rng(12)
        states = [qstate.BELL_STATES[2], SEED52_PURE] + list(_family_states(rng, 1))
        states += [random_density_matrix(rng, rank) for rank in (1, 2, 3, 4)]
        loose_ends = 0
        for rho in states:
            log.clear()
            rep = ree_numeric(rho)
            assert rep.converged
            for mu in ree.MU_SCHEDULE:
                lam2 = _half_decrements(log, mu)
                last = mu == ree.MU_SCHEDULE[-1]
                bound = (ree.CENTERING_TOL if last else ree.PATH_TOL) * mu
                end = next(i for i, d in enumerate(lam2) if d <= bound)
                assert all(d > bound for d in lam2[:end])
                if last:
                    assert len(lam2) - 1 - end <= ree.POLISH_STEPS
                else:
                    assert end == len(lam2) - 1
                    loose_ends += lam2[end] > ree.CENTERING_TOL * mu
        assert loose_ends > 0

    def test_end_point_as_with_every_stage_tight(self, monkeypatch):
        """With PATH_TOL set to CENTERING_TOL, every weight centred as tightly
        as the last, the run ends where the default run ends: both converged,
        value within 1e-14, css_numeric within 1e-12, and lower at most the
        exact REE where one is known (css_auto's for the families, S(rho_A)
        for pure states).  On the Bell states the minimizers form a flat
        face, along which the centre at mu = 1e-9 is fixed only to about
        1e-10 (a 1e-16 change of rho moves it that far), so there the CSS
        is held to 1e-9."""
        rng = np.random.default_rng(12)
        cases = [(b, math.log(2), 1e-9) for b in qstate.BELL_STATES]
        cases += [(rho, css.css_auto(rho).ree, 1e-12) for rho in _family_states(rng, 2)]
        pure = [SEED52_PURE, _pure(0.3, rng)] + [random_density_matrix(rng, 1) for _ in range(2)]
        cases += [(rho, _entanglement_entropy(rho), 1e-12) for rho in pure]
        cases += [(random_density_matrix(rng, rank), None, 1e-12)
                  for rank in (2, 3, 4) for _ in range(2)]
        loose = [ree_numeric(rho) for rho, _, _ in cases]
        monkeypatch.setattr(ree, "PATH_TOL", ree.CENTERING_TOL)
        for (rho, exact, css_tol), a in zip(cases, loose):
            b = ree_numeric(rho)
            assert a.converged and b.converged
            assert abs(a.value - b.value) <= 1e-14
            assert np.max(np.abs(a.css_numeric - b.css_numeric)) <= css_tol
            if exact is not None:
                assert a.lower <= exact and b.lower <= exact

    def test_early_stages_end_loose(self, monkeypatch):
        """The stop scales with mu: on the seed-52 pure state the stage at
        the first weight, MU_SCHEDULE[0], ends above the last stage's bound
        of 1e-12, where an absolute stop would run it on."""
        log = _record_derivatives(monkeypatch)
        ree_numeric(SEED52_PURE)
        assert _half_decrements(log, ree.MU_SCHEDULE[0])[-1] > 1e-12


class TestNewtonSolve:
    """_newton_step: one LU solve of H + HESSIAN_FLOOR tr(H) I."""

    def test_same_value_as_eigh_clip(self, monkeypatch):
        """With the eigh-plus-clip step patched in, `value` agrees within
        1e-13 on TestBracket's states."""
        states = list(_family_states(np.random.default_rng(100), 100))[::3]
        states += list(qstate.BELL_STATES) + [SEED52_PURE]
        states += [_pure(t) for t in (0.05, 0.3, 0.5, 0.7, math.pi / 4)]
        rng = np.random.default_rng(52)
        states += [_pure(theta, rng) for theta in (0.2, 0.4, 0.65)]
        values = [ree_numeric(rho).value for rho in states]
        monkeypatch.setattr(ree, "_newton_step", _newton_step_eigh)
        for rho, value in zip(states, values):
            assert abs(ree_numeric(rho).value - value) <= 1e-13

    def test_bell_face_hessian(self, monkeypatch):
        """On a Bell state's path at mu = 1e-9, where H has eigenvalues below
        HESSIAN_FLOOR of its largest (and rounding makes some negative), the
        step is finite and a descent direction."""
        log = _record_derivatives(monkeypatch)
        ree_numeric(qstate.BELL_STATES[0])
        clipped = 0
        for mu, grad, hess in log:
            lam = np.linalg.eigvalsh(hess)
            if mu == ree.MU_SCHEDULE[-1]:
                clipped += int(np.any(lam < ree.HESSIAN_FLOOR * lam[-1]))
                dx = ree._newton_step(grad, hess)
                assert np.all(np.isfinite(dx)) and float(grad @ dx) < 0
        assert clipped >= 2

    def test_matches_eigh_solve_on_spd(self):
        """On random SPD H with condition numbers up to 1e6, within 1e-6
        relative of the eigh solve."""
        rng = np.random.default_rng(7)
        for cond in (1.0, 1e2, 1e4, 1e6):
            for _ in range(10):
                q, _ = np.linalg.qr(rng.normal(size=(15, 15)))
                lam = rng.uniform(1, 100) * np.geomspace(1, cond, 15)
                hess = (q * lam) @ q.T
                grad = rng.normal(size=15)
                want = _newton_step_eigh(grad, hess)
                got = ree._newton_step(grad, hess)
                assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


class TestGeometricRoute:
    def test_matches_numeric(self):
        for rho in [qstate.bell_diagonal([0.8, -0.6, 0.5]),
                    css._vp_state((0.5, 0.3, 0.2)),
                    css._horodecki_state((0.6, 0.3, 0.1))]:
            geo = css.css_auto(rho)
            num = ree_numeric(rho)
            assert geo.geometric
            assert abs(geo.ree - num.value) <= 2e-4

    def test_unsupported_family_returns_no_css(self, rng, tmp_path):
        """`css --method geometric` writes no CSS for an entangled state
        outside the families; `--method auto` writes the oracle's."""
        while True:
            rho = random_density_matrix(rng, rank=2)
            if css.classify(rho).kind is css.FamilyKind.OTHER and not qstate.is_ppt(rho):
                break
        state = tmp_path / "o.json"
        state.write_text(json.dumps(cli.matrix_json(rho)))
        runner = CliRunner()
        geo = runner.invoke(cli.main, ["css", str(state), "--method", "geometric",
                                       "--out", str(tmp_path / "geo.json")])
        assert geo.exit_code == 3 and not (tmp_path / "geo.json").exists()
        auto = runner.invoke(cli.main, ["css", str(state), "--method", "auto"])
        assert auto.exit_code == 0
        d = json.loads(auto.output)
        assert d["method"] == "numeric-fallback" and d["family"] == "Other"
        assert d["ree"] == relative_entropy(rho, cli._state_matrix(d["css"]))


class TestDirectionalOptimality:
    """c = max_Q lambda_min(G - Q^Gamma) - tr(sigma G) over the fitted and the
    barrier's multiplier: at most the one-sided derivative of S(rho||.) at
    sigma toward every product state, never positive, 0 to rounding at a
    true CSS, and at most -excess at a CSS whose REE is excess too high."""

    def test_stack_by_one_gather(self):
        """The check, which takes the (H, H^Gamma) spectra of rho and of css
        from `qstate._state`, each stack one gather of `qstate._PT_PAIR`,
        equals the same check on the stack np.array([H(rho), H(css),
        partial_transpose(H(css))]) of their Hermitian parts bit for bit, at
        the CSS of every route of css_auto, and at rho itself."""
        def stacked(rho, sigma):
            rho, sigma = hermitian_part(rho), hermitian_part(sigma)
            w, v = np.linalg.eigh(np.array([rho, sigma, qstate.partial_transpose(sigma)]))
            if math.isinf(ree._relative_entropy(rho, w[0], w[1], v[1])):
                return -math.inf
            return ree._certificate(rho, sigma, w[1:], v[1:], ree._fit(sigma, rho, w[1:], v[1:]))

        rng = np.random.default_rng(51)
        while True:
            other = random_density_matrix(rng, rank=4)
            if not qstate.is_ppt(other) and css.classify(other).kind is css.FamilyKind.OTHER:
                break
        states = [qstate.bell_diagonal([0.8, -0.6, 0.5]), css._vp_state((0.5, 0.3, 0.2)),
                  css._horodecki_state((0.6, 0.3, 0.1)), css._horodecki_state((0.2, 0.4, 0.4)),
                  css._vp_state((0.8, 0.3, -0.1)), other,
                  (1 - 1e-6) * css._vp_state((0.5, 0.3, 0.2)) + 1e-6 * np.eye(4) / 4]
        routes = []
        for rho in states:
            rho = rotate(rho, random_unitary(rng), random_unitary(rng))
            res = css.css_auto(rho)
            routes.append(res.route)
            for sigma in (res.css, rho):
                got = directional_optimality_check(rho, sigma)
                assert float(got).hex() == float(stacked(rho, sigma)).hex()
        assert routes == ["bell-diagonal", "vp", "horodecki", "ppt", "maximally-correlated",
                          "reverse-map", "oracle"]

    def test_true_css_passes(self):
        res = css.css_vp((0.5, 0.3, 0.2))
        d = directional_optimality_check(css._vp_state((0.5, 0.3, 0.2)), res.css)
        assert d >= -1e-8

    def test_false_css_fails(self):
        # the maximally mixed state is separable but not closest
        rho = qstate.BELL_STATES[0]
        d = directional_optimality_check(rho, np.eye(4, dtype=complex) / 4)
        assert d < -1e-3

    def test_bounded_by_product_states(self):
        """Validity, on 40 full-rank sigma with lambda_min in [1e-6, 1e-4] and
        40 edge states, each with a random rho: c is at most
        <ab|G|ab> - tr(sigma G) on 2,000 random product states, and the
        least of the first 8 of those derivatives is within 1e-5 relative of
        Richardson central differences at h = lambda_min / 1000, where steps
        of 1e-5 would overshoot the spectrum."""
        rng = np.random.default_rng(11)
        products = _product_vectors(rng, 2000)
        sigmas = []
        for _ in range(40):
            lam = np.concatenate([[10 ** rng.uniform(-6, -4)], rng.dirichlet(np.ones(3))])
            lam[1:] *= 1 - lam[0]
            u = random_unitary(rng, 4)
            sigmas.append((u * lam) @ u.conj().T)
        sigmas += [generic_edge_state(rng) for _ in range(40)]
        for sigma in sigmas:
            rho = random_density_matrix(rng)
            gmat = ree._log_gradient(rho, *np.linalg.eigh(sigma))
            along = (np.einsum("ki,ij,kj->k", products.conj(), gmat, products).real
                     - np.trace(sigma @ gmat).real)
            assert directional_optimality_check(rho, sigma) <= along.min()
            h = np.linalg.eigvalsh(sigma)[0] / 1000

            def central(step, delta):
                return (relative_entropy(rho, sigma + step * delta)
                        - relative_entropy(rho, sigma - step * delta)) / (2 * step)

            got = min((4 * central(h / 2, p - sigma) - central(h, p - sigma)) / 3
                      for p in (np.outer(c, c.conj()) for c in products[:8]))
            assert abs(got - along[:8].min()) <= 1e-5 * abs(along[:8].min())

    def test_never_positive(self):
        """c <= 0 for every separable sigma, since tr(sigma (G - Q^Gamma)) <=
        tr(sigma G) for Q >= 0: at edge states, at interior states (the
        barrier's multiplier) and at the rank-2 VP CSS, each with a random
        rho in sigma's support, and at criterion 3's CSSs mixed with I/4."""
        rng = np.random.default_rng(12)
        vp = css.css_vp((0.5, 0.3, 0.2)).css
        for _ in range(30):
            rho = random_density_matrix(rng)
            interior = 0.5 * random_density_matrix(rng, 1) + 0.5 * np.eye(4) / 4
            for sigma in (generic_edge_state(rng), interior):
                assert directional_optimality_check(rho, sigma) <= 0
            block = random_density_matrix(rng)[:2, :2]
            on_support = np.zeros((4, 4), dtype=complex)
            on_support[np.ix_([0, 3], [0, 3])] = block / np.trace(block).real
            assert directional_optimality_check(on_support, vp) <= 0
        for rho in list(_family_states(np.random.default_rng(100), 100))[::10]:
            mixed = 0.9 * css.css_auto(rho).css + 0.1 * np.eye(4) / 4
            assert directional_optimality_check(rho, mixed) <= 0

    def test_tight_at_true_css(self):
        """c >= -1e-12 at the closed-form CSS of every tenth of criterion 3's
        states and of 30 rotated maximally correlated states, and at the
        exact sigma of 60 `generic_family_state` draws."""
        cases = [(rho, css.css_auto(rho).css)
                 for rho in list(_family_states(np.random.default_rng(100), 100))[::10]]
        rng = np.random.default_rng(11)
        for n in range(30):
            a = rng.uniform()
            z = math.sqrt(a * (1 - a)) * (1.0 if n % 3 == 0 else rng.uniform())
            rho = rotate(css._vp_state((2 * z, a - z, 1 - a - z)), random_unitary(rng),
                         random_unitary(rng))
            cases.append((rho, css.css_auto(rho).css))
        rng = np.random.default_rng(5)
        cases += [generic_family_state(rng) for _ in range(60)]
        for rho, sigma in cases:
            assert directional_optimality_check(rho, sigma) >= -1e-12

    def test_planted_css_fails_below_its_excess(self):
        """Criterion 3's CSS mixed 1% with I/4 is 1e-4 or more nats too high;
        c <= -excess, though a sample of product states passes most of them."""
        for rho in list(_family_states(np.random.default_rng(100), 100))[::10]:
            res = css.css_auto(rho)
            planted = 0.99 * res.css + 0.01 * np.eye(4) / 4
            excess = relative_entropy(rho, planted) - res.ree
            assert excess > 1e-4
            assert directional_optimality_check(rho, planted) <= -excess

    def test_denormal_pt_eigenvalue(self):
        """A sigma^Gamma eigenvalue of 5e-324 takes no barrier multiplier,
        whose mu / w would overflow: c is finite, with no RuntimeWarning, and
        the oracle's bracket, the certificate with no fit, is -inf."""
        rho = 0.6 * qstate.BELL_STATES[2] + 0.4 * np.diag([1.0, 0, 0, 0]).astype(complex)
        sigma = np.diag([0.4, 0.3, 0.3, 5e-324]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = directional_optimality_check(rho, sigma)
            bracket = ree._certificate(rho, sigma, *qstate._pt_spectra(sigma), None)
        assert math.isfinite(relative_entropy(rho, sigma)) and -1.0 <= c <= 0
        assert bracket == -math.inf

    def test_bracket_is_the_certificate_without_fit(self):
        """`ree_numeric`'s gap is -`_certificate` at its css with no fit, bit
        for bit, on 40 random entangled states: the oracle's bracket and the
        certificate are one bound, and the oracle's spectra of its css are
        those of `_pt_spectra`."""
        rng = np.random.default_rng(4)
        seen = 0
        while seen < 40:
            rho = random_density_matrix(rng)
            if qstate.is_ppt(rho):
                continue
            seen += 1
            rep = ree_numeric(rho)
            w, v = qstate._pt_spectra(rep.css_numeric)
            assert ree._certificate(rho, rep.css_numeric, w, v, None) == -rep.gap
            assert rep.lower == rep.value - rep.gap

    def test_empty_kernel_uses_the_barrier_multiplier(self):
        """Where lambda_min(sigma^Gamma) > EDGE_TOL the fit has no kernel
        (Q = 0), and at `ree_numeric`'s own sigma the barrier's multiplier
        gives c = -gap: the oracle's bracket and the certificate are one
        bound."""
        rng = np.random.default_rng(4)
        seen = 0
        while seen < 2:
            rho = random_density_matrix(rng)
            if qstate.is_ppt(rho):
                continue
            rep = ree_numeric(rho)
            w, vecs = qstate._pt_spectra(rep.css_numeric)
            if w[1, 0] <= ree.EDGE_TOL:
                continue
            seen += 1
            k, m, _ = ree._fit(rep.css_numeric, rho, w, vecs)
            assert k.shape == (4, 0) and m.shape == (0, 0)
            c = directional_optimality_check(rho, rep.css_numeric)
            assert abs(c + rep.gap) <= 1e-15 and -1e-6 < c < -1e-9

    def test_two_dimensional_kernel_needs_the_shift(self):
        """At a rotated VP CSS, rank 2 with a two-dimensional kernel of
        sigma^Gamma, D_sigma leaves the identity on K free and the
        minimum-norm M is indefinite, so K M K^dagger is no multiplier.  Its
        PSD part scores the true CSS below -0.1; M + s I, s = -lambda_min(M),
        is PSD and passes it."""
        rng = np.random.default_rng(13)
        for lam in ((0.5, 0.3, 0.2), (0.6, 0.2, 0.2), (0.4, 0.35, 0.25)):
            u_a, u_b = random_unitary(rng), random_unitary(rng)
            rho = rotate(css._vp_state(lam), u_a, u_b)
            sigma = rotate(css.css_vp(lam).css, u_a, u_b)
            w, vecs = qstate._pt_spectra(sigma)
            k, m, _ = ree._fit(sigma, rho, w, vecs)
            e, u = np.linalg.eigh(m)
            assert k.shape == (4, 2) and e[0] < -0.1
            gmat = ree._log_gradient(rho, w[0], vecs[0])
            clipped = k @ ((u * np.maximum(e, 0)) @ u.conj().T) @ k.conj().T
            assert ree._dual_floor(gmat, clipped) - np.trace(sigma @ gmat).real < -0.1
            assert np.linalg.eigvalsh(k @ (m - e[0] * np.eye(2)) @ k.conj().T)[0] >= -1e-15
            assert directional_optimality_check(rho, sigma) >= -1e-12

    def test_non_finite_css_rejected(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[1, 1] = math.nan
        with pytest.raises(InvalidState):
            directional_optimality_check(qstate.BELL_STATES[0], bad)

    def test_infinite_relative_entropy_fails(self):
        # S(rho||css) = inf here; no such css is optimal
        v = np.array([math.cos(0.4), 0, 0, math.sin(0.4)], dtype=complex)
        css00 = np.diag([1.0, 0, 0, 0]).astype(complex)
        assert directional_optimality_check(np.outer(v, v), css00) == -math.inf

    def test_one_eigh_of_the_stack(self, monkeypatch):
        """The certificate reads rho and css once each, through `qstate._state`,
        which checks the entries and takes the spectra of the Hermitian part H
        and H^Gamma from one eigh of their stack.  Batched eigh gives each
        matrix the bits of a single call, so c equals `_certificate` on H(css)'s
        own `_pt_spectra` and its `_fit` to H(rho), bit for bit: at
        a rank-2 VP CSS (the fit), at a reverse-map CSS and at it mixed 1%
        with I/4 (the barrier's multiplier)."""
        rng = np.random.default_rng(21)
        u_a, u_b = random_unitary(rng), random_unitary(rng)
        cases = [(rotate(css._vp_state((0.5, 0.3, 0.2)), u_a, u_b),
                  rotate(css.css_vp((0.5, 0.3, 0.2)).css, u_a, u_b))]
        while len(cases) < 3:
            rho = random_density_matrix(rng, rank=3)
            res = css.css_auto(rho)
            if res.route == "reverse-map":
                cases += [(rho, res.css), (rho, 0.99 * res.css + 0.01 * np.eye(4) / 4)]
        eigh, state = np.linalg.eigh, ree._state
        for rho, sigma in cases:
            calls = []
            monkeypatch.setattr(np.linalg, "eigh",
                                lambda a, *args: calls.append(np.shape(a)) or eigh(a, *args))
            monkeypatch.setattr(ree, "_state", lambda m: calls.append("state") or state(m))
            c = directional_optimality_check(rho, sigma)
            monkeypatch.undo()
            assert calls == ["state", (2, 4, 4), "state", (2, 4, 4)]
            h, s = hermitian_part(rho), hermitian_part(sigma)
            w, v = qstate._pt_spectra(s)
            assert c == ree._certificate(h, s, w, v, ree._fit(s, h, w, v))
        assert directional_optimality_check(
            np.eye(4) / 4, np.diag([0.5, 0.5, 0.0, 0.0])) == -math.inf
        bad = np.eye(4, dtype=complex) / 4
        bad[2, 2] = math.nan
        with pytest.raises(InvalidState):
            directional_optimality_check(bad, cases[0][1])


def _product_vectors(rng, n) -> np.ndarray:
    """n random product vectors |a>|b>, shape (n, 4), with Gaussian entries."""
    a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    products = np.einsum("ki,kj->kij", a[:, 0], a[:, 1]).reshape(n, 4)
    return products / np.linalg.norm(products, axis=1, keepdims=True)
