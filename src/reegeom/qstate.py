"""Exact two-qubit state algebra.

Pauli decomposition and reconstruction, partial transpose,
canonicalization of the correlation tensor by local rotations, and the
Wootters concurrence.
Basis order everywhere is |00>, |01>, |10>, |11>.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import InvalidState

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SX, SY, SZ)

# Row 4a + b is sigma_a (x) sigma_b flattened row-major, with sigma_0 = I.
PAULI_BASIS = np.array([np.kron(a, b).ravel()
                        for a in (I2, *PAULI) for b in (I2, *PAULI)])

# |beta_1..4| = (|00>+|11>), (|00>-|11>), (|01>+|10>), (|01>-|10>), normalized
BELL_VECTORS = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
) / np.sqrt(2)

BELL_STATES = [np.outer(v, v.conj()) for v in BELL_VECTORS]


@dataclass(frozen=True)
class PauliForm:
    """Bloch vectors and full 3x3 correlation tensor of a two-qubit matrix."""

    r: np.ndarray
    s: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class DiagonalPauliForm:
    """Pauli form with the correlation tensor reduced to its diagonal."""

    r: np.ndarray
    s: np.ndarray
    q: np.ndarray


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise InvalidState on the first violated density-matrix invariant."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidState("shape 4x4", float(np.prod(rho.shape)))
    if not np.isfinite(rho).all():
        raise InvalidState("finite entries", float(np.sum(~np.isfinite(rho))))
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise InvalidState("Hermiticity", herm)
    tr = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
    if tr > TRACE_TOL:
        raise InvalidState("unit trace", tr)
    lam_min = float(np.linalg.eigvalsh(rho)[0])
    if lam_min < -PSD_TOL:
        raise InvalidState("positive semidefiniteness", -lam_min)


def to_pauli(rho: np.ndarray) -> PauliForm:
    """Bloch vectors r, s and correlation tensor g_ij = tr(rho sigma_i x sigma_j)."""
    # tr(rho M) = sum_kl rho_kl conj(M_kl) for Hermitian M
    c = (PAULI_BASIS.conj() @ np.asarray(rho, dtype=complex).reshape(16)).real
    c = c.reshape(4, 4)
    return PauliForm(c[1:, 0], c[0, 1:], c[1:, 1:])


def from_pauli(p: PauliForm) -> np.ndarray:
    """Reconstruct the 4x4 matrix; Hermitian and unit trace, not necessarily PSD."""
    c = np.empty((4, 4))
    c[0, 0] = 1.0
    c[1:, 0], c[0, 1:], c[1:, 1:] = p.r, p.s, p.g
    return (c.reshape(16) @ PAULI_BASIS).reshape(4, 4) / 4.0


def from_diagonal_pauli(r, s, q) -> np.ndarray:
    """Reconstruction for a diagonal correlation tensor; r, s, q are 3-vectors."""
    return from_pauli(PauliForm(np.asarray(r, float), np.asarray(s, float), np.diag(q)))


def bell_diagonal(t) -> np.ndarray:
    """Bell-diagonal state with correlation vector t (zero Bloch vectors)."""
    return from_diagonal_pauli(np.zeros(3), np.zeros(3), t)


def min_eigenvalue(rho: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(rho)[0])


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose on the second qubit."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return r.transpose(0, 3, 2, 1).reshape(4, 4)


def min_pt_eigenvalue(rho: np.ndarray) -> float:
    return min_eigenvalue(partial_transpose(rho))


def is_ppt(rho: np.ndarray) -> bool:
    """Peres-Horodecki test at PSD_TOL; for two qubits PPT equals separability."""
    return min_pt_eigenvalue(rho) >= -PSD_TOL


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence; zero exactly on the separable set."""
    rho = np.asarray(rho, dtype=complex)
    yy = np.kron(SY, SY)
    rho_tilde = yy @ rho.conj() @ yy
    ev = np.linalg.eigvals(rho @ rho_tilde).real
    ev = np.sqrt(np.clip(ev, 0.0, None))
    ev.sort()
    return float(max(0.0, ev[3] - ev[2] - ev[1] - ev[0]))


def su2_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Lift an SO(3) matrix R to U in SU(2) with U (v.sigma) U^dag = (Rv).sigma.

    The quaternion (x, y, z, w) is built from the largest of R's diagonal and
    trace (Shepperd, J. Guidance & Control 1, 223 (1978)), with the branch
    order and sign of scipy's Rotation.from_matrix(R).as_quat().
    """
    m = np.asarray(rot, dtype=float).tolist()
    d = [m[0][0], m[1][1], m[2][2], m[0][0] + m[1][1] + m[2][2]]
    i = d.index(max(d))
    if i == 3:
        q = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + d[3]]
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q = [0.0] * 4
        q[i] = 1 - d[3] + 2 * m[i][i]
        q[j] = m[j][i] + m[i][j]
        q[k] = m[k][i] + m[i][k]
        q[3] = m[k][j] - m[j][k]
    norm = math.sqrt(sum(v * v for v in q))
    x, y, z, w = (v / norm for v in q)
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])


# determinant-one sign patterns s of (P v)_i = s_i v[perm[i]], keyed by the
# sign of the permutation
_SIGN_PATTERNS = {1: np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]),
                  -1: np.array([(-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)])}

# All SO(3) signed-permutation pairs (P_A, P_B) preserving diagonality: one
# index permutation on both sides, a determinant-one sign pattern on each.
# Stacked to shape (96, 2, 3, 3), built once for css._match_templates; + 0.0
# stores the zeros as 0.0, not -0.0, since zero signs reach the frame that
# css_auto maps its CSS back through.
SIGNED_PERMUTATION_FRAMES = np.array([
    (s_a[:, None] * p, s_b[:, None] * p)
    for p in (np.eye(3)[list(perm)] for perm in permutations(range(3)))
    for signs in [_SIGN_PATTERNS[round(np.linalg.det(p))]]
    for s_a in signs for s_b in signs]) + 0.0
SIGNED_PERMUTATION_FRAMES.flags.writeable = False


def canonicalize(p: PauliForm):
    """Diagonalize the correlation tensor of the Pauli form p by local
    rotations.

    Returns (DiagonalPauliForm, r_a, r_b) with r_a, r_b in SO(3) and
    r_a g r_b^T = diag(q): the frame maps r -> r_a r and s -> r_b s.  The
    SVD of g orders |q| descending with q1, q2 >= 0; making both frames
    proper rotations puts the sign of the local-unitary invariant q1*q2*q3
    on q3.  When singular values of g coincide the frame is not unique; the
    one returned is the SVD's.
    """
    o1, sv, o2t = np.linalg.svd(p.g)
    o2 = o2t.T
    q = sv.copy()
    if np.linalg.det(o1) < 0:
        o1 = o1.copy()
        o1[:, 2] *= -1
        q[2] *= -1
    if np.linalg.det(o2) < 0:
        o2 = o2.copy()
        o2[:, 2] *= -1
        q[2] *= -1

    # stored C-ordered with -0.0 as 0.0 so that dpf and the unitaries lifted
    # from the frames (zero signs included) depend neither on the memory
    # layout nor on the zero signs the SVD returns
    r_a, r_b = o1.T.copy() + 0.0, o2.T.copy() + 0.0
    return DiagonalPauliForm(r_a @ p.r, r_b @ p.s, q), r_a, r_b
