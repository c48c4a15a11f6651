"""Exact two-qubit state algebra.

Pauli decomposition and reconstruction, partial transpose,
canonicalization of the correlation tensor by local rotations, and the
Wootters concurrence.
Basis order everywhere is |00>, |01>, |10>, |11>.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# sigma = I/4 + sum_k x_k (sigma_a (x) sigma_b) / 4, k = 4a + b - 1, and its Pauli coordinates
# x_k = tr(sigma sigma_a (x) sigma_b) = (_PAULI_ROWS @ sigma flattened).real, as
# tr(m M) = sum_kl m_kl conj(M_kl) for Hermitian M; `to_pauli`, `ree` and `revmap` read them
_PAULI_ROWS = PAULI_BASIS[1:].conj()

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


def _require_finite(**values) -> None:
    """Raise ValueError naming the first argument, number or array, with a NaN
    or infinite entry; a number skips numpy, as the ray crossings call it."""
    for name, value in values.items():
        if not (math.isfinite(value) if isinstance(value, (int, float))
                else np.isfinite(value).all()):
            raise ValueError(f"{name} must be finite, not {value!r}")


def validate_density_matrix(rho: np.ndarray):
    """Raise InvalidState on the first violated density-matrix invariant;
    else return the `_pt_spectra` of rho that its PSD test reads."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidState("shape 4x4", float(np.prod(rho.shape)))
    w, v = _pt_spectra(rho)  # first, for its test of finite entries
    with np.errstate(all="ignore"):  # finite entries near 1e308 overflow to inf or NaN
        herm = np.abs(rho - rho.conj().T).max()
        tr = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
    if not herm <= HERMITICITY_TOL:  # written so that a NaN fails
        raise InvalidState("Hermiticity", herm)
    if not tr <= TRACE_TOL:
        raise InvalidState("unit trace", tr)
    if w[0, 0] < -PSD_TOL:
        raise InvalidState("positive semidefiniteness", -float(w[0, 0]))
    return w, v


def to_pauli(rho: np.ndarray) -> PauliForm:
    """Bloch vectors r, s and correlation tensor g_ij = tr(rho sigma_i x sigma_j)."""
    c = np.empty(16)  # entry 0, the trace, is never read
    c[1:] = (_PAULI_ROWS @ np.asarray(rho, dtype=complex).reshape(16)).real
    c = c.reshape(4, 4)
    return PauliForm(c[1:, 0], c[0, 1:], c[1:, 1:])


def from_pauli(p: PauliForm) -> np.ndarray:
    """Reconstruct the 4x4 matrix; Hermitian and unit trace, not necessarily PSD."""
    c = np.empty((4, 4))
    c[0, 0] = 1.0
    c[1:, 0], c[0, 1:], c[1:, 1:] = p.r, p.s, p.g
    return (c.reshape(16) @ PAULI_BASIS).reshape(4, 4) / 4.0


def bell_diagonal(t) -> np.ndarray:
    """Bell-diagonal state with correlation vector t (zero Bloch vectors)."""
    return from_pauli(PauliForm(np.zeros(3), np.zeros(3), np.diag(t)))


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose on the second qubit; a stack of 4x4 matrices is taken per matrix."""
    r = np.asarray(rho, dtype=complex)
    return r.reshape(r.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(r.shape)


def _finite(m: np.ndarray) -> np.ndarray:
    """m as a complex array; raise InvalidState, with the count of NaN and
    infinite entries, where there are any."""
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise InvalidState("finite entries", float(np.sum(~np.isfinite(m))))
    return m


def _pt_spectra(rho: np.ndarray):
    """Eigenvalues (2, 4) and eigenvectors (2, 4, 4) of rho and rho^Gamma, by
    one eigh on their stack: the same bits as one eigh on each.  Raises
    InvalidState where rho has a NaN or infinite entry."""
    rho = _finite(rho)
    return np.linalg.eigh(np.array([rho, partial_transpose(rho)]))


def _ppt(w: np.ndarray) -> bool:
    """The PPT test on the eigenvalues w of (rho, rho^Gamma)."""
    return float(w[1, 0]) >= -PSD_TOL


def is_ppt(rho: np.ndarray) -> bool:
    """Peres-Horodecki test at PSD_TOL; for two qubits PPT equals separability."""
    return _ppt(_pt_spectra(rho)[0])


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence; zero exactly on the separable set."""
    rho = _finite(rho)
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


def canonicalize(p: PauliForm):
    """Diagonalize the correlation tensor of the Pauli form p by local
    rotations.

    Returns (DiagonalPauliForm, r_a, r_b) with r_a, r_b in SO(3) and
    r_a g r_b^T = diag(q): the frame maps r -> r_a r and s -> r_b s.  The
    SVD of g orders |q| descending with q1, q2 >= 0; making both frames
    proper rotations puts the sign of the local-unitary invariant q1*q2*q3
    on q3.  When singular values of g coincide the frame is not unique; the
    one returned is the SVD's.  A NaN or infinite entry raises InvalidState.
    """
    _finite(np.concatenate([p.r, p.s, np.ravel(p.g)]))
    return _canonicalize(p)


def _canonicalize(p: PauliForm):
    """`canonicalize` of a Pauli form whose entries are known to be finite."""
    o1, q, o2t = np.linalg.svd(p.g)
    o2 = o2t.T
    for o, det in zip((o1, o2), np.linalg.det(np.array([o1, o2]))):
        if det < 0:  # an improper frame: flip its third axis, and q3 with it
            o[:, 2] *= -1
            q[2] *= -1

    # stored C-ordered with -0.0 as 0.0 so that dpf and the unitaries lifted
    # from the frames (zero signs included) depend neither on the memory
    # layout nor on the zero signs the SVD returns
    r_a, r_b = o1.T.copy() + 0.0, o2.T.copy() + 0.0
    return DiagonalPauliForm(r_a @ p.r, r_b @ p.s, q), r_a, r_b
