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
# sigma = I/4 + sum_k x_k P_k / 4 = _EYE_FLAT + x @ _B_FLAT with P_k = sigma_a (x) sigma_b, k =
# 4a + b - 1, and x_k = tr(sigma P_k) = (_PAULI_ROWS @ sigma.ravel()).real, as P_k is Hermitian
_PAULI_ROWS = PAULI_BASIS[1:].conj()
_B_FLAT = PAULI_BASIS[1:] / 4
_EYE_FLAT = (np.eye(4) / 4).reshape(16)

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
    else return the `_pt_spectra` of rho's Hermitian part H that its PSD test reads."""
    return _density(rho)[1]


def _density(rho: np.ndarray):
    """`_state` of a density matrix: its Hermitian part H and the spectra of
    (H, H^Gamma), after the checks of `validate_density_matrix` in turn:
    shape and finite entries, then |rho - rho^dagger| <= HERMITICITY_TOL and
    the unit trace on rho itself, then H >= 0 within PSD_TOL."""
    h, (w, v) = _state(rho)  # first, for its tests of shape and finite entries
    rho = np.asarray(rho, dtype=complex)
    with np.errstate(all="ignore"):  # finite entries near 1e308 overflow to inf or NaN
        herm = np.abs(rho - rho.conj().T).max()
        trace = rho.trace()  # np.trace's own sum, without its dispatch
        tr = abs(trace.real - 1.0) + abs(trace.imag)
    if not herm <= HERMITICITY_TOL:  # written so that a NaN fails
        raise InvalidState("Hermiticity", herm)
    if not tr <= TRACE_TOL:
        raise InvalidState("unit trace", tr)
    if w[0, 0] < -PSD_TOL:
        raise InvalidState("positive semidefiniteness", -float(w[0, 0]))
    return h, (w, v)


def to_pauli(rho: np.ndarray) -> PauliForm:
    """Bloch vectors r, s and correlation tensor g_ij = tr(rho sigma_i x sigma_j)."""
    x = _to_coordinates(np.asarray(rho, dtype=complex))
    return PauliForm(x[3::4], x[:3], x[3:].reshape(3, 4)[:, 1:])


def from_pauli(p: PauliForm) -> np.ndarray:
    """Reconstruct the 4x4 matrix; Hermitian and unit trace, not necessarily PSD.
    Raises InvalidState on blocks not r [3], s [3] and g [3x3], a non-finite
    entry, or an entry with a nonzero imaginary part."""
    if (np.shape(p.r), np.shape(p.s), np.shape(p.g)) != ((3,), (3,), (3, 3)):
        raise InvalidState("shape r [3], s [3], g [3x3]", float(sum(map(np.size, (p.r, p.s, p.g)))))
    x = _coordinates(p.r, p.s, p.g, complex)  # complex, so that an imaginary part is seen
    if not np.isfinite(x).all():
        raise InvalidState("finite entries", float(np.sum(~np.isfinite(x))))
    if x.imag.any():
        raise InvalidState("real entries", float(np.count_nonzero(x.imag)))
    return _from_coordinates(x.real)


def _coordinates(r, s, g, dtype=float) -> np.ndarray:
    """The 15 Pauli coordinates x of the blocks r, s and g, as `to_pauli` reads them."""
    x = np.empty(15, dtype=dtype)
    x[:3], x[3::4], x[3:].reshape(3, 4)[:, 1:] = s, r, g
    return x


def _to_coordinates(m: np.ndarray) -> np.ndarray:
    """The 15 Pauli coordinates x_k = Re tr(m P_k) of a 4x4 array m, unchecked:
    the one place a state's coordinates are read, the inverse of `_from_coordinates`."""
    return (_PAULI_ROWS @ m.reshape(16)).real


def _from_coordinates(x: np.ndarray) -> np.ndarray:
    """sigma = I/4 + sum_k x_k P_k / 4 at 15 real Pauli coordinates x, unchecked:
    the one place a state is built from its coordinates.  Exactly Hermitian,
    and no zero sign of x reaches sigma, as _EYE_FLAT adds +0.0 to every entry."""
    return (_EYE_FLAT + x @ _B_FLAT).reshape(4, 4)


def bell_diagonal(t) -> np.ndarray:
    """Bell-diagonal state with correlation vector t (zero Bloch vectors)."""
    return from_pauli(PauliForm(np.zeros(3), np.zeros(3), np.diag(t)))


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose on the second qubit; a stack of 4x4 matrices is taken per matrix."""
    r = np.asarray(rho, dtype=complex)
    return r.reshape(r.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(r.shape)


# m.reshape(16)[_PT_PAIR].reshape(2, 4, 4) stacks a 4x4 matrix m and m^Gamma by one
# gather: the flat indices of m, then where partial_transpose moves each of them
_PT_PAIR = np.concatenate([np.arange(16), partial_transpose(np.arange(16.0).reshape(4, 4))
                           .real.ravel()]).astype(np.intp)


# the derivatives of sigma(x) and sigma(x)^Gamma in x_k, flat, (2, 15, 16): [0, k] is
# P_k / 4 and [1, k] its partial transpose, by a gather of _PT_PAIR
_DIRECTIONS_FLAT = np.ascontiguousarray(_B_FLAT[:, _PT_PAIR].reshape(15, 2, 16).swapaxes(0, 1))


def _state(m: np.ndarray):
    """The one read of a matrix argument: its Hermitian part H = m/2 + m^dagger/2,
    which no finite entry overflows, and `_pt_spectra(H)`.  Every reader sees
    H, as the Pauli coordinates do; H is m bit for bit where m is exactly
    Hermitian.  Raises InvalidState, with m's size where it is not 4x4, else
    with the count of NaN and infinite entries, if any, else with H's largest
    entry where the eigen-solve does not converge, as it may on entries that
    span hundreds of decades."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise InvalidState("shape 4x4", float(m.size))
    if not np.isfinite(m).all():
        raise InvalidState("finite entries", float(np.sum(~np.isfinite(m))))
    h = m / 2
    h += h.conj().T  # m/2 + m^dagger/2 bit for bit, in one add
    try:
        return h, _pt_spectra(h)
    except np.linalg.LinAlgError:
        raise InvalidState("convergent eigen-solve", float(np.abs(h).max())) from None


def _pt_spectra(h: np.ndarray):
    """Eigenvalues (2, 4) and eigenvectors (2, 4, 4) of h and h^Gamma, by one
    eigh on their stack: the same bits as one eigh on each.  Unchecked: h is
    a complex 4x4 array, `_state`'s H or a state the package builds."""
    return np.linalg.eigh(h.reshape(16)[_PT_PAIR].reshape(2, 4, 4))


def _ppt(w: np.ndarray) -> bool:
    """The PPT test on the eigenvalues w of (rho, rho^Gamma)."""
    return float(w[1, 0]) >= -PSD_TOL


def is_ppt(rho: np.ndarray) -> bool:
    """Peres-Horodecki test of rho's Hermitian part at PSD_TOL; for two
    qubits PPT equals separability."""
    return _ppt(_state(rho)[1][0])


# sigma_y (x) sigma_y, a real matrix
_YY = np.kron(SY, SY).real


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of rho's Hermitian part H = V diag(p) V^dagger; zero
    exactly on the separable set.  Its lambdas are the singular values of
    psi^T (sigma_y x sigma_y) psi with psi = V sqrt(max(p, 0)) (Wootters, PRL 80,
    2245 (1998)), which rounding near a zero p moves only to second order.
    Raises InvalidState where rho is not a finite 4x4 matrix, or where an
    eigenvalue of H overflows (entries near 1e308), with their count."""
    return _concurrence(*_state(rho)[1])


def _concurrence(w: np.ndarray, vecs: np.ndarray) -> float:
    """`concurrence` from the spectra w, vecs of (H, H^Gamma)."""
    p, v = w[0], vecs[0]
    if not np.isfinite(p).all():
        raise InvalidState("finite eigenvalues", float(np.sum(~np.isfinite(p))))
    psi = v * np.sqrt(np.maximum(p, 0.0))
    lam = np.linalg.svd(psi.T @ _YY @ psi, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


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
    one returned is the SVD's.  Raises InvalidState where `from_pauli` does.
    """
    from_pauli(p)  # the check of the blocks' shapes and entries
    return _canonicalize(p)


def _det3(m) -> float:
    """The determinant of a 3x3 nested list by cofactors along its first row;
    of an orthogonal frame it is +-1 to rounding, so its sign is
    np.linalg.det's."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _canonicalize(p: PauliForm):
    """`canonicalize` of a Pauli form whose entries are known to be finite."""
    o1, q, o2t = np.linalg.svd(p.g)
    o2 = o2t.T
    for o in (o1, o2):
        if _det3(o.tolist()) < 0:  # an improper frame: flip its third axis, and q3 with it
            o[:, 2] *= -1
            q[2] *= -1

    # stored C-ordered with -0.0 as 0.0 so that dpf and the unitaries lifted
    # from the frames (zero signs included) depend neither on the memory
    # layout nor on the zero signs the SVD returns
    r_a, r_b = np.add(o1.T, 0.0, order="C"), np.add(o2.T, 0.0, order="C")
    return DiagonalPauliForm(r_a @ p.r, r_b @ p.s, q), r_a, r_b
