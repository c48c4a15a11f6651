"""Closed-form eigensystems of the z-parallel-Bloch two-qubit state.

The canonical state has Bloch vectors (0, 0, r), (0, 0, s) and a diagonal
correlation vector (q1, q2, q3).  Its spectrum and the spectrum of its
partial transpose factor into two 2x2 blocks, giving the four eigenvalue
branches mu+-, nu+- in closed form.  Setting the smallest branch to zero
yields the boundary surfaces of the deformed state body and of the deformed
separable body.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import from_diagonal_pauli, partial_transpose

_DEGENERATE = 1e-14


@dataclass(frozen=True)
class ZParallelState:
    """Canonical form (r, s, q1, q2, q3); not required to be PSD."""

    r: float
    s: float
    q1: float
    q2: float
    q3: float

    @property
    def q(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.q3])

    def matrix(self) -> np.ndarray:
        return from_diagonal_pauli((0, 0, self.r), (0, 0, self.s), self.q)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs labeled mu+, mu-, nu+, nu- (values in that order)."""

    values: np.ndarray   # (mu+, mu-, nu+, nu-)
    vectors: np.ndarray  # columns match values

    labels = ("mu+", "mu-", "nu+", "nu-")


def _block_vectors(coupling, diag_gap, big_m, lo_idx, hi_idx):
    """Eigenvectors of the 2x2 block [[.., c], [c, ..]] embedded in C^4.

    `diag_gap` is the difference of the two diagonal entries (times 4),
    `big_m` its branch magnitude; lo_idx/hi_idx are the computational-basis
    slots the block lives in.  Returns (vec_plus, vec_minus).
    """
    vecs = []
    for sign in (+1, -1):
        comp = np.zeros(4, dtype=complex)
        a = coupling
        b = -(diag_gap - sign * big_m)
        n = np.hypot(a, b)
        if n < _DEGENERATE:
            # removable singularity of the table formulas: the block is
            # diagonal, eigenvectors are the basis vectors themselves
            comp[lo_idx if (sign > 0) == (diag_gap >= 0) else hi_idx] = 1.0
        else:
            comp[lo_idx] = a / n
            comp[hi_idx] = b / n
        vecs.append(comp)
    return vecs


def eigensystem(z: ZParallelState) -> EigenSystem:
    """Closed-form spectrum of the canonical state (valid off the PSD cone too)."""
    m1 = np.hypot(z.r - z.s, z.q1 + z.q2)
    m2 = np.hypot(z.r + z.s, z.q1 - z.q2)
    mu = np.array([(1 - z.q3) + m1, (1 - z.q3) - m1]) / 4.0
    nu = np.array([(1 + z.q3) + m2, (1 + z.q3) - m2]) / 4.0
    mu_vecs = _block_vectors(z.q1 + z.q2, z.r - z.s, m1, 1, 2)
    nu_vecs = _block_vectors(z.q1 - z.q2, z.r + z.s, m2, 0, 3)
    values = np.array([mu[0], mu[1], nu[0], nu[1]])
    vectors = np.column_stack([mu_vecs[0], mu_vecs[1], nu_vecs[0], nu_vecs[1]])
    return EigenSystem(values, vectors)


def pt_eigensystem(z: ZParallelState) -> EigenSystem:
    """Closed-form spectrum of the partial transpose: the state at q2 -> -q2."""
    return eigensystem(ZParallelState(z.r, z.s, z.q1, -z.q2, z.q3))


def branch_min(r, s, q1, q2, q3):
    """Elementwise min(mu-, nu-) of the canonical state over arrays of (r, s, q1, q2, q3)."""
    m1 = np.hypot(r - s, q1 + q2)
    m2 = np.hypot(r + s, q1 - q2)
    return np.minimum((1 - q3) - m1, (1 + q3) - m2) / 4.0


def min_branch(z: ZParallelState) -> float:
    """min(mu-, nu-) of the state; zero on the deformed state-body boundary."""
    return branch_min(z.r, z.s, z.q1, z.q2, z.q3)


def min_pt_branch(z: ZParallelState) -> float:
    """min(mu-, nu-) of the partial transpose; zero on the deformed separable boundary."""
    return branch_min(z.r, z.s, z.q1, -z.q2, z.q3)


def boundary_roots(r, s, q1, q2):
    """State-body sheet roots over arrays of (q1, q2): the mu- root q3 = 1 - M1,
    the nu- root q3 = M2 - 1, and where both realize the min condition (the
    other branch nonnegative), M1 + M2 <= 2.  The separable body: q2 -> -q2.
    """
    m1 = np.hypot(r - s, q1 + q2)
    m2 = np.hypot(r + s, q1 - q2)
    return 1.0 - m1, m2 - 1.0, m1 + m2 <= 2.0 + 1e-12


def boundary_state_body(r, s, q1, q2):
    """q3 roots of min(mu-, nu-) = 0 at fixed (q1, q2); tagged by sheet."""
    mu, nu, inside = boundary_roots(r, s, q1, q2)
    return [(mu, "mu"), (nu, "nu")] if inside else []


def boundary_separable_body(r, s, q1, q2):
    """q3 roots of min(mu-^PT, nu-^PT) = 0 at fixed (q1, q2); tagged by sheet."""
    mu, nu, inside = boundary_roots(r, s, q1, -q2)
    return [(mu, "mu"), (nu, "nu")] if inside else []


def verify_against_dense(z: ZParallelState) -> float:
    """Max deviation of the closed-form eigenvalues from a dense solver (rho and rho^PT)."""
    m = z.matrix()
    d1 = np.max(np.abs(np.sort(eigensystem(z).values) - np.linalg.eigvalsh(m)))
    d2 = np.max(np.abs(np.sort(pt_eigensystem(z).values)
                       - np.linalg.eigvalsh(partial_transpose(m))))
    return float(max(d1, d2))
