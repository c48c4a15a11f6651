import itertools

import numpy as np
import pytest
from hypothesis import settings

from reegeom import revmap
from reegeom.qstate import partial_transpose

# every property draws the same examples on every run, with no example
# database carried between runs and no per-example deadline
settings.register_profile("fixed", derandomize=True, deadline=None, database=None)
settings.load_profile("fixed")


def random_density_matrix(rng, rank: int = 4) -> np.ndarray:
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_unitary(rng, n: int = 2) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotate(rho, u_a, u_b) -> np.ndarray:
    """The state (u_a x u_b) rho (u_a x u_b)^dag."""
    u = np.kron(u_a, u_b)
    return u @ rho @ u.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def physical_range(sigma) -> float:
    """x_max = 1 / lambda_max(sigma^-1/2 G sigma^-1/2), with G = revmap.g_matrix(sigma).

    The reverse-map family sigma - x G of a full-rank edge state sigma is
    positive semidefinite exactly for 0 <= x <= x_max.  With sigma = V L V^dag,
    sigma^-1/2 G sigma^-1/2 is unitarily similar to W^dag G W, W = V L^-1/2.
    """
    lam, v = np.linalg.eigh(sigma)
    w = v / np.sqrt(lam)
    return 1.0 / np.linalg.eigvalsh(w.conj().T @ revmap.g_matrix(sigma) @ w)[-1]


def generic_edge_state(rng) -> np.ndarray:
    """A full-rank state on the PPT boundary, lambda_min(sigma^Gamma) = 0.

    A Ginibre sigma0 with lambda = lambda_min(sigma0^Gamma) < 0 is mixed with
    I/4 at p = -lambda / (1/4 - lambda); I/4 is its own partial transpose, so
    (1 - p) lambda + p / 4 = 0 exactly.
    """
    while True:
        sigma0 = random_density_matrix(rng)
        lam = np.linalg.eigvalsh(partial_transpose(sigma0))[0]
        if lam < 0:
            p = -lam / (0.25 - lam)
            return (1 - p) * sigma0 + p * np.eye(4) / 4


def generic_family_state(rng):
    """A generic entangled state rho with its exact CSS sigma, as (rho, sigma).

    rho = sigma - x G(sigma) for a `generic_edge_state` sigma and x uniform in
    (0.05, 0.95) x_max.  Every full-rank PPT-boundary sigma is the CSS of its
    whole family on [0, x_max] (Ishizaka, PRA 67, 060301(R) (2003)), so the
    REE is S(rho || sigma).  Both go through one random local unitary.
    """
    sigma = generic_edge_state(rng)
    rho = revmap.family_from_css(sigma, rng.uniform(0.05, 0.95) * physical_range(sigma))
    u_a, u_b = random_unitary(rng), random_unitary(rng)
    rho, sigma = rotate(rho, u_a, u_b), rotate(sigma, u_a, u_b)
    return (rho + rho.conj().T) / 2, (sigma + sigma.conj().T) / 2


def reference_frames():
    """The 96 SO(3) signed-permutation pairs (P_A, P_B) that keep a
    correlation tensor diagonal: one index permutation on both sides, in
    itertools order, then A-side and B-side sign patterns."""
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1),
             (-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    frames = []
    for perm in itertools.permutations(range(3)):
        p = np.eye(3)[list(perm)]  # (P v)_i = v[perm[i]]
        for da in signs:
            for db in signs:
                pa, pb = np.diag(da) @ p, np.diag(db) @ p
                if np.linalg.det(pa) > 0 and np.linalg.det(pb) > 0:
                    frames.append((pa, pb))
    return frames
