import numpy as np
import pytest
from hypothesis import settings

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
