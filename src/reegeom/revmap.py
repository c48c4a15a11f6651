"""The reverse map: from an edge separable state to the one-parameter
family of entangled states sharing it as closest separable state.

Two independent routes are implemented: the spectral construction
rho(x) = sigma - x G(sigma) built from the kernel of sigma's partial
transpose, and the closed-form X-shaped family with its derivative
coefficients (including the literature sign correction).  Their agreement
is an executable proof check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateZ,
    LeftPhysicalRange,
    NotEdgeState,
    ParallelLines,
    RankDeficient,
)
from .qstate import min_eigenvalue, partial_transpose

RANK_EPS = 1e-12
EDGE_TOL = 1e-8
LOG_DEGENERATE = 1e-9


@dataclass(frozen=True)
class GMatrix:
    """The reverse-map generator G(sigma) together with its ingredients."""

    matrix: np.ndarray
    kernel_vector: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class SigmaZParams:
    """X-shaped edge state diag(R1, [R2 Y; Y R3], R4) with Y = sqrt(R1 R4)."""

    r1: float
    r2: float
    r3: float
    r4: float

    def __post_init__(self):
        rs = (self.r1, self.r2, self.r3, self.r4)
        if any(v < 0 for v in rs):
            raise ValueError("R coefficients must be nonnegative")
        if abs(sum(rs) - 1.0) > 1e-10:
            raise ValueError("R coefficients must sum to one")
        if self.r2 * self.r3 < self.r1 * self.r4 - 1e-12:
            raise ValueError("R2 R3 >= R1 R4 required for separability")

    @property
    def y(self) -> float:
        return math.sqrt(self.r1 * self.r4)

    def matrix(self) -> np.ndarray:
        m = np.diag([self.r1, self.r2, self.r3, self.r4]).astype(complex)
        m[1, 2] = m[2, 1] = self.y
        return m


@dataclass(frozen=True)
class ZFamilyDerivatives:
    rb1: float
    rb2: float
    rb3: float
    rb4: float
    yb: float
    z: float
    big_l: float
    d: float


def pt_kernel(sigma: np.ndarray, tol: float = EDGE_TOL) -> np.ndarray:
    """Unit vector spanning the kernel of sigma's partial transpose."""
    vals, vecs = np.linalg.eigh(partial_transpose(sigma))
    near_zero = np.abs(vals) <= tol
    if np.count_nonzero(near_zero) != 1:
        raise NotEdgeState(
            f"{np.count_nonzero(near_zero)} near-zero PT eigenvalues (need exactly 1)")
    return vecs[:, near_zero].ravel()


def g_matrix(sigma: np.ndarray, rank_eps: float = RANK_EPS) -> GMatrix:
    """G(sigma) in sigma's eigenbasis with logarithmic divided differences."""
    sigma = np.asarray(sigma, dtype=complex)
    lam, v = np.linalg.eigh(sigma)
    if lam[0] <= rank_eps:
        raise RankDeficient(f"smallest eigenvalue {lam[0]:.3e} <= {rank_eps:.0e}")
    phi = pt_kernel(sigma)
    phi_pt = partial_transpose(np.outer(phi, phi.conj()))

    ln = np.log(lam)
    dlam = lam[:, None] - lam[None, :]
    dln = ln[:, None] - ln[None, :]
    coef = np.where(np.abs(dln) > LOG_DEGENERATE,
                    dlam / np.where(dln == 0, 1, dln),
                    lam[:, None])
    core = v.conj().T @ phi_pt @ v
    g = v @ (coef * core) @ v.conj().T
    return GMatrix(matrix=g, kernel_vector=phi, eigenvalues=lam)


def family_from_css(sigma: np.ndarray, x: float, psd_tol: float = 1e-10,
                    check_psd: bool = True) -> np.ndarray:
    """rho(x) = sigma - x G(sigma); raises LeftPhysicalRange past the PSD cone."""
    if x < 0:
        raise ValueError("family parameter must be nonnegative")
    g = g_matrix(sigma).matrix
    rho = sigma - x * g
    if check_psd and min_eigenvalue(rho) < -psd_tol:
        lo, hi = 0.0, x
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if min_eigenvalue(sigma - mid * g) >= -psd_tol:
                lo = mid
            else:
                hi = mid
        raise LeftPhysicalRange(x, lo)
    return rho


def z_derivatives(p: SigmaZParams) -> ZFamilyDerivatives:
    """Closed-form derivative coefficients of the X-shaped family."""
    r1, r2, r3, r4, y = p.r1, p.r2, p.r3, p.r4, p.y
    z = math.sqrt((r2 - r3) ** 2 + 4 * r1 * r4)
    if z < 1e-14:
        raise DegenerateZ("z = 0: R2 = R3 with R1 R4 = 0")
    if r2 + r3 - z <= 1e-300:
        raise DegenerateZ("logarithm argument diverges (R2 R3 = R1 R4 boundary)")
    big_l = math.log((r2 + r3 + z) / (r2 + r3 - z))
    d = -1.0 / ((r1 + r4) * z * z * big_l)
    rb1 = y * y / (r1 + r4)
    rb2 = 2 * y * y * d * ((r2 - r3) * (r2 * big_l - z) + 2 * y * y * big_l)
    rb3 = -2 * rb1 - rb2
    yb = y * d * (2 * y * y * (r2 + r3) * big_l + (r2 - r3) ** 2 * z)
    return ZFamilyDerivatives(rb1, rb2, rb3, rb1, yb, z, big_l, d)


def z_family(p: SigmaZParams, x: float) -> np.ndarray:
    """Closed-form rho(x) for the X-shaped edge state."""
    return _z_family(p, z_derivatives(p), x)


def z_family_pauli(p: SigmaZParams, x: float):
    """Bloch components (r, s) and correlation vector t of rho(x)."""
    return _z_family_pauli(p, z_derivatives(p), x)


def _z_family(p: SigmaZParams, d: ZFamilyDerivatives, x) -> np.ndarray:
    """rho(x) from precomputed derivatives; an array of x gives a stack."""
    x = np.asarray(x, dtype=float)
    m = np.zeros(x.shape + (4, 4), dtype=complex)
    for k, (rk, rbk) in enumerate(((p.r1, d.rb1), (p.r2, d.rb2),
                                   (p.r3, d.rb3), (p.r4, d.rb4))):
        m[..., k, k] = rk - x * rbk
    m[..., 1, 2] = m[..., 2, 1] = p.y - x * d.yb
    return m


def _z_family_pauli(p: SigmaZParams, d: ZFamilyDerivatives, x):
    """(r, s, t) of rho(x) from precomputed derivatives; elementwise in x."""
    r = (p.r1 + p.r2 - p.r3 - p.r4) - x * (d.rb2 - d.rb3)
    s = (p.r1 - p.r2 + p.r3 - p.r4) + x * (d.rb2 - d.rb3)
    t1 = 2 * p.y - 2 * x * d.yb
    t3 = (p.r1 - p.r2 - p.r3 + p.r4) - 4 * x * d.rb1
    return r, s, np.stack([t1, t1, t3], axis=-1)


def line_crossing(p: SigmaZParams, p2: SigmaZParams):
    """Where the correlation-vector lines of two families meet.

    Returns (x, x2, mu) with mu the common correlation vector.
    """
    da, db = z_derivatives(p), z_derivatives(p2)
    ya, yb_ = p.y, p2.y
    rt_a = p.r1 - p.r2 - p.r3 + p.r4
    rt_b = p2.r1 - p2.r2 - p2.r3 + p2.r4
    denom = db.yb * da.rb1 - da.yb * db.rb1
    if abs(denom) < 1e-12:
        raise ParallelLines("family correlation lines do not cross")
    x = (db.yb * (rt_a - rt_b) - 4 * (ya - yb_) * db.rb1) / (4 * denom)
    x2 = (da.yb * (rt_a - rt_b) - 4 * (ya - yb_) * da.rb1) / (4 * denom)
    mu12 = (4 * (ya * db.yb * da.rb1 - yb_ * da.yb * db.rb1)
            - da.yb * db.yb * (rt_a - rt_b)) / (2 * denom)
    mu3 = (4 * (ya - yb_) * da.rb1 * db.rb1
           - (rt_a * da.yb * db.rb1 - rt_b * db.yb * da.rb1)) / denom
    return x, x2, np.array([mu12, mu12, mu3])


def sample_params_for_bloch(r: float, s: float, rng,
                            max_tries: int = 200) -> SigmaZParams:
    """Random X-shaped edge state whose x = 0 Bloch components are (r, s)."""
    lo = abs(r + s) / 2
    hi = 1.0 - abs(r - s) / 2
    if lo >= hi:
        raise ValueError(f"no X-shaped state has Bloch components ({r}, {s})")
    for _ in range(max_tries):
        h = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
        r1 = (h + (r + s) / 2) / 2
        r4 = (h - (r + s) / 2) / 2
        r2 = ((1 - h) + (r - s) / 2) / 2
        r3 = ((1 - h) - (r - s) / 2) / 2
        if min(r1, r2, r3, r4) < 1e-6:
            continue
        if r2 * r3 <= r1 * r4 * (1 + 1e-6):
            continue
        return SigmaZParams(r1, r2, r3, r4)
    raise ValueError("could not sample valid family parameters")


def css_line_sweep(params: list[SigmaZParams], x_grid, psd_tol: float = 1e-10):
    """Correlation-vector polylines t(x) of several families.

    Returns a list of row dicts (family_id, x, t, tau, r, s); points where
    the family leaves the PSD cone are dropped.
    """
    xs = np.asarray(x_grid, dtype=float)
    rows = []
    for fid, p in enumerate(params):
        d = z_derivatives(p)
        _, _, tau = _z_family_pauli(p, d, 0.0)
        keep = np.linalg.eigvalsh(_z_family(p, d, xs))[:, 0] >= -psd_tol
        r, s, t = _z_family_pauli(p, d, xs[keep])
        rows += [{"family_id": fid, "x": x, "t": t_x, "tau": tau, "r": r_x, "s": s_x}
                 for x, t_x, r_x, s_x in zip(xs[keep].tolist(), t, r.tolist(), s.tolist())]
    return rows


# --- recovery of the solvable families through the reverse map -------------

def _vp_css_regularized(lam, eps: float) -> np.ndarray:
    l1, l2, l3 = lam
    m = np.diag([l1 / 2 + l2, eps, eps, l1 / 2 + l3]).astype(complex)
    m[0, 3] = m[3, 0] = eps
    return m


def _horodecki_css(lam) -> np.ndarray:
    l1, l2, l3 = lam
    a, b = l1 + 2 * l2, l1 + 2 * l3
    m = np.diag([a * b, a * a, b * b, a * b]).astype(complex) / 4
    m[0, 3] = m[3, 0] = a * b / 4
    return m


def _horodecki_css_regularized(lam, eps: float) -> np.ndarray:
    m = _horodecki_css(lam)
    m[0, 0] += eps
    m[3, 3] += eps
    return m


def x_vp(lam) -> float:
    """Family parameter recovering the Vedral-Plenio state from its CSS.

    The 0/0 at lambda2 = lambda3 is removable; the analytic limit is
    2 lambda1.
    """
    l1, l2, l3 = lam
    gap = abs(l2 - l3)
    if gap < 1e-12:
        return 2.0 * l1
    return l1 * math.log((1 + gap) / (1 - gap)) / gap


def x_horodecki(lam) -> float:
    l1, l2, l3 = lam
    y = (l1 + 2 * l2) * (l1 + 2 * l3) / 4
    r1 = (l1 + 2 * l2) ** 2 / 4
    r4 = (l1 + 2 * l3) ** 2 / 4
    eta = y * y / (r1 + r4)
    return (l1 / 2 - y) / eta


def _richardson_recover(build_sigma, x: float, eps: float) -> np.ndarray:
    f1 = family_from_css(build_sigma(eps), x, check_psd=False)
    f2 = family_from_css(build_sigma(eps / 2), x, check_psd=False)
    return 2 * f2 - f1


def recover_vp(lam, eps: float = 1e-7) -> np.ndarray:
    """rho_vp rebuilt from its (regularized) CSS at x = x_vp."""
    return _richardson_recover(lambda e: _vp_css_regularized(lam, e),
                               x_vp(lam), eps)


def recover_horodecki(lam, eps: float = 1e-7) -> np.ndarray:
    """rho_H rebuilt from its (regularized) CSS at x = x_H."""
    return _richardson_recover(lambda e: _horodecki_css_regularized(lam, e),
                               x_horodecki(lam), eps)
