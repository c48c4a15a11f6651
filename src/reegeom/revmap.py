"""The reverse map: from an edge separable state to the one-parameter
family of entangled states sharing it as closest separable state.

Two independent routes are implemented: the spectral construction
rho(x) = sigma - x G(sigma) built from the kernel of sigma's partial
transpose, and the closed-form X-shaped family with its derivative
coefficients (including the literature sign correction).  Their agreement
is an executable proof check.  Neither route checks that rho(x) is a
state: that holds exactly for 0 <= x <= x_max = 1 / lambda_max(sigma^-1/2 G
sigma^-1/2).  `css_line_sweep` drops the X-shaped family's points past it
by the family's smallest eigenvalue, `spectra.branch_min`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import DegenerateZ, NotEdgeState, ParallelLines, RankDeficient
from .qstate import PSD_TOL, partial_transpose
from .ree import _log_divided

RANK_EPS = 1e-12
EDGE_TOL = 1e-8
SAMPLE_TRIES = 200      # draws before sample_params_for_bloch gives up
REGULARIZATION = 1e-7   # CSS regularization of the family recoveries


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


def pt_kernel(sigma: np.ndarray) -> np.ndarray:
    """Unit vector spanning the kernel of sigma's partial transpose."""
    vals, vecs = np.linalg.eigh(partial_transpose(sigma))
    near_zero = np.abs(vals) <= EDGE_TOL
    if np.count_nonzero(near_zero) != 1:
        raise NotEdgeState(
            f"{np.count_nonzero(near_zero)} near-zero PT eigenvalues (need exactly 1)")
    return vecs[:, near_zero].ravel()


def g_matrix(sigma: np.ndarray) -> np.ndarray:
    """The reverse-map generator G(sigma), in sigma's eigenbasis with the
    reciprocal divided differences 1 / ln[l_i, l_j] of ln (l_i on the diagonal)."""
    sigma = np.asarray(sigma, dtype=complex)
    lam, v = np.linalg.eigh(sigma)
    if lam[0] <= RANK_EPS:
        raise RankDeficient(f"smallest eigenvalue {lam[0]:.3e} <= {RANK_EPS:.0e}")
    phi = pt_kernel(sigma)
    phi_pt = partial_transpose(np.outer(phi, phi.conj()))

    coef = 1.0 / _log_divided(lam[:, None], lam[None, :])
    core = v.conj().T @ phi_pt @ v
    return v @ (coef * core) @ v.conj().T


def family_from_css(sigma: np.ndarray, x: float) -> np.ndarray:
    """rho(x) = sigma - x G(sigma), unchecked.

    For full-rank sigma, rho(x) is positive semidefinite exactly for
    0 <= x <= x_max = 1 / lambda_max(sigma^-1/2 G sigma^-1/2); past x_max it
    is not a state.
    """
    if x < 0:
        raise ValueError("family parameter must be nonnegative")
    return sigma - x * g_matrix(sigma)


def z_derivatives(p: SigmaZParams) -> ZFamilyDerivatives:
    """Closed-form derivative coefficients of the X-shaped family."""
    r1, r2, r3, r4, y = p.r1, p.r2, p.r3, p.r4, p.y
    z = math.sqrt((r2 - r3) ** 2 + 4 * r1 * r4)
    if z < 1e-14:
        raise DegenerateZ("z = 0: R2 = R3 with R1 R4 = 0")
    if r2 + r3 - z <= 1e-300:
        raise DegenerateZ("logarithm argument diverges (R2 R3 = R1 R4 boundary)")
    log_ratio = math.log((r2 + r3 + z) / (r2 + r3 - z))
    d = -1.0 / ((r1 + r4) * z * z * log_ratio)
    rb1 = y * y / (r1 + r4)
    rb2 = 2 * y * y * d * ((r2 - r3) * (r2 * log_ratio - z) + 2 * y * y * log_ratio)
    rb3 = -2 * rb1 - rb2
    yb = y * d * (2 * y * y * (r2 + r3) * log_ratio + (r2 - r3) ** 2 * z)
    return ZFamilyDerivatives(rb1, rb2, rb3, rb1, yb)


def z_family(p: SigmaZParams, x) -> np.ndarray:
    """Closed-form rho(x) for the X-shaped edge state; an array of x gives a stack."""
    d = z_derivatives(p)
    x = np.asarray(x, dtype=float)
    m = np.zeros(x.shape + (4, 4), dtype=complex)
    for k, (rk, rbk) in enumerate(((p.r1, d.rb1), (p.r2, d.rb2),
                                   (p.r3, d.rb3), (p.r4, d.rb4))):
        m[..., k, k] = rk - x * rbk
    m[..., 1, 2] = m[..., 2, 1] = p.y - x * d.yb
    return m


def _z_family_rst(p: SigmaZParams, d: ZFamilyDerivatives, x):
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


def sample_params_for_bloch(r: float, s: float, rng) -> SigmaZParams:
    """Random X-shaped edge state whose x = 0 Bloch components are (r, s)."""
    lo = abs(r + s) / 2
    hi = 1.0 - abs(r - s) / 2
    if lo >= hi:
        raise ValueError(f"no X-shaped state has Bloch components ({r}, {s})")
    for _ in range(SAMPLE_TRIES):
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


def css_line_sweep(params: list[SigmaZParams], x_grid):
    """Correlation-vector polylines t(x) of several families.

    Returns a list of row dicts (family_id, x, t, tau, r, s).  A point is
    dropped where the family has left the PSD cone: where its smallest
    eigenvalue, `spectra.branch_min` at q1 = q2 = t1, is below -PSD_TOL.
    """
    xs = np.asarray(x_grid, dtype=float)
    rows = []
    for fid, p in enumerate(params):
        d = z_derivatives(p)
        _, _, tau = _z_family_rst(p, d, 0.0)
        r, s, t = _z_family_rst(p, d, xs)
        keep = spectra.branch_min(r, s, t[:, 0], t[:, 1], t[:, 2]) >= -PSD_TOL
        rows += [{"family_id": fid, "x": x, "t": t_x, "tau": tau, "r": r_x, "s": s_x}
                 for x, t_x, r_x, s_x in zip(xs[keep].tolist(), t[keep],
                                             r[keep].tolist(), s[keep].tolist())]
    return rows


# --- recovery of the solvable families through the reverse map -------------

# offsets D of the regularized CSS sigma + e D, full rank and still an edge state:
# VP |00><11| + |11><00| + |01><01| + |10><10|, Horodecki |00><00| + |11><11|
_VP_OFFSET = np.eye(4)[[3, 1, 2, 0]]
_HORODECKI_OFFSET = np.diag([1.0, 0.0, 0.0, 1.0])


def x_vp(lam) -> float:
    """Family parameter recovering the generalized VP state from its CSS
    diag(a, 0, 0, b), a = l1/2 + l2 and b = l1/2 + l3: l1 ln[a, b], with
    ln[a, b] the first divided difference of ln (2 l1 at l2 = l3)."""
    l1, l2, l3 = lam
    return l1 * float(_log_divided(l1 / 2 + l2, l1 / 2 + l3))


def x_horodecki(lam) -> float:
    l1, l2, l3 = lam
    y = (l1 + 2 * l2) * (l1 + 2 * l3) / 4
    r1 = (l1 + 2 * l2) ** 2 / 4
    r4 = (l1 + 2 * l3) ** 2 / 4
    eta = y * y / (r1 + r4)
    return (l1 / 2 - y) / eta


def _richardson_recover(sigma, offset, x: float) -> np.ndarray:
    """rho(x) from sigma + e offset at e = REGULARIZATION and REGULARIZATION / 2,
    extrapolated linearly to e = 0."""
    f1 = family_from_css(sigma + REGULARIZATION * offset, x)
    f2 = family_from_css(sigma + REGULARIZATION / 2 * offset, x)
    return 2 * f2 - f1


def recover_vp(sigma, lam) -> np.ndarray:
    """rho_vp rebuilt at x = x_vp(lam) from sigma, its CSS in the template frame."""
    return _richardson_recover(sigma, _VP_OFFSET, x_vp(lam))


def recover_horodecki(sigma, lam) -> np.ndarray:
    """rho_H rebuilt at x = x_horodecki(lam) from its template-frame CSS sigma."""
    return _richardson_recover(sigma, _HORODECKI_OFFSET, x_horodecki(lam))
