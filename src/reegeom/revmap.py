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

`recover` rebuilds rho from any CSS, rank-deficient or with a wider kernel
of sigma^Gamma, by fitting the multiplier Z of sigma^Gamma >= 0 in the
stationarity condition rho = sigma - D_sigma(Z^Gamma) (Ishizaka, PRA 67,
060301(R) (2003); Friedland & Gour, J. Math. Phys. 52, 052201 (2011)).
`_generators` builds G's rows once for `g_matrix` and `recover`, on the
kernel of sigma^Gamma at EDGE_TOL and sigma's support at `ree.SUPPORT_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import DegenerateZ, NotEdgeState, ParallelLines, RankDeficient
from .qstate import PSD_TOL, _finite, _pt_spectra, _require_finite, partial_transpose
from .ree import SUPPORT_TOL, _support_log_divided

EDGE_TOL = 1e-8


@dataclass(frozen=True)
class SigmaZParams:
    """X-shaped edge state diag(R1, [R2 Y; Y R3], R4) with Y = sqrt(R1 R4)."""

    r1: float
    r2: float
    r3: float
    r4: float

    def __post_init__(self):
        rs = (self.r1, self.r2, self.r3, self.r4)
        if not all(v >= 0 for v in rs):  # written so that a NaN fails each test
            raise ValueError("R coefficients must be nonnegative")
        if not abs(sum(rs) - 1.0) <= 1e-10:
            raise ValueError("R coefficients must sum to one")
        if not self.r2 * self.r3 >= self.r1 * self.r4 - 1e-12:
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


def _generators(w: np.ndarray, vecs: np.ndarray):
    """(lam, V, rows) from the `_pt_spectra` w, vecs of sigma: sigma = V diag(lam)
    V^dagger, and one row D_sigma((k_a k_b^dagger)^Gamma) in sigma's
    eigenbasis, (n^2, 4, 4), for each pair of k_1 .. k_n, the eigenvectors of
    sigma^Gamma with |eigenvalue| <= EDGE_TOL.  D_sigma, the inverse derivative
    of ln on sigma's support, multiplies by the reciprocal divided differences
    1 / ln[l_i, l_j] and is zero on sigma's kernel."""
    k = vecs[1][:, np.abs(w[1]) <= EDGE_TOL].T[:, None, :, None]
    lam, v = w[0], vecs[0]
    l1 = _support_log_divided(lam)
    coef = 1.0 / np.where(l1 == 0, np.inf, l1)
    # k_a k_b^dagger by a product over a length-1 axis: one multiply, as einsum's
    units = partial_transpose((k @ k.conj().transpose(1, 0, 3, 2)).reshape(-1, 4, 4))
    return lam, v, coef * (v.conj().T @ units @ v)


def g_matrix(sigma: np.ndarray) -> np.ndarray:
    """The reverse-map generator G(sigma) = D_sigma((phi phi^dagger)^Gamma), the
    one row of `_generators` mapped back: sigma must have full rank and phi
    span the kernel of sigma's partial transpose."""
    lam, v, rows = _generators(*_pt_spectra(sigma))
    if lam[0] <= SUPPORT_TOL:
        raise RankDeficient(f"smallest eigenvalue {lam[0]:.3e} <= {SUPPORT_TOL:.0e}")
    if len(rows) != 1:
        raise NotEdgeState(
            f"{math.isqrt(len(rows))} near-zero PT eigenvalues (need exactly 1)")
    return v @ rows[0] @ v.conj().T


def family_from_css(sigma: np.ndarray, x: float) -> np.ndarray:
    """rho(x) = sigma - x G(sigma), unchecked.

    For full-rank sigma, rho(x) is positive semidefinite exactly for
    0 <= x <= x_max = 1 / lambda_max(sigma^-1/2 G sigma^-1/2); past x_max it
    is not a state.  Raises ValueError for a negative or non-finite x.
    """
    _require_finite(x=x)
    if x < 0:
        raise ValueError("family parameter must be nonnegative")
    return sigma - x * g_matrix(sigma)


def recover(sigma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """rho rebuilt from its CSS sigma as sigma - D_sigma((K M K^dagger)^Gamma).

    K holds the n kernel vectors that `_generators` keeps; the n x n matrix M
    is fitted to rho by one least-squares solve on their rows.  Its Hermitian
    part fits as well, since D_sigma and the partial transpose commute with
    the adjoint.  With n = 1 the fit is the projection onto G(sigma); a
    rank-deficient sigma needs no regularization, as D_sigma is zero there.
    Raises InvalidState where sigma or rho has a NaN or infinite entry.
    """
    return _recover(sigma, _finite(rho), *_pt_spectra(sigma))


def _recover(sigma, rho, w, vecs) -> np.ndarray:
    """`recover` from the spectra w, vecs of (sigma, sigma^Gamma)."""
    _, v, rows = _generators(w, vecs)
    if not len(rows):
        raise NotEdgeState("sigma's partial transpose has no near-zero eigenvalue")
    cols = rows.reshape(len(rows), 16)
    n = math.isqrt(len(rows))
    target = (v.conj().T @ (sigma - rho) @ v).ravel()
    m = np.linalg.lstsq(cols.T, target, rcond=None)[0].reshape(n, n)
    fit = ((m + m.conj().T) / 2).ravel() @ cols
    return sigma - v @ fit.reshape(4, 4) @ v.conj().T


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
    """Closed-form rho(x) for the X-shaped edge state; an array of x gives a
    stack.  Raises ValueError where an x is not finite."""
    _require_finite(x=x)
    d = z_derivatives(p)
    x = np.asarray(x, dtype=float)
    m = np.zeros(x.shape + (4, 4), dtype=complex)
    for k, (rk, rbk) in enumerate(((p.r1, d.rb1), (p.r2, d.rb2),
                                   (p.r3, d.rb3), (p.r4, d.rb4))):
        m[..., k, k] = rk - x * rbk
    m[..., 1, 2] = m[..., 2, 1] = p.y - x * d.yb
    return m


def _z_family_rst(p: SigmaZParams, d: ZFamilyDerivatives, x):
    """(r, s, t) of rho(x) from precomputed derivatives; x a scalar or a 1-D array."""
    r = (p.r1 + p.r2 - p.r3 - p.r4) - x * (d.rb2 - d.rb3)
    s = (p.r1 - p.r2 + p.r3 - p.r4) + x * (d.rb2 - d.rb3)
    t1 = 2 * p.y - 2 * x * d.yb
    t3 = (p.r1 - p.r2 - p.r3 + p.r4) - 4 * x * d.rb1
    return r, s, np.array([t1, t1, t3]).T  # np.stack takes 5x as long at a scalar x


def line_crossing(p: SigmaZParams, p2: SigmaZParams):
    """Where the correlation-vector lines of two families meet.

    Returns (x, x2, mu) with mu the common correlation vector, read off the
    first family's line at x.
    """
    da, db = z_derivatives(p), z_derivatives(p2)
    # each line's offset at x = 0: t1 = 2 y, t3 = R1 - R2 - R3 + R4
    (t1a, _, t3a), (t1b, _, t3b) = (_z_family_rst(q, d, 0.0)[2].tolist()
                                    for q, d in ((p, da), (p2, db)))
    denom = db.yb * da.rb1 - da.yb * db.rb1
    if abs(denom) < 1e-12:
        raise ParallelLines("family correlation lines do not cross")
    x = (db.yb * (t3a - t3b) - 2 * (t1a - t1b) * db.rb1) / (4 * denom)
    x2 = (da.yb * (t3a - t3b) - 2 * (t1a - t1b) * da.rb1) / (4 * denom)
    return x, x2, _z_family_rst(p, da, x)[2]


def sample_params_for_bloch(r: float, s: float, rng) -> SigmaZParams:
    """Random X-shaped edge state whose x = 0 Bloch components are (r, s).

    h = R1 + R4 makes every R positive on (|r + s| / 2, 1 - |r - s| / 2), and
    R2 R3 - R1 R4 = (1 + rs - 2h) / 4 positive below (1 + rs) / 2: one interval,
    non-empty exactly when |r|, |s| < 1.  h is drawn once from its middle 96%,
    off the R2 R3 = R1 R4 end, where `z_derivatives` raises DegenerateZ.

    Raises ValueError for a non-finite r or s, or for (r, s) that no such
    state has."""
    _require_finite(r=r, s=s)
    lo = abs(r + s) / 2
    hi = min(1.0 - abs(r - s) / 2, (1.0 + r * s) / 2)
    if lo >= hi:
        raise ValueError(f"no X-shaped state has Bloch components ({r}, {s})")
    h = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
    return SigmaZParams((h + (r + s) / 2) / 2, ((1 - h) + (r - s) / 2) / 2,
                        ((1 - h) - (r - s) / 2) / 2, (h - (r + s) / 2) / 2)


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
