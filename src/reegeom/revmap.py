"""The reverse map: from an edge separable state to the one-parameter
family of entangled states sharing it as closest separable state.

Two independent routes are implemented: the spectral construction
rho(x) = sigma - x G(sigma) built from the kernel of sigma's partial
transpose, and the closed-form X-shaped family, G the `_x_matrix` of its
derivative coefficients (literature sign corrected).  Their agreement
is an executable proof check.  Neither route checks that rho(x) is a
state: that holds exactly for 0 <= x <= x_max = 1 / lambda_max(sigma^-1/2 G
sigma^-1/2).  `css_line_sweep` drops the X-shaped family's points past it
by the family's smallest eigenvalue, `spectra.branch_min`.

`recover` rebuilds rho from any CSS, rank-deficient or with a wider kernel
of sigma^Gamma, from the multiplier Z of sigma^Gamma >= 0 that `ree._fit`
fits in the stationarity condition rho = sigma - D_sigma(Z^Gamma), on G's
rows from `ree._generators`.  `_newton` solves the map backwards, for sigma
and x from rho, by damped Newton with a closed-form Jacobian in sigma's 15
Pauli coordinates, which `qstate` alone reads (`_to_coordinates`) and builds
on (`_from_coordinates`, `_DIRECTIONS_FLAT`); `_edge_css` decides whether
`css.css_auto` takes its sigma, route "reverse-map".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectra
from .errors import DegenerateZ, NotEdgeState, ParallelLines, RankDeficient
from .qstate import (_DIRECTIONS_FLAT, PSD_TOL, _from_coordinates, _pt_spectra,
                     _require_finite, _state, _to_coordinates, partial_transpose)
from .ree import (MAX_HALVINGS, SUPPORT_TOL, _certificate, _fit, _frame, _generators, _kernel,
                  _log_divided2)

# the Newton solve of the reverse map, `_newton`, and what route "reverse-map" accepts
NEWTON_TOL = 1e-12  # largest |F|_2, at the solve's rounding floor, that it accepts
NEWTON_STEPS = 20  # steps, each on a new Jacobian but at the rounding floor, before a solve stops
RANK_FLOOR = 1e-5  # smallest lambda_min(sigma) accepted, so that every frame takes one route
CERTIFICATE_TOL = -1e-10  # smallest optimality certificate accepted


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
        return _x_matrix((self.r1, self.r2, self.r3, self.r4), self.y)


def _x_matrix(diagonal, y) -> np.ndarray:
    """The complex X-shaped matrix diag(d1, [d2 y; y d3], d4)."""
    m = np.diag(diagonal).astype(complex)
    m[1, 2] = m[2, 1] = y
    return m


@dataclass(frozen=True)
class ZFamilyDerivatives:
    rb1: float
    rb2: float
    rb3: float
    rb4: float
    yb: float


def g_matrix(sigma: np.ndarray) -> np.ndarray:
    """The reverse-map generator G(sigma) = D_sigma((phi phi^dagger)^Gamma) of
    sigma's Hermitian part, the one row of `_generators` mapped back: sigma
    must have full rank and phi span the kernel of sigma's partial transpose."""
    return _g_matrix(*_state(sigma)[1])


def _g_matrix(w, vecs) -> np.ndarray:
    """`g_matrix` of the state whose spectra of (sigma, sigma^Gamma) are w, vecs."""
    k, v = _kernel(w, vecs), vecs[0]
    if w[0, 0] <= SUPPORT_TOL:
        raise RankDeficient(f"smallest eigenvalue {w[0, 0]:.3e} <= {SUPPORT_TOL:.0e}")
    if k.shape[1] != 1:
        raise NotEdgeState(f"{k.shape[1]} near-zero PT eigenvalues (need exactly 1)")
    return v @ _generators(w[0], v, k)[1][0] @ v.conj().T


def family_from_css(sigma: np.ndarray, x: float) -> np.ndarray:
    """rho(x) = sigma - x G(sigma), unchecked, on sigma's Hermitian part.

    For full-rank sigma, rho(x) is positive semidefinite exactly for
    0 <= x <= x_max = 1 / lambda_max(sigma^-1/2 G sigma^-1/2); past x_max it
    is not a state.  Raises ValueError for a negative or non-finite x, and
    TypeError for an array x.
    """
    _require_parameter("x", x)
    h, (w, vecs) = _state(sigma)
    return h - float(x) * _g_matrix(w, vecs)


def _require_parameter(name: str, x) -> None:
    """Raise ValueError where the family parameter x, a number or an array,
    has an entry that is not finite or is negative: rho(x) = sigma - x G is
    in the family only for x >= 0, and sigma + |x| G is not."""
    _require_finite(**{name: x})
    if (np.asarray(x) < 0).any():
        raise ValueError("family parameter must be nonnegative")


def recover(sigma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """rho rebuilt from its CSS sigma as sigma - D_sigma((K M K^dagger)^Gamma).

    K holds the n kernel vectors that `_generators` keeps; the n x n matrix M
    is fitted to rho by one least-squares solve on their rows.  Its Hermitian
    part fits as well, since D_sigma and the partial transpose commute with
    the adjoint.  With n = 1 the fit is the projection onto G(sigma); a
    rank-deficient sigma needs no regularization, as D_sigma is zero there.
    sigma and rho are read as their Hermitian parts.  Raises InvalidState
    where sigma or rho is not a finite 4x4 matrix.
    """
    h, (s, (w, vecs)) = _state(rho)[0], _state(sigma)
    return _rebuild(s, vecs[0], _fit(s, h, w, vecs))


def _rebuild(sigma, v, fit) -> np.ndarray:
    """`recover` from sigma's eigenvectors v and the `_fit` of sigma to rho."""
    _, m, cols = fit
    if not len(cols):
        raise NotEdgeState("sigma's partial transpose has no near-zero eigenvalue")
    return sigma - v @ (m.ravel() @ cols).reshape(4, 4) @ v.conj().T


class _NewtonEnd(NamedTuple):
    """Where `_newton` stopped: sigma's Pauli coordinates c, the multiplier x,
    the spectra w, v of (sigma, sigma^Gamma), |F|_2, the Jacobians built,
    and whether |F|_2 ended at most NEWTON_TOL."""

    c: np.ndarray
    x: float
    w: np.ndarray
    v: np.ndarray
    residual: float
    jacobians: int
    converged: bool


def _edge_residual(c, x, target, w, v):
    """F(c, x) of `_newton` from the spectra w, v of (sigma, sigma^Gamma): the
    Pauli coordinates of sigma - x G(sigma) - rho, with target rho's, and
    lambda_min(sigma^Gamma).  G = D_sigma((phi phi^dagger)^Gamma) is
    `_generators`' row at phi, the lowest eigenvector of sigma^Gamma, whatever
    its eigenvalue.  Also returns what the Jacobian reuses: the first divided
    differences l1 of sigma's spectrum, G in sigma's eigenbasis and G's Pauli
    coordinates."""
    l1, (g_eig,) = _generators(w[0], v[0], v[1][:, :1])
    g = _to_coordinates(v[0] @ g_eig @ v[0].conj().T)
    return np.append(c - x * g - target, w[1, 0]), l1, g_eig, g


def _edge_jacobian(x, w, v, l1, g_eig, g) -> np.ndarray:
    """dF / d(c, x), (16, 16), in closed form, with a_j, u_j the eigenpairs of
    sigma^Gamma and phi = u_0: along E = E_k, d lambda_min = phi^dagger E^Gamma
    phi, d phi = -sum_{j>0} u_j (u_j^dagger E^Gamma phi) / (a_j - a_0) and, in
    sigma's eigenbasis (`ree._frame`), dG = ((d phi phi^dagger + phi d
    phi^dagger)^Gamma - T) / ln[l_i, l_j], where T_ij = sum_m ln[l_i, l_m, l_j]
    (E_im G_mj + G_im E_mj), its second sum the adjoint of its first, is the
    second derivative of ln; dF/dc_k = E_k - x dG and dF/dx = -G in coordinates."""
    phi, frame = v[1][:, 0], _frame(v[0])
    e_phi = _DIRECTIONS_FLAT[1].reshape(15, 4, 4) @ phi  # E_k^Gamma phi, (15, 4)
    dphi = -((e_phi @ v[1][:, 1:].conj()) / (w[1, 1:] - w[1, 0])) @ v[1][:, 1:].T
    e = (_DIRECTIONS_FLAT[0] @ frame).reshape(15, 4, 4)  # the directions in sigma's eigenbasis
    t = np.matmul(e.transpose(1, 0, 2), _log_divided2(w[0], l1) * g_eig).transpose(1, 0, 2)
    outer = dphi[:, :, None] * phi.conj()
    dk = partial_transpose(outer + outer.conj().transpose(0, 2, 1)).reshape(15, 16)
    dg = ((dk @ frame).reshape(15, 4, 4) - t - t.conj().transpose(0, 2, 1)) / l1
    jac = np.zeros((16, 16))
    # Pauli coordinates of V X V^dagger: tr(X V^dagger P_k V), with V^dagger P_k V = 4 e_k
    jac[:15, :15] = np.eye(15) - 4 * x * (e.reshape(15, 16).conj() @ dg.reshape(15, 16).T).real
    jac[:15, 15] = -g
    jac[15, :15] = (e_phi @ phi.conj()).real
    return jac


def _newton(rho, w, v) -> _NewtonEnd:
    """Damped Newton on the reverse map rho = sigma - x G(sigma) with
    lambda_min(sigma^Gamma) = 0, the stationarity of a full-rank CSS sigma
    (Ishizaka, PRA 67, 060301(R) (2003); Friedland & Gour, J. Math. Phys.
    52, 052201 (2011)): F(c, x) of `_edge_residual` = 0 in sigma's 15 Pauli
    coordinates c and x, from the spectra w, v of (rho, rho^Gamma) of an
    entangled rho.

    The seed sigma0 = (1 - p) rho + p I/4 at p = -lam / (1/4 - lam), lam =
    lambda_min(rho^Gamma), lies on the PPT edge and shares rho's and
    rho^Gamma's eigenvectors, so its spectra are w's, moved; x starts at 0,
    where |F|_2 = p |c(rho)|_2 > 2e-10.  A step is halved until |F|_2, kept by
    local unitaries, the swap and conjugation, falls with lambda_min(sigma) >
    SUPPORT_TOL.  Once |F|_2 <= NEWTON_TOL, full steps on the last Jacobian
    follow while they halve it; the first that does not is kept where it
    shrinks |F|_2 and ends the solve, at its rounding floor, as a singular
    Jacobian, a step that is not finite, MAX_HALVINGS halvings and
    NEWTON_STEPS steps do.  Converged means |F|_2 <= NEWTON_TOL at the end."""
    target = _to_coordinates(rho)
    p = -w[1, 0] / (0.25 - w[1, 0])
    c, x, ws, vs = (1 - p) * target, 0.0, (1 - p) * w + p / 4, v
    f, l1, g_eig, g = _edge_residual(c, x, target, ws, vs)
    norm, jacobians = float(np.linalg.norm(f)), 0
    for _ in range(NEWTON_STEPS):
        floor = norm <= NEWTON_TOL  # only rounding is left
        if not floor:
            jac = _edge_jacobian(x, ws, vs, l1, g_eig, g)
            jacobians += 1
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(step).all():
            break
        t = 1.0
        for _ in range(1 if floor else MAX_HALVINGS):
            ct, xt = c + t * step[:15], x + t * step[15]
            wt, vt = _pt_spectra(_from_coordinates(ct))
            if wt[0, 0] > SUPPORT_TOL:
                trial = _edge_residual(ct, xt, target, wt, vt)
                trial_norm = float(np.linalg.norm(trial[0]))
                if trial_norm < norm:
                    break
            t /= 2
        else:
            break
        c, x, ws, vs, (f, l1, g_eig, g) = ct, xt, wt, vt, trial
        norm, last = trial_norm, norm
        if floor and norm > last / 2:  # no longer halved: the rounding floor
            break
    return _NewtonEnd(c, x, ws, vs, norm, jacobians, norm <= NEWTON_TOL)


def _edge_css(rho, w, v):
    """Route "reverse-map": (sigma, its spectra, their `_fit` to rho) from
    `_newton` on rho with the spectra w, v of (rho, rho^Gamma), or None
    unless the solve converged with x > 0 and lambda_min(sigma) >= RANK_FLOOR
    and sigma's `ree._certificate` is at least CERTIFICATE_TOL.  Below the
    floor the certificate of one state scored either side of its bound in
    different local frames."""
    end = _newton(rho, w, v)
    if not (end.converged and end.x > 0 and end.w[0, 0] >= RANK_FLOOR):
        return None
    sigma = _from_coordinates(end.c)
    fit = _fit(sigma, rho, end.w, end.v)
    if not _certificate(rho, sigma, end.w, end.v, fit) >= CERTIFICATE_TOL:
        return None
    return sigma, (end.w, end.v), fit


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
    stack.  Raises ValueError where an x is negative or not finite."""
    _require_parameter("x", x)
    d = z_derivatives(p)
    g = _x_matrix((d.rb1, d.rb2, d.rb3, d.rb4), d.yb)  # G(sigma) of the family
    return p.matrix() - np.asarray(x, dtype=float)[..., None, None] * g


def _z_line(p: SigmaZParams, d: ZFamilyDerivatives) -> tuple:
    """The family's (r, s, t1, t3) at x = 0, then (Rb2 - Rb3, Yb, Rb1), which
    move them with x in `_z_rst`."""
    return (p.r1 + p.r2 - p.r3 - p.r4, p.r1 - p.r2 + p.r3 - p.r4, 2 * p.y,
            p.r1 - p.r2 - p.r3 + p.r4, d.rb2 - d.rb3, d.yb, d.rb1)


def _z_rst(line, x):
    """(r, s, t1, t3) of rho(x), t2 = t1, from a `_z_line`; its entries and x
    may be numbers or arrays that broadcast."""
    r0, s0, t10, t30, drb, yb, rb1 = line
    return r0 - x * drb, s0 + x * drb, t10 - 2 * x * yb, t30 - 4 * x * rb1


def line_crossing(p: SigmaZParams, p2: SigmaZParams):
    """Where the correlation-vector lines of two families meet.

    Returns (x, x2, mu) with mu the common correlation vector, read off the
    first family's line at x.
    """
    da, db = z_derivatives(p), z_derivatives(p2)
    line = _z_line(p, da)
    (t1a, t3a), (t1b, t3b) = line[2:4], _z_line(p2, db)[2:4]  # each line's offset at x = 0
    denom = db.yb * da.rb1 - da.yb * db.rb1
    if abs(denom) < 1e-12:
        raise ParallelLines("family correlation lines do not cross")
    x = (db.yb * (t3a - t3b) - 2 * (t1a - t1b) * db.rb1) / (4 * denom)
    x2 = (da.yb * (t3a - t3b) - 2 * (t1a - t1b) * da.rb1) / (4 * denom)
    _, _, t1, t3 = _z_rst(line, x)
    return x, x2, np.array([t1, t1, t3])


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

    Returns a list of row dicts (family_id, x, t, tau, r, s), family by
    family in x_grid's order.  A point is dropped where the family has left
    the PSD cone: where its smallest eigenvalue, `spectra.branch_min` at
    q1 = q2 = t1, is below -PSD_TOL or NaN, as an x far past x_max overflows
    it.  The derivatives are taken family by family, a degenerate one raising
    DegenerateZ; the points of all families are one (family, x) array pass.
    An entry of x_grid that is negative or not finite raises ValueError.
    """
    xs = np.asarray(x_grid, dtype=float)
    _require_parameter("x_grid", xs)
    # (7, families, 1): each `_z_line` entry as a column over the families
    lines = np.array([_z_line(p, z_derivatives(p)) for p in params]).reshape(-1, 7).T[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # overflows lie far past x_max
        r, s, t1, t3 = _z_rst(lines, xs)
        keep = spectra.branch_min(r, s, t1, t1, t3) >= -PSD_TOL
    fid, col = np.nonzero(keep)
    t1, t3 = t1[keep], t3[keep]
    tau1, tau3 = lines[2, :, 0], lines[3, :, 0]  # each family's t1, t3 at x = 0
    tau = list(np.column_stack([tau1, tau1, tau3]))  # one array per family, as rows share it
    return [{"family_id": f, "x": x, "t": t_x, "tau": tau[f], "r": r_x, "s": s_x}
            for f, x, t_x, r_x, s_x in zip(fid.tolist(), xs[col].tolist(),
                                           np.column_stack([t1, t1, t3]),
                                           r[keep].tolist(), s[keep].tolist())]
