"""Constructive closest-separable-state computation.

Three solvable families admit a geometric construction: Bell-diagonal
states, one-Bell-state mixtures with non-orthogonal separable parts
(generalized Vedral-Plenio), and with orthogonal separable parts
(generalized Horodecki).  `classify` detects the family after reducing an
input state to its diagonal-correlation canonical frame; `css_auto`
dispatches and rotates the result's Pauli form back to the input's frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import geometry, revmap
from .errors import NotConverged, ReegeomError
from .qstate import (
    BELL_STATES,
    PSD_TOL,
    SIGNED_PERMUTATION_FRAMES,
    DiagonalPauliForm,
    PauliForm,
    canonicalize,
    from_diagonal_pauli,
    from_pauli,
    is_ppt,
    min_pt_eigenvalue,
    to_pauli,
    validate_density_matrix,
)
from .ree import ree_numeric, relative_entropy

CLASSIFY_TOL = 1e-8


class FamilyKind(Enum):
    BELL_DIAGONAL = "BellDiagonal"
    GENERALIZED_VP = "GeneralizedVP"
    GENERALIZED_HORODECKI = "GeneralizedHorodecki"
    OTHER = "Other"


@dataclass(frozen=True)
class FamilyTag:
    kind: FamilyKind
    lambdas: tuple[float, float, float] | None = None


@dataclass
class CssResult:
    css: np.ndarray
    tau: np.ndarray
    family: FamilyTag
    ree: float
    residuals: dict = field(default_factory=dict)
    separable: bool = False
    geometric: bool = True


def _vp_state(lam) -> np.ndarray:
    l1, l2, l3 = lam
    return l1 * BELL_STATES[0] + np.diag([l2, 0, 0, l3]).astype(complex)


def _horodecki_state(lam) -> np.ndarray:
    l1, l2, l3 = lam
    return l1 * BELL_STATES[0] + np.diag([0, l2, l3, 0]).astype(complex)


def _match_templates(dpf: DiagonalPauliForm, tol: float = CLASSIFY_TOL):
    """Family tag plus the signed-permutation frame reaching the template.

    Returns (tag, P_A, P_B) with P_A, P_B in SO(3); identity frames for
    Bell-diagonal and Other.
    """
    eye = np.eye(3)
    if np.linalg.norm(dpf.r) <= tol and np.linalg.norm(dpf.s) <= tol:
        return FamilyTag(FamilyKind.BELL_DIAGONAL), eye, eye

    # all frames at once, one row each; the first frame passing a test wins
    pa, pb = SIGNED_PERMUTATION_FRAMES[:, 0], SIGNED_PERMUTATION_FRAMES[:, 1]
    r2, s2 = pa @ dpf.r, pb @ dpf.s
    q2 = np.einsum("nij,j,nij->ni", pa, dpf.q, pb)  # diag(P_A diag(q) P_B^T)
    l1 = q2[:, 0]
    axial = ((np.abs(np.hstack([r2[:, :2], s2[:, :2]])).max(axis=1) <= tol)
             & (np.abs(l1 + q2[:, 1]) <= tol) & (l1 >= -tol))
    # w sets l2, l3 = (1 - l1 +- w) / 2; the smaller must be >= -tol.  Each
    # frame's partner diag(1, -1, -1) (P_A, P_B) passes the same tests with w
    # negated: requiring w >= 0 orders l2 >= l3, so lambdas depend on rho alone
    w_vp, w_h = (r2[:, 2] + s2[:, 2]) / 2, (r2[:, 2] - s2[:, 2]) / 2
    vp = (axial & (np.abs(r2[:, 2] - s2[:, 2]) <= tol)
          & (np.abs(q2[:, 2] - 1.0) <= tol)
          & (w_vp >= 0) & ((1 - l1 - w_vp) / 2 >= -tol))
    h = (axial & (np.abs(r2[:, 2] + s2[:, 2]) <= tol)
         & (np.abs(q2[:, 2] - (2 * l1 - 1)) <= tol)
         & (w_h >= 0) & ((1 - l1 - w_h) / 2 >= -tol))
    hits = np.flatnonzero(vp | h)
    if hits.size:
        n = hits[0]
        kind, w = ((FamilyKind.GENERALIZED_VP, w_vp[n]) if vp[n]
                   else (FamilyKind.GENERALIZED_HORODECKI, w_h[n]))
        lam = _clip_weights(l1[n], (1 - l1[n] + w) / 2, (1 - l1[n] - w) / 2)
        return FamilyTag(kind, lam), pa[n], pb[n]
    return FamilyTag(FamilyKind.OTHER), eye, eye


def _clip_weights(l1, l2, l3):
    lam = np.clip([l1, l2, l3], 0.0, None)
    return tuple(lam / lam.sum())


def classify(rho: np.ndarray) -> FamilyTag:
    """Family of rho, read off its Pauli form in the canonical frame."""
    validate_density_matrix(rho)
    dpf, _, _ = canonicalize(to_pauli(rho))
    tag, _, _ = _match_templates(dpf)
    return tag


def _bell_diagonal_parts(t, r, s):
    """(rho, css, tau, tag, separable) of the Bell-diagonal construction,
    with rho and its CSS both keeping the Bloch vectors r, s."""
    t = np.asarray(t, dtype=float)
    rho = from_diagonal_pauli(r, s, t)
    tag = FamilyTag(FamilyKind.BELL_DIAGONAL)
    if np.sum(np.abs(t)) <= 1.0 + PSD_TOL:
        return rho, rho, t, tag, True
    v = geometry.nearest_vertex(t)
    n = v.coords  # the nearest octahedron face lies in the plane n.q = 1
    if np.linalg.norm(t - v.coords) < 1e-12:
        tau = v.coords / 3.0  # vertex limit of the ray construction
    else:
        w = 2.0 / (3.0 - float(n @ t))
        tau = v.coords + w * (t - v.coords)
    return rho, from_diagonal_pauli(r, s, tau), tau, tag, False


def _vp_parts(lam):
    """(rho, css, tau, tag, separable) of the generalized VP construction."""
    l1, l2, l3 = lam
    rho = _vp_state(lam)
    tag = FamilyTag(FamilyKind.GENERALIZED_VP, (l1, l2, l3))
    tau = np.array([0.0, 0.0, 1.0])
    if l1 <= 0:
        return rho, rho, tau, tag, True
    return rho, np.diag([l1 / 2 + l2, 0, 0, l1 / 2 + l3]).astype(complex), tau, tag, False


def _horodecki_parts(lam):
    """(rho, css, tau, tag, separable) of the generalized Horodecki construction."""
    l1, l2, l3 = lam
    rho = _horodecki_state(lam)
    tag = FamilyTag(FamilyKind.GENERALIZED_HORODECKI, (l1, l2, l3))
    if l1 ** 2 <= 4 * l2 * l3:
        return rho, rho, np.array([l1, -l1, 2 * l1 - 1]), tag, True
    q1 = 0.5 * (l1 + 2 * l2) * (l1 + 2 * l3)
    tau = np.array([q1, -q1, 2 * q1 - 1])
    w = l2 - l3
    return rho, from_diagonal_pauli((0, 0, w), (0, 0, -w), tau), tau, tag, False


def css_bell_diagonal(t) -> CssResult:
    """Closest separable state of the Bell-diagonal state with correlation
    vector t: the crossing of the ray from the nearest tetrahedron vertex
    through t with the nearest octahedron face."""
    return _finish(*_bell_diagonal_parts(t, np.zeros(3), np.zeros(3)))


def css_vp(lam) -> CssResult:
    """Theorem construction for generalized Vedral-Plenio weights."""
    return _finish(*_vp_parts(lam))


def css_horodecki(lam) -> CssResult:
    """Theorem construction for generalized Horodecki weights."""
    return _finish(*_horodecki_parts(lam))


def _bloch_gap(p_rho: PauliForm, p_css: PauliForm) -> float:
    """Largest distance between the Bloch vectors of rho and of its CSS,
    from their Pauli forms."""
    return float(max(np.linalg.norm(p_css.r - p_rho.r),
                     np.linalg.norm(p_css.s - p_rho.s)))


def _finish(rho, css, tau, tag, separable=False, bloch_gap=None) -> CssResult:
    """The result with its residuals; `bloch_gap` is computed from rho and
    css unless the caller gives it."""
    residuals = {
        "bloch_gap": (_bloch_gap(to_pauli(rho), to_pauli(css)) if bloch_gap is None
                      else bloch_gap),
        "edge_gap": abs(min_pt_eigenvalue(css)),
        "recovery_gap": float("nan"),
    }
    ree = 0.0 if separable else relative_entropy(rho, css)
    res = CssResult(css=css, tau=np.asarray(tau, float), family=tag, ree=ree,
                    residuals=residuals, separable=separable)
    if not separable:
        res.residuals["recovery_gap"] = _recovery_gap(rho, res)
    return res


def _recovery_gap(rho, res: CssResult) -> float:
    """Max-entry error of rebuilding rho from its CSS via the reverse map."""
    try:
        return float(np.max(np.abs(revmap.recover(res.css, rho) - rho)))
    except (ReegeomError, np.linalg.LinAlgError):
        return float("nan")


def css_auto(rho: np.ndarray, numeric_fallback: bool = True) -> CssResult:
    """Classify, construct in the template frame, and rotate the CSS's Pauli
    form back by the two rotations that took rho there.  Outside the solvable
    families the numerical oracle supplies a (non-geometric) result, and
    raises NotConverged when its bracket does not close."""
    validate_density_matrix(rho)
    p_rho = to_pauli(rho)
    dpf, r_a, r_b = canonicalize(p_rho)
    tag, pa, pb = _match_templates(dpf)

    if tag.kind is FamilyKind.OTHER:
        if not numeric_fallback:
            return CssResult(css=None, tau=None, family=tag, ree=float("nan"),
                             geometric=False)
        if is_ppt(rho):
            return _finish(rho, rho, p_rho.g.diagonal(), tag, separable=True,
                           bloch_gap=0.0)
        rep = ree_numeric(rho)
        if not rep.converged:
            raise NotConverged(rep.gap)
        p_css = to_pauli(rep.css_numeric)
        res = _finish(rho, rep.css_numeric, p_css.g.diagonal(), tag,
                      bloch_gap=_bloch_gap(p_rho, p_css))
        res.geometric = False
        return res

    if tag.kind is FamilyKind.BELL_DIAGONAL:
        parts = _bell_diagonal_parts(dpf.q, dpf.r, dpf.s)
    elif tag.kind is FamilyKind.GENERALIZED_VP:
        parts = _vp_parts(tag.lambdas)
    else:
        parts = _horodecki_parts(tag.lambdas)
    # a, b take rho's Pauli form to the template's (r -> a r, s -> b s,
    # g -> a g b^T); the template's residuals, with its CSS rotated back
    a, b = pa @ r_a, pb @ r_b
    p_t = to_pauli(parts[1])
    p_css = PauliForm(a.T @ p_t.r, b.T @ p_t.s, a.T @ p_t.g @ b)
    result = _finish(*parts, bloch_gap=_bloch_gap(p_rho, p_css))
    result.css = from_pauli(p_css)
    return result
