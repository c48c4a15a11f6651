"""Constructive closest-separable-state computation.

Three solvable families admit a geometric construction: Bell-diagonal
states, one-Bell-state mixtures with non-orthogonal separable parts
(generalized Vedral-Plenio), and with orthogonal separable parts
(generalized Horodecki).  `classify` detects the family after reducing an
input state to its diagonal-correlation canonical frame.  The CSS keeps the
input's Bloch vectors; only its correlation vector tau, in the family's
template frame, is computed and rotated back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import geometry, revmap
from .errors import NotConverged, ReegeomError
from .qstate import (
    BELL_STATES,
    SIGNED_PERMUTATION_FRAMES,
    DiagonalPauliForm,
    PauliForm,
    bell_diagonal,
    canonicalize,
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
    """A CSS (None outside the families without the numeric fallback) and
    its correlation vector tau in the family's template frame: rho's own if
    rho is PPT (`separable`, css is rho), the diagonal of the CSS's
    correlation tensor if the oracle ran (not `geometric`).  ree is
    S(rho || css).  The residuals are computed on the pair (rho, css):
    - bloch_gap: distance between their Bloch vectors, fact (i);
    - edge_gap: |lambda_min(css^Gamma)|;
    - recovery_gap: max-entry error of `revmap.recover(css, rho)`; NaN when
      rho is separable or css^Gamma has no kernel at `revmap.EDGE_TOL`.
    """

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


def _tau(tag: FamilyTag, t) -> np.ndarray:
    """The CSS's correlation vector for an entangled state of family `tag`
    whose correlation vector is t, both in the template frame.  The VP and
    Horodecki tau lie on the ray from v1, the Phi+ vertex, through t; for
    some Horodecki states with l1 < 1/3, v1 is not `nearest_vertex(t)`.
    Bell-diagonal tau is where the ray from the nearest vertex v through t
    meets the octahedron face v.q = 1, or v/3 when t is v."""
    if tag.kind is FamilyKind.GENERALIZED_VP:
        return np.array([0.0, 0.0, 1.0])
    if tag.kind is FamilyKind.GENERALIZED_HORODECKI:
        l1, l2, l3 = tag.lambdas
        q1 = 0.5 * (l1 + 2 * l2) * (l1 + 2 * l3)
        return np.array([q1, -q1, 2 * q1 - 1])
    v = geometry.nearest_vertex(t).coords
    if np.linalg.norm(t - v) < 1e-12:
        return v / 3.0  # vertex limit of the ray construction
    return v + 2.0 / (3.0 - float(v @ t)) * (t - v)


def _solve(rho, p_rho: PauliForm, tag: FamilyTag, t, a, b) -> CssResult:
    """The CSS of rho, whose Pauli form is p_rho, with its residuals.  a, b
    take rho to the template frame of `tag` (r -> a r, s -> b s,
    g -> a g b^T), where its correlation vector is t.  A PPT rho is its own
    CSS; else the CSS keeps rho's Bloch vectors and has correlation tensor
    a^T diag(_tau(tag, t)) b, or outside the families comes from the oracle."""
    separable = is_ppt(rho)
    if separable:
        css, tau = from_pauli(p_rho), t
    elif tag.kind is FamilyKind.OTHER:
        rep = ree_numeric(rho)
        if not rep.converged:
            raise NotConverged(rep.gap)
        css, tau = rep.css_numeric, to_pauli(rep.css_numeric).g.diagonal()
    else:
        tau = _tau(tag, t)
        css = from_pauli(PauliForm(p_rho.r, p_rho.s, a.T @ np.diag(tau) @ b))
    p_css = to_pauli(css)
    return CssResult(
        css=css, tau=np.asarray(tau, float), family=tag,
        ree=0.0 if separable else relative_entropy(rho, css),
        residuals={"bloch_gap": float(max(np.linalg.norm(p_css.r - p_rho.r),
                                          np.linalg.norm(p_css.s - p_rho.s))),
                   "edge_gap": abs(min_pt_eigenvalue(css)),
                   "recovery_gap": float("nan") if separable else _recovery_gap(rho, css)},
        separable=separable, geometric=separable or tag.kind is not FamilyKind.OTHER)


def _recovery_gap(rho, css) -> float:
    """Max-entry error of rebuilding rho from its CSS via the reverse map."""
    try:
        return float(np.max(np.abs(revmap.recover(css, rho) - rho)))
    except (ReegeomError, np.linalg.LinAlgError):
        return float("nan")


def _template(rho, tag: FamilyTag) -> CssResult:
    """`_solve` on a state in its template frame."""
    p_rho = to_pauli(rho)
    return _solve(rho, p_rho, tag, p_rho.g.diagonal(), np.eye(3), np.eye(3))


def css_bell_diagonal(t) -> CssResult:
    """Closest separable state of the Bell-diagonal state with correlation
    vector t: the crossing of the ray from the nearest tetrahedron vertex
    through t with the nearest octahedron face."""
    return _template(bell_diagonal(t), FamilyTag(FamilyKind.BELL_DIAGONAL))


def css_vp(lam) -> CssResult:
    """Theorem construction for generalized Vedral-Plenio weights."""
    return _template(_vp_state(lam), FamilyTag(FamilyKind.GENERALIZED_VP, tuple(lam)))


def css_horodecki(lam) -> CssResult:
    """Theorem construction for generalized Horodecki weights."""
    return _template(_horodecki_state(lam),
                     FamilyTag(FamilyKind.GENERALIZED_HORODECKI, tuple(lam)))


def css_auto(rho: np.ndarray, numeric_fallback: bool = True) -> CssResult:
    """Classify rho in its canonical frame and `_solve` it from its own Pauli
    form and the rotations that take it to its family's template frame.
    Outside the families the oracle supplies the CSS, and raises NotConverged
    when its bracket does not close; with numeric_fallback False, such a
    state comes back as OTHER with css None."""
    validate_density_matrix(rho)
    p_rho = to_pauli(rho)
    dpf, r_a, r_b = canonicalize(p_rho)
    tag, pa, pb = _match_templates(dpf)
    if tag.kind is FamilyKind.OTHER and not numeric_fallback:
        return CssResult(css=None, tau=None, family=tag, ree=float("nan"),
                         geometric=False)
    # t = diag(pa diag(q) pb^T), exact for signed permutations
    return _solve(rho, p_rho, tag, (pa * pb) @ dpf.q, pa @ r_a, pb @ r_b)
