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

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import geometry, revmap
from .errors import NotConverged, NotEdgeState
from .qstate import (
    BELL_STATES,
    DiagonalPauliForm,
    PauliForm,
    _checked_spectra,
    _ppt,
    _pt_spectra,
    bell_diagonal,
    canonicalize,
    from_pauli,
    to_pauli,
    validate_density_matrix,
)
from .ree import _relative_entropy, ree_numeric

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
    """A CSS and its correlation vector tau in the family's template frame:
    rho's own if rho is PPT (`separable`, css is rho), the diagonal of the
    CSS's correlation tensor in rho's canonical frame if the oracle ran (not
    `geometric`).  ree is S(rho || css).  The residuals are computed on the
    pair (rho, css):
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

    @property
    def geometric(self) -> bool:
        """The CSS came without the oracle: rho is PPT or in a family."""
        return self.separable or self.family.kind is not FamilyKind.OTHER


def _vp_state(lam) -> np.ndarray:
    l1, l2, l3 = lam
    return l1 * BELL_STATES[0] + np.diag([l2, 0, 0, l3]).astype(complex)


def _horodecki_state(lam) -> np.ndarray:
    l1, l2, l3 = lam
    return l1 * BELL_STATES[0] + np.diag([0, l2, l3, 0]).astype(complex)


def _match_templates(dpf: DiagonalPauliForm):
    """Family tag plus the frame reaching the template, matched within CLASSIFY_TOL.

    Returns (tag, P_A, P_B) with P_A, P_B in SO(3); identity frames for
    Bell-diagonal and Other.  The template's z axis is the canonical axis k
    carrying the most Bloch weight, and its x and y are the other two in
    index order, so t_x = q_x >= 0.  Each side is turned by pi about x where
    needed so that r_z >= 0, and s_z >= 0 for VP or s_z <= 0 for Horodecki:
    then w = l2 - l3 >= 0, and lambdas depend on rho alone.  A state that
    matches both templates is taken as VP.
    """
    eye, tol = np.eye(3), CLASSIFY_TOL
    # sqrt(x . x) is np.linalg.norm(x), bit for bit, without its call overhead
    if math.sqrt(dpf.r.dot(dpf.r)) <= tol and math.sqrt(dpf.s.dot(dpf.s)) <= tol:
        return FamilyTag(FamilyKind.BELL_DIAGONAL), eye, eye

    r, s, q = dpf.r.tolist(), dpf.s.tolist(), dpf.q.tolist()  # floats: the same arithmetic
    k = max(range(3), key=lambda n: abs(r[n]) + abs(s[n]))  # the first largest, as np.argmax
    i, j = (n for n in range(3) if n != k)
    # w sets l2, l3 = (1 - l1 +- w) / 2; the smaller must be >= -tol
    l1, w = q[i], (abs(r[k]) + abs(s[k])) / 2
    axial = (max(abs(r[i]), abs(r[j]), abs(s[i]), abs(s[j]), abs(abs(r[k]) - abs(s[k]))) <= tol
             and l1 >= -tol and (1 - l1 - w) / 2 >= -tol)
    sign_a, sign_s = (1.0 if r[k] >= 0 else -1.0), (1.0 if s[k] >= 0 else -1.0)
    for kind, sign_b, t_z in ((FamilyKind.GENERALIZED_VP, sign_s, 1.0),
                              (FamilyKind.GENERALIZED_HORODECKI, -sign_s, 2 * l1 - 1)):
        c = sign_a * sign_b  # t_y = c q_j and t_z = c q_k in the template frame
        if axial and abs(l1 + c * q[j]) <= tol and abs(c * q[k] - t_z) <= tol:
            p = eye[[i, j, k]]
            sign_x = -1.0 if k == 1 else 1.0  # (0, 2, 1) is the one odd order: det +1
            pa, pb = p * [[[sign_x], [sign_a], [sign_a]], [[sign_x], [sign_b], [sign_b]]]
            lam = _clip_weights(l1, (1 - l1 + w) / 2, (1 - l1 - w) / 2)
            return FamilyTag(kind, lam), pa, pb
    return FamilyTag(FamilyKind.OTHER), eye, eye


def _clip_weights(l1, l2, l3):
    lam = np.maximum([l1, l2, l3], 0.0)
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


def _solve(rho, p_rho: PauliForm, tag: FamilyTag, t, a, b, w, v) -> CssResult:
    """The CSS of rho, with Pauli form p_rho and spectra w, v of (rho, rho^Gamma),
    and its residuals.  a, b take rho to the template frame of `tag` (r -> a r,
    s -> b s, g -> a g b^T), where its correlation vector is t.  A PPT rho is
    its own CSS; else the CSS keeps rho's Bloch vectors and has correlation
    tensor a^T diag(_tau(tag, t)) b, or outside the families is the oracle's."""
    separable = _ppt(w)
    if separable:
        css, tau = from_pauli(p_rho), t
    elif tag.kind is FamilyKind.OTHER:
        rep = ree_numeric(rho)
        if not rep.converged:
            raise NotConverged(rep.gap)
        css = rep.css_numeric
        tau = np.diag(a @ to_pauli(css).g @ b.T)
    else:
        tau = _tau(tag, t)
        css = from_pauli(PauliForm(p_rho.r, p_rho.s, a.T @ np.diag(tau) @ b))
    p_css, (ws, vs) = to_pauli(css), _pt_spectra(css)
    return CssResult(
        css=css, tau=np.asarray(tau, float), family=tag,
        ree=0.0 if separable else _relative_entropy(rho, w[0], v[0], ws[0], vs[0]),
        residuals={"bloch_gap": max(math.sqrt(d.dot(d)) for d in (p_css.r - p_rho.r,
                                                                 p_css.s - p_rho.s)),
                   "edge_gap": abs(float(ws[1, 0])),
                   "recovery_gap": math.nan if separable else _recovery_gap(rho, css, ws, vs)},
        separable=separable)


def _recovery_gap(rho, css, w, v) -> float:
    """Max-entry error of rebuilding rho from its CSS, of spectra w, v, via the reverse map."""
    try:
        return float(np.max(np.abs(revmap._recover(css, rho, w, v) - rho)))
    except NotEdgeState:
        return float("nan")


def _template(rho, tag: FamilyTag) -> CssResult:
    """`_solve` on a state in its template frame."""
    p_rho = to_pauli(rho)
    return _solve(rho, p_rho, tag, p_rho.g.diagonal(), np.eye(3), np.eye(3),
                  *_pt_spectra(rho))


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


def css_auto(rho: np.ndarray) -> CssResult:
    """Classify rho in its canonical frame and `_solve` it from its own Pauli
    form and the rotations that take it to its family's template frame.
    Outside the families the oracle supplies the CSS, and raises NotConverged
    when its bracket does not close."""
    w, v = _checked_spectra(rho)
    p_rho = to_pauli(rho)
    dpf, r_a, r_b = canonicalize(p_rho)
    tag, pa, pb = _match_templates(dpf)
    # t = diag(pa diag(q) pb^T), exact for signed permutations
    return _solve(rho, p_rho, tag, (pa * pb) @ dpf.q, pa @ r_a, pb @ r_b, w, v)
