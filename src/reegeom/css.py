"""Constructive closest-separable-state computation.

Three solvable families admit a geometric construction: Bell-diagonal
states, one-Bell-state mixtures with non-orthogonal separable parts
(generalized Vedral-Plenio), and with orthogonal separable parts
(generalized Horodecki).  `classify` detects the family after reducing an
input state to its diagonal-correlation canonical frame.  The CSS keeps the
input's Bloch vectors; only its correlation vector tau, in the family's
template frame, is computed and rotated back.  The VP construction also
solves every maximally correlated state a|00><00| + b|11><11| +
z(|00><11| + h.c.), pure states included, though those with z > min(a, b)
are outside the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import geometry, revmap
from .errors import NotConverged
from .qstate import (
    BELL_STATES,
    DiagonalPauliForm,
    PauliForm,
    _canonicalize,
    _coordinates,
    _density,
    _from_coordinates,
    _ppt,
    _pt_spectra,
    bell_diagonal,
    to_pauli,
)
from .ree import SUPPORT_TOL, _fit, _relative_entropy, ree_numeric

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


# the route of each family's closed form; an Other state's route,
# "maximally-correlated" or "oracle", is named where it is matched, and
# "oracle" turns "reverse-map" where the reverse map's Newton solve is accepted
_FAMILY_ROUTES = {FamilyKind.BELL_DIAGONAL: "bell-diagonal", FamilyKind.GENERALIZED_VP: "vp",
                  FamilyKind.GENERALIZED_HORODECKI: "horodecki"}


@dataclass
class CssResult:
    """A CSS and its correlation vector tau in the template frame of its
    route, rho here being the input's Hermitian part, which every step
    reads: rho's own if rho is PPT (`separable`, css is rho), and the
    diagonal of the CSS's correlation tensor in rho's canonical frame on
    routes "reverse-map" and "oracle".  ree is S(rho || css).  The residuals
    are computed on the pair (rho, css):
    - bloch_gap: distance between their Bloch vectors, fact (i);
    - edge_gap: |lambda_min(css^Gamma)|;
    - recovery_gap: max-entry error of `revmap.recover(css, rho)`; NaN when
      rho is separable or css^Gamma has no kernel at `ree.EDGE_TOL`.
    route names how `_solve` built the CSS: "ppt" (rho itself),
    "bell-diagonal", "vp" or "horodecki" (the family's closed form),
    "maximally-correlated" (the VP closed form on a state of family Other,
    so not `geometric`), "reverse-map" (the Newton solve of the reverse map
    rho = css - x G(css), `revmap._edge_css`, on a state of family Other:
    a full-rank CSS with lambda_min >= `revmap.RANK_FLOOR`, at the solve's
    rounding floor, whose optimality certificate is at least
    `revmap.CERTIFICATE_TOL`) or "oracle" (`ree_numeric`, where that solve
    is not accepted); None on a result built by hand.
    """

    css: np.ndarray
    tau: np.ndarray
    family: FamilyTag
    ree: float
    residuals: dict = field(default_factory=dict)
    separable: bool = False
    route: str | None = None

    @property
    def geometric(self) -> bool:
        """rho is PPT or in a family; see `route` for how the CSS was built."""
        return self.separable or self.family.kind is not FamilyKind.OTHER


def _vp_state(lam) -> np.ndarray:
    l1, l2, l3 = lam
    return l1 * BELL_STATES[0] + np.diag([l2, 0, 0, l3]).astype(complex)


def _horodecki_state(lam) -> np.ndarray:
    l1, l2, l3 = lam
    return l1 * BELL_STATES[0] + np.diag([0, l2, l3, 0]).astype(complex)


def _match_templates(dpf: DiagonalPauliForm):
    """Family tag, route and the frame reaching the template, matched within
    CLASSIFY_TOL.

    Returns (tag, route, P_A, P_B) with P_A, P_B in SO(3); identity frames
    for Bell-diagonal and Other.  The template's z axis is the canonical axis
    k carrying the most Bloch weight, and its x and y are the other two in
    index order, so t_x = q_x >= 0.  Each side is turned by pi about x where
    needed so that r_z >= 0, and s_z >= 0 for VP or s_z <= 0 for Horodecki:
    then w = l2 - l3 >= 0, and lambdas depend on rho alone.  A match also
    needs rho's weight on the kernel of the template's CSS, read off
    t = (q_i, c q_j, c q_k), to be at most SUPPORT_TOL: (1 - t_z)/2 on |01>,
    |10> for VP, (1 - t_x + t_y + t_z)/4 on Phi- for Horodecki.  A state
    nudged off by more would leak onto that kernel, an infinite REE, and
    takes route "oracle" as family Other.  A state that matches both
    templates is VP.  l3 >= -CLASSIFY_TOL then names the family; a VP match
    below it is rho = l1 Phi+ + diag(l2, 0, 0, l3), maximally correlated,
    with route "maximally-correlated", the VP frames, family Other and no
    lambdas."""
    tol = CLASSIFY_TOL
    if np.linalg.norm(dpf.r) <= tol and np.linalg.norm(dpf.s) <= tol:
        bell, eye = FamilyTag(FamilyKind.BELL_DIAGONAL), np.eye(3)
        return bell, _FAMILY_ROUTES[bell.kind], eye, eye

    r, s, q = dpf.r.tolist(), dpf.s.tolist(), dpf.q.tolist()  # floats: same bits, 2 us faster
    k = max(range(3), key=lambda n: abs(r[n]) + abs(s[n]))  # the first largest, as np.argmax
    i, j = (n for n in range(3) if n != k)
    l1, w = q[i], (abs(r[k]) + abs(s[k])) / 2
    l2, l3 = (1 - l1 + w) / 2, (1 - l1 - w) / 2
    axial = (max(abs(r[i]), abs(r[j]), abs(s[i]), abs(s[j]), abs(abs(r[k]) - abs(s[k]))) <= tol
             and l1 >= -tol)
    sign_a, sign_s = (1.0 if r[k] >= 0 else -1.0), (1.0 if s[k] >= 0 else -1.0)
    for kind, sign_b, t_z in ((FamilyKind.GENERALIZED_VP, sign_s, 1.0),
                              (FamilyKind.GENERALIZED_HORODECKI, -sign_s, 2 * l1 - 1)):
        c = sign_a * sign_b
        t = (l1, c * q[j], c * q[k])  # rho's correlation vector in the template frame
        vp = kind is FamilyKind.GENERALIZED_VP
        kernel = (1 - t[2]) / 2 if vp else (1 - t[0] + t[1] + t[2]) / 4
        if (axial and abs(t[0] + t[1]) <= tol and abs(t[2] - t_z) <= tol
                and kernel <= SUPPORT_TOL):
            # rows e_i, e_j, e_k, signed; (0, 2, 1) is the one odd order: det +1
            sign_x = -1.0 if k == 1 else 1.0
            pa, pb = np.zeros((3, 3)), np.zeros((3, 3))
            pa[0, i], pa[1, j], pa[2, k] = sign_x, sign_a, sign_a
            pb[0, i], pb[1, j], pb[2, k] = sign_x, sign_b, sign_b
            if l3 >= -tol:
                # in floats, bit for bit as np.maximum(lam, 0.0) / its sum: max(0.0, x)
                # maps -0.0 to +0.0 as np.maximum does, and numpy sums three terms in order
                lam = [max(0.0, l1), max(0.0, l2), max(0.0, l3)]
                total = (lam[0] + lam[1]) + lam[2]
                return (FamilyTag(kind, tuple(x / total for x in lam)), _FAMILY_ROUTES[kind],
                        pa, pb)
            if vp:
                return FamilyTag(FamilyKind.OTHER), "maximally-correlated", pa, pb
    eye = np.eye(3)
    return FamilyTag(FamilyKind.OTHER), "oracle", eye, eye


def classify(rho: np.ndarray) -> FamilyTag:
    """Family of rho, read off the Pauli form of its Hermitian part in the
    canonical frame."""
    dpf, _, _ = _canonicalize(to_pauli(_density(rho)[0]))
    return _match_templates(dpf)[0]


# the VP and maximally correlated tau, read-only: `_solve` stores a copy
_VP_TAU = np.array([0.0, 0.0, 1.0])
_VP_TAU.flags.writeable = False


def _tau(route: str, lambdas, t) -> np.ndarray:
    """The CSS's correlation vector for an entangled state solved in closed
    form by `route`, whose correlation vector is t, both in the template
    frame; lambdas are the Horodecki weights.  The VP tau, which the
    maximally correlated route shares, and the Horodecki tau lie on the ray
    from v1, the Phi+ vertex, through t; for some Horodecki states with
    l1 < 1/3, v1 is not `nearest_vertex(t)`.  Bell-diagonal tau is where the
    ray from the nearest vertex v, the one of t's largest Bell weight,
    through t meets the octahedron face v.q = 1, or v/3 when t is v."""
    if route in ("vp", "maximally-correlated"):
        return _VP_TAU
    if route == "horodecki":
        l1, l2, l3 = lambdas
        q1 = 0.5 * (l1 + 2 * l2) * (l1 + 2 * l3)
        return np.array([q1, -q1, 2 * q1 - 1])
    v = geometry.nearest_vertex(t).coords
    if np.linalg.norm(t - v) < 1e-12:
        return v / 3.0  # vertex limit of the ray construction
    return v + 2.0 / (3.0 - float(v @ t)) * (t - v)


def _solve(rho, p_rho: PauliForm, tag: FamilyTag, route: str, t, a, b, w, v) -> CssResult:
    """The CSS of rho, with Pauli form p_rho and spectra w, v of (rho, rho^Gamma),
    and its residuals.  a, b take rho to the template frame of `route`
    (r -> a r, s -> b s, g -> a g b^T), where its correlation vector is t.  A
    PPT rho is its own CSS, with route "ppt"; else the CSS keeps rho's Bloch
    vectors and has correlation tensor a^T diag(_tau(route, ...)) b, or on
    route "oracle" is the reverse map's Newton solve, route "reverse-map",
    where `revmap._edge_css` accepts it, and else the oracle's.  recovery_gap
    reads the CSS's one `ree._fit`, on route "reverse-map" the solve's."""
    separable, spectra, fit = _ppt(w), None, None
    if separable:
        css, tau, route = _from_coordinates(_coordinates(p_rho.r, p_rho.s, p_rho.g)), t, "ppt"
    elif route == "oracle":
        edge = revmap._edge_css(rho, w, v)
        if edge is not None:
            (css, spectra, fit), route = edge, "reverse-map"
        else:
            rep = ree_numeric(rho)
            if not rep.converged:
                raise NotConverged(rep.gap)
            css = rep.css_numeric
    else:
        tau = _tau(route, tag.lambdas, t)
        css = _from_coordinates(_coordinates(p_rho.r, p_rho.s, (a.T * tau) @ b))
    p_css, (ws, vs) = to_pauli(css), _pt_spectra(css) if spectra is None else spectra
    if route in ("reverse-map", "oracle"):
        tau = np.diag(a @ p_css.g @ b.T)
    gap = math.nan
    if not separable:
        fit = _fit(css, rho, ws, vs) if fit is None else fit
        if len(fit[2]):  # css^Gamma has a kernel at ree.EDGE_TOL
            gap = float(np.max(np.abs(revmap._rebuild(css, vs[0], fit) - rho)))
    return CssResult(
        css=css, tau=np.array(tau, float), family=tag,  # owned: tau may be a read-only view
        ree=0.0 if separable else _relative_entropy(rho, w[0], ws[0], vs[0]),
        residuals={"bloch_gap": max(math.sqrt(d.dot(d)) for d in (p_css.r - p_rho.r,
                                                                 p_css.s - p_rho.s)),
                   "edge_gap": abs(float(ws[1, 0])), "recovery_gap": gap},
        separable=separable, route=route)


def _template(rho, tag: FamilyTag) -> CssResult:
    """`_solve` on the Hermitian part of a state in the template frame of its
    family's route.  Raises InvalidState where rho is not a state, and
    ValueError where a weight in tag.lambdas is negative."""
    h, (w, v) = _density(rho)
    if tag.lambdas is not None and min(tag.lambdas) < 0:
        raise ValueError(f"weights must be nonnegative, not {tag.lambdas}")
    p_rho = to_pauli(h)
    return _solve(h, p_rho, tag, _FAMILY_ROUTES[tag.kind], p_rho.g.diagonal(), np.eye(3),
                  np.eye(3), w, v)


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
    form and the rotations that take it to its route's template frame.  Off
    the closed-form routes the Newton solve of the reverse map supplies the
    CSS, or where it is not accepted the oracle, which raises NotConverged
    when its bracket does not close.  Every step reads rho's Hermitian part
    H, so rho and H take one route to the same bits."""
    h, (w, v) = _density(rho)
    p_rho = to_pauli(h)
    dpf, r_a, r_b = _canonicalize(p_rho)
    tag, route, pa, pb = _match_templates(dpf)
    # t = diag(pa diag(q) pb^T), exact for signed permutations
    return _solve(h, p_rho, tag, route, (pa * pb) @ dpf.q, pa @ r_a, pb @ r_b, w, v)
