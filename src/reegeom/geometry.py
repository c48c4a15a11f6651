"""Correlation-vector-space geometry.

The Bell-diagonal tetrahedron and separable octahedron, their deformed
counterparts at fixed z-parallel Bloch vectors, nearest-vertex selection,
ray/surface crossings, and boundary-surface sampling for export.  Both
deformed bodies come from the two `spectra` kernels: `surface_mesh` samples
the roots of `spectra.boundary_roots`, and `line_surface_crossing` finds
where the line from a correlation vector to its nearest tetrahedron vertex
meets the zero set of the partial transpose's `spectra.branch_min`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from . import spectra
from .errors import NoCrossing, OutsideTetrahedron
from .qstate import PSD_TOL

TETRA_TOL = 1e-8     # slack of the tetrahedron face inequalities n.t <= 1
RAY_W_MAX = 10.0     # ray parameters scanned for crossings: [0, RAY_W_MAX]
RAY_SCAN_STEP = 1e-3
RAY_W_TOL = 1e-12    # bisection and golden-section width in w

TETRA_VERTICES = {
    "v1": np.array([1.0, -1.0, 1.0]),
    "v2": np.array([-1.0, 1.0, 1.0]),
    "v3": np.array([1.0, 1.0, -1.0]),
    "v4": np.array([-1.0, -1.0, -1.0]),
}

OCTA_VERTICES = {
    "o1+": np.array([1.0, 0.0, 0.0]), "o1-": np.array([-1.0, 0.0, 0.0]),
    "o2+": np.array([0.0, 1.0, 0.0]), "o2-": np.array([0.0, -1.0, 0.0]),
    "o3+": np.array([0.0, 0.0, 1.0]), "o3-": np.array([0.0, 0.0, -1.0]),
}

# outward face normals n of the tetrahedron; inside means n.t <= 1 for all
TETRA_FACE_NORMALS = [
    np.array([1.0, -1.0, -1.0]),   # (v1, v3, v4)
    np.array([1.0, 1.0, 1.0]),     # (v1, v2, v3)
    np.array([-1.0, -1.0, 1.0]),   # (v1, v2, v4)
    np.array([-1.0, 1.0, -1.0]),   # (v2, v3, v4)
]


@dataclass(frozen=True)
class Vertex:
    label: str
    coords: np.ndarray


@dataclass(frozen=True)
class CrossingPoint:
    coords: np.ndarray
    line_parameter: float
    sheet: str


@dataclass
class SurfaceMesh:
    """Sampled boundary surface, one row per (q1, q2, q3) point plus sheet tag."""

    body: str   # "T" or "L"
    r: float
    s: float
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    sheets: list = field(default_factory=list)


def in_tetrahedron(t) -> bool:
    t = np.asarray(t, dtype=float)
    return all(float(n @ t) <= 1.0 + TETRA_TOL for n in TETRA_FACE_NORMALS)


def nearest_vertex(t) -> Vertex:
    """Closest tetrahedron vertex to t; ties broken by label order."""
    t = np.asarray(t, dtype=float)
    if not in_tetrahedron(t):
        raise OutsideTetrahedron(f"point {t} lies outside the tetrahedron")
    best = min(TETRA_VERTICES.items(), key=lambda kv: (np.linalg.norm(t - kv[1]), kv[0]))
    return Vertex(best[0], best[1])


def surface_mesh(body: str, r: float, s: float, n: int,
                 psd_tol: float = PSD_TOL) -> SurfaceMesh:
    """Sample the boundary surface on an n x n grid over (q1, q2) in [-1, 1]^2.

    Roots whose full state is not PSD within psd_tol are dropped (they solve
    the sheet equation outside the physical body).  Row-major grid order.
    """
    if n < 2:
        raise ValueError("grid size must be at least 2")
    axis = np.linspace(-1.0, 1.0, n)
    q1, q2 = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    mu, nu, inside = spectra.boundary_roots(r, s, q1, q2 if body == "T" else -q2)
    # each grid point inside the footprint gives its mu root, then its nu root
    q1, q2 = np.repeat(q1[inside], 2), np.repeat(q2[inside], 2)
    q3 = np.column_stack([mu[inside], nu[inside]]).ravel()
    keep = spectra.branch_min(r, s, q1, q2, q3) >= -psd_tol
    # an object array of the two literals: the tags share two str objects
    sheets = np.array(["mu", "nu"] * (len(q3) // 2), dtype=object)[keep].tolist()
    return SurfaceMesh(body, r, s, np.column_stack([q1, q2, q3])[keep], sheets)


def _golden_max(f, a, b, tol):
    """Golden-section maximizer; robust at the kinks of the branch minimum."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def line_surface_crossing(t, v: Vertex, r: float, s: float) -> list[CrossingPoint]:
    """Crossings of the ray p(w) = v + w (t - v), w >= 0, with the deformed
    separable boundary at fixed (r, s).

    Bracketing on a uniform w-grid followed by bisection on the minimum
    partial-transpose branch; results sorted by distance from t ascending.
    """
    t = np.asarray(t, dtype=float)
    d = t - v.coords
    if np.linalg.norm(d) < 1e-14:
        raise ValueError("line start coincides with the vertex")

    def f(w):  # the smallest partial-transpose branch (q2 -> -q2) at p(w)
        p = v.coords + w * d
        return spectra.branch_min(r, s, p[0], -p[1], p[2])

    ws = np.arange(0.0, RAY_W_MAX + RAY_SCAN_STEP, RAY_SCAN_STEP)
    p = v.coords + ws[:, None] * d
    vals = spectra.branch_min(r, s, p[:, 0], -p[:, 1], p[:, 2])  # f on the grid
    # exact zeros count once per run of zeros; else bracket sign changes
    exact = (vals[:-1] == 0.0) & np.concatenate(([True], vals[:-2] != 0.0))
    roots = ws[:-1][exact].tolist()
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        a, b, fa = ws[i], ws[i + 1], vals[i]
        while b - a > RAY_W_TOL:
            m = 0.5 * (a + b)
            fm = f(m)
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))

    # tangential touches: the branch minimum can graze zero from below
    # (characteristic of the one-Bell-state-plus-diagonal families), leaving
    # no sign change; refine interior local maxima that come close enough
    mid = vals[1:-1]
    for i in np.flatnonzero((mid >= vals[:-2]) & (mid >= vals[2:]) & (mid < 0.0)) + 1:
        w_star, f_star = _golden_max(f, ws[i - 1], ws[i + 1], RAY_W_TOL)
        if f_star >= -PSD_TOL:
            roots.append(w_star)

    crossings = []
    for root in sorted(roots):
        if any(abs(root - c.line_parameter) < 1e-9 for c in crossings):
            continue
        p = v.coords + root * d
        q1, q2, q3 = p
        sheet = "mu" if abs((1 - q3) - np.hypot(r - s, q1 - q2)) <= \
            abs((1 + q3) - np.hypot(r + s, q1 + q2)) else "nu"
        crossings.append(CrossingPoint(p, float(root), sheet))
    if not crossings:
        raise NoCrossing(f"ray from {v.label} through {t} misses the separable boundary")
    crossings.sort(key=lambda c: np.linalg.norm(c.coords - t))
    return crossings
