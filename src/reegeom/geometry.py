"""Correlation-vector-space geometry.

The Bell-diagonal tetrahedron and separable octahedron, their deformed
counterparts at fixed z-parallel Bloch vectors, nearest-vertex selection,
ray/surface crossings, and boundary-surface sampling for export.  Both
deformed bodies come from the two `spectra` kernels: `surface_mesh` samples
the roots of `spectra.boundary_roots`, and `line_surface_crossing` solves, one
quadratic per sheet, where the line from a correlation vector to its nearest
tetrahedron vertex meets the zero set of the partial transpose's `branch_min`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from . import spectra
from .errors import NoCrossing, OutsideTetrahedron
from .qstate import PSD_TOL

TETRA_TOL = 1e-8     # slack of the tetrahedron face inequalities n.t <= 1

TETRA_VERTICES = {
    "v1": np.array([1.0, -1.0, 1.0]),
    "v2": np.array([-1.0, 1.0, 1.0]),
    "v3": np.array([1.0, 1.0, -1.0]),
    "v4": np.array([-1.0, -1.0, -1.0]),
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


def line_surface_crossing(t, v: Vertex, r: float, s: float) -> list[CrossingPoint]:
    """Crossings of the ray p(w) = v + w (t - v), w >= 0, with the deformed
    separable boundary at fixed (r, s), sorted by distance from t ascending.

    Each sheet (c - |(e, f)|) / 4 has c, f linear in w.  The crossings are the
    roots of c^2 = f^2 + e^2 where the branch minimum is zero to PSD_TOL, which
    no c < 0 root is; at most two, as that minimum is concave along the line.
    """
    t = np.asarray(t, dtype=float)
    d = t - v.coords
    if np.linalg.norm(d) < 1e-14:
        raise ValueError("line start coincides with the vertex")

    sign = np.array([-1.0, 1.0])  # mu-: c = 1 - q3, f = q1 - q2, e = r - s; nu-: +
    (x1, x2, x3), (d1, d2, d3) = v.coords, d
    c0, c1, f0, f1 = 1.0 + sign * x3, sign * d3, x1 + sign * x2, d1 + sign * d2
    a, b, k = c1 * c1 - f1 * f1, c0 * c1 - f0 * f1, c0 * c0 - f0 * f0 - (r + sign * s) ** 2
    # stable roots q/a and k/q of a w^2 + 2 b w + k; a touch whose discriminant
    # rounds below zero becomes its double root
    q = -(b + np.copysign(np.sqrt(np.maximum(b * b - a * k, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.concatenate([q / a, k / q])
    roots = roots[(roots >= 0.0) & (roots < np.inf)]
    p = v.coords + roots[:, None] * d
    roots = roots[np.abs(spectra.branch_min(r, s, p[:, 0], -p[:, 1], p[:, 2])) <= PSD_TOL]

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
