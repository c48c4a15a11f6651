"""Correlation-vector-space geometry.

The Bell-diagonal tetrahedron and separable octahedron, their deformed
counterparts at fixed z-parallel Bloch vectors, nearest-vertex selection,
ray/surface crossings, and boundary-surface sampling for export.  Both
deformed bodies come from the `spectra` kernels.  `surface_mesh` takes the
sheet moduli once per grid point, solves them for q3 with
`spectra.boundary_roots` and keeps the roots whose state passes `sheet_min`:
on T the grid moduli are the state's own, on L it takes the state's moduli
once per footprint point.  The footprint's roots are filtered per sheet on
contiguous 1-D arrays, and the mesh is filled column by column.
`line_surface_crossing` solves, one quadratic per sheet, where the line from
a correlation vector to its nearest tetrahedron vertex meets the zero set of
the partial transpose's `branch_min`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from . import spectra
from .errors import NoCrossing, OutsideTetrahedron
from .qstate import PSD_TOL, _require_finite

TETRA_TOL = 1e-8     # slack of the tetrahedron face inequalities n.t <= 1

TETRA_VERTICES = {
    "v1": np.array([1.0, -1.0, 1.0]),
    "v2": np.array([-1.0, 1.0, 1.0]),
    "v3": np.array([1.0, 1.0, -1.0]),
    "v4": np.array([-1.0, -1.0, -1.0]),
}

# outward face normals n of the tetrahedron, -v for the face opposite each
# vertex v; inside means n.t <= 1 for all
TETRA_FACE_NORMALS = [-v for v in TETRA_VERTICES.values()]

# the sheet tags of mesh rows, indexed by root parity: `SurfaceMesh.sheets`
# is a fixed-width str array of these
SHEET_TAGS = np.array(["mu", "nu"])

# the sign that tells the two sheets apart in `line_surface_crossing`, read-only
_SHEET_SIGN = np.array([-1.0, 1.0])
_SHEET_SIGN.flags.writeable = False


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

    points: np.ndarray
    sheets: np.ndarray   # "mu" or "nu" per row, a str array


def in_tetrahedron(t) -> bool:
    t = np.asarray(t, dtype=float)
    return all(float(n @ t) <= 1.0 + TETRA_TOL for n in TETRA_FACE_NORMALS)


def nearest_vertex(t) -> Vertex:
    """Closest tetrahedron vertex to t; ties broken by label order.  A
    non-finite t raises ValueError."""
    t = np.asarray(t, dtype=float)
    _require_finite(t=t)
    if not in_tetrahedron(t):
        raise OutsideTetrahedron(f"point {t} lies outside the tetrahedron")
    best = min(TETRA_VERTICES.items(), key=lambda kv: (np.linalg.norm(t - kv[1]), kv[0]))
    return Vertex(best[0], best[1])


def surface_mesh(body: str, r: float, s: float, n: int,
                 psd_tol: float = PSD_TOL) -> SurfaceMesh:
    """Sample the boundary surface on an n x n grid over (q1, q2) in [-1, 1]^2.

    Roots whose full state is not PSD within psd_tol are dropped (they solve
    the sheet equation outside the physical body).  Row-major grid order.
    body "T" is the state body, "L" the separable one; others raise
    ValueError, as do a non-integer n or n < 2, a non-finite r or s and a NaN
    or negative psd_tol.
    """
    if body not in ("T", "L"):
        raise ValueError(f"body must be 'T' or 'L', not {body!r}")
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"grid size must be an integer, not {n!r}")
    if n < 2:
        raise ValueError("grid size must be at least 2")
    _require_finite(r=r, s=s)
    if not psd_tol >= 0.0:
        raise ValueError(f"psd_tol must be nonnegative, not {psd_tol!r}")
    axis = np.linspace(-1.0, 1.0, n)
    # the grid by broadcasting, row q1 and column q2, flattened row-major
    m1, m2 = (m.ravel() for m in spectra.moduli(
        r, s, axis[:, None], (axis if body == "T" else -axis)[None, :]))
    mu, nu, inside = spectra.boundary_roots(m1, m2)
    foot = np.flatnonzero(inside)
    q1, q2 = np.repeat(axis, n)[foot], np.tile(axis, n)[foot]
    # the PSD check is on the state itself: its moduli are the grid's on T,
    # and on L, whose grid is the partial transpose's, are taken at +q2
    if body == "T":
        m1, m2 = m1[foot], m2[foot]
    else:
        m1, m2 = spectra.moduli(r, s, q1, q2)
    # filled one sheet (column) at a time from contiguous arrays: flat index
    # 2i is footprint point i's mu root, 2i + 1 its nu root
    q3, keep = np.empty((len(foot), 2)), np.empty((len(foot), 2), dtype=bool)
    for j, roots in enumerate((mu[foot], nu[foot])):
        q3[:, j] = roots
        keep[:, j] = spectra.sheet_min(m1, m2, roots) >= -psd_tol
    idx = np.flatnonzero(keep)
    rows = idx >> 1
    points = np.empty((len(idx), 3))
    points[:, 0], points[:, 1], points[:, 2] = q1[rows], q2[rows], q3.ravel()[idx]
    return SurfaceMesh(points, SHEET_TAGS[idx & 1])


def line_surface_crossing(t, v: Vertex, r: float, s: float) -> list[CrossingPoint]:
    """Crossings of the ray p(w) = v + w (t - v), w >= 0, with the deformed
    separable boundary at fixed (r, s), sorted by distance from t ascending.

    Each sheet (c - |(e, f)|) / 4 has c, f linear in w.  The crossings are the
    roots of c^2 = f^2 + e^2 where the branch minimum is zero to PSD_TOL, which
    no c < 0 root is; at most two, as that minimum is concave along the line.
    A non-finite t, r or s raises ValueError.
    """
    t = np.asarray(t, dtype=float)
    _require_finite(t=t, r=r, s=s)
    d = t - v.coords
    if np.linalg.norm(d) < 1e-14:
        raise ValueError("line start coincides with the vertex")

    sign = _SHEET_SIGN  # mu-: c = 1 - q3, f = q1 - q2, e = r - s; nu-: +
    (x1, x2, x3), (d1, d2, d3) = v.coords, d
    c0, c1, f0, f1 = 1.0 + sign * x3, sign * d3, x1 + sign * x2, d1 + sign * d2
    a, b, k = c1 * c1 - f1 * f1, c0 * c1 - f0 * f1, c0 * c0 - f0 * f0 - (r + sign * s) ** 2
    # stable roots q/a and k/q of a w^2 + 2 b w + k; a touch whose discriminant
    # rounds below zero becomes its double root.  Roots 0, 2 lie on mu, 1, 3 on nu
    q = -(b + np.copysign(np.sqrt(np.maximum(b * b - a * k, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.concatenate([q / a, k / q])
    kept = np.flatnonzero((roots >= 0.0) & (roots < np.inf))
    p = v.coords + roots[kept, None] * d
    on = np.abs(spectra.branch_min(r, s, p[:, 0], -p[:, 1], p[:, 2])) <= PSD_TOL
    kept, p = kept[on], p[on]

    crossings = []
    # p - t = (w - 1) d: nearest to t first
    for j in np.argsort(np.abs(roots[kept] - 1.0), kind="stable"):
        w = float(roots[kept[j]])
        if all(abs(w - c.line_parameter) >= 1e-9 for c in crossings):
            crossings.append(CrossingPoint(p[j], w, str(SHEET_TAGS[kept[j] & 1])))
    if not crossings:
        raise NoCrossing(f"ray from {v.label} through {t} misses the separable boundary")
    return crossings
