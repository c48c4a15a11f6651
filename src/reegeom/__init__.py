"""Two-qubit entanglement geometry: closed-form closest separable states,
relative entropy of entanglement, and the reverse map from separable edge
states to their entangled families.

`import reegeom` loads none of the layer modules: each public name below,
and each layer module as an attribute, is imported on first access, so a
process pays only for the layers it uses."""

import importlib

__version__ = "0.1.0"

# Each layer module and the names the package exports from it.
_EXPORTS = {
    "css": ("CssResult", "FamilyKind", "FamilyTag", "classify", "css_auto",
            "css_bell_diagonal", "css_horodecki", "css_vp"),
    "errors": ("DegenerateZ", "InvalidState", "NoCrossing", "NotConverged", "NotEdgeState",
               "OutsideTetrahedron", "ParallelLines", "RankDeficient", "ReegeomError"),
    "geometry": ("TETRA_VERTICES", "CrossingPoint", "SurfaceMesh", "Vertex", "in_tetrahedron",
                 "line_surface_crossing", "nearest_vertex", "surface_mesh"),
    "qstate": ("DiagonalPauliForm", "PauliForm", "bell_diagonal", "canonicalize",
               "concurrence", "from_pauli", "is_ppt", "partial_transpose", "to_pauli",
               "validate_density_matrix"),
    "ree": ("OracleConfig", "ReeReport", "directional_optimality_check", "ree_numeric",
            "relative_entropy"),
    "revmap": ("SigmaZParams", "css_line_sweep", "family_from_css", "g_matrix",
               "line_crossing", "recover", "z_derivatives", "z_family"),
    "spectra": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """The public NAME read from its layer module on each access, never
    cached here, so a patched module attribute is what the package returns."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
