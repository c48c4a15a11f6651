"""Two-qubit entanglement geometry: closed-form closest separable states,
relative entropy of entanglement, and the reverse map from separable edge
states to their entangled families."""

from .css import (
    CssResult,
    FamilyKind,
    FamilyTag,
    classify,
    css_auto,
    css_bell_diagonal,
    css_horodecki,
    css_vp,
)
from .errors import (
    DegenerateZ,
    InvalidState,
    NoCrossing,
    NotConverged,
    NotEdgeState,
    OutsideTetrahedron,
    ParallelLines,
    RankDeficient,
    ReegeomError,
)
from .geometry import (
    TETRA_VERTICES,
    CrossingPoint,
    SurfaceMesh,
    Vertex,
    in_tetrahedron,
    line_surface_crossing,
    nearest_vertex,
    surface_mesh,
)
from .qstate import (
    DiagonalPauliForm,
    PauliForm,
    bell_diagonal,
    canonicalize,
    concurrence,
    from_pauli,
    is_ppt,
    partial_transpose,
    to_pauli,
    validate_density_matrix,
)
from .ree import (
    OracleConfig,
    ReeReport,
    directional_optimality_check,
    ree_numeric,
    relative_entropy,
)
from .revmap import (
    SigmaZParams,
    css_line_sweep,
    family_from_css,
    g_matrix,
    line_crossing,
    recover,
    z_derivatives,
    z_family,
)

__version__ = "0.1.0"
