"""Closed-form spectra of the z-parallel-Bloch two-qubit state.

The canonical state has Bloch vectors (0, 0, r), (0, 0, s) and a diagonal
correlation vector (q1, q2, q3).  Its spectrum factors into two 2x2 blocks
with eigenvalues mu+- = ((1 - q3) +- M1) / 4 and nu+- = ((1 + q3) +- M2) / 4,
M1 = |(r - s, q1 + q2)| and M2 = |(r + s, q1 - q2)|.  The partial transpose
is the same state at q2 -> -q2.  Every formula the geometry needs is written
here once, on the moduli: `moduli` gives (M1, M2), `sheet_min` the smallest
branch min(mu-, nu-) from them, whose zero set is the boundary of the
deformed state body (of the deformed separable body at q2 -> -q2), and
`boundary_roots` that zero set solved for q3.  `branch_min` is `sheet_min`
at the moduli of (r, s, q1, q2), for callers that hold no moduli.
"""

from __future__ import annotations

import numpy as np

# the slack of `boundary_roots`' footprint test M1 + M2 <= 2: where it admits a
# point, the other branch at either root is at least -(FOOTPRINT_SLACK + rounding) / 4
FOOTPRINT_SLACK = 1e-12


def moduli(r, s, q1, q2):
    """Elementwise (M1, M2) = (|(r - s, q1 + q2)|, |(r + s, q1 - q2)|).

    Taken as sqrt(a * a + b * b), within an ulp of np.hypot at a seventh of
    its cost: every argument is at most 2 in size, so the overflow guard that
    np.hypot pays for is never needed."""
    a, b, c, d = r - s, q1 + q2, r + s, q1 - q2
    return np.sqrt(a * a + b * b), np.sqrt(c * c + d * d)


def sheet_min(m1, m2, q3):
    """Elementwise min(mu-, nu-) = min((1 - q3) - M1, (1 + q3) - M2) / 4."""
    return np.minimum((1 - q3) - m1, (1 + q3) - m2) / 4.0


def branch_min(r, s, q1, q2, q3):
    """Elementwise min(mu-, nu-) of the canonical state over arrays of (r, s, q1, q2, q3)."""
    return sheet_min(*moduli(r, s, q1, q2), q3)


def boundary_roots(m1, m2):
    """Sheet roots over arrays of the moduli (M1, M2): the mu- root q3 = 1 - M1,
    the nu- root q3 = M2 - 1, and where both realize the min condition (the
    other branch nonnegative), M1 + M2 <= 2.  Moduli at q2 -> -q2 give the
    separable body's sheets.
    """
    return 1.0 - m1, m2 - 1.0, m1 + m2 <= 2.0 + FOOTPRINT_SLACK
