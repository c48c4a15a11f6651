"""Exception types shared across the package."""


class ReegeomError(Exception):
    """Base class for all package-specific errors."""


class InvalidState(ReegeomError):
    """A matrix fails the density-matrix invariants (Hermiticity, trace, PSD).

    Carries the name of the first violated invariant and its magnitude.
    """

    def __init__(self, invariant, magnitude):
        self.invariant = invariant
        self.magnitude = magnitude
        super().__init__(f"invalid density matrix: {invariant} violated by {magnitude:.3e}")


class OutsideTetrahedron(ReegeomError):
    """A correlation vector lies outside the Bell-diagonal tetrahedron."""


class NoCrossing(ReegeomError):
    """A ray misses the separable-boundary surface."""


class NotEdgeState(ReegeomError):
    """The partial transpose does not have exactly one (near-)zero eigenvalue."""


class RankDeficient(ReegeomError):
    """An operation requiring a full-rank state received a rank-deficient one."""


class DegenerateZ(ReegeomError):
    """The X-shaped family parameters make the closed-form derivatives singular."""


class ParallelLines(ReegeomError):
    """Two one-parameter families never share a correlation vector."""


class NotConverged(ReegeomError):
    """The numerical oracle spent its step budget or ended with a bracket
    wider than its tolerance.  Carries the bracket's gap (value - lower)."""

    def __init__(self, gap):
        self.gap = gap
        super().__init__(f"numeric oracle did not converge: bracket gap {gap:.3e}")
