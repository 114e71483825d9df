"""Exception types shared across the package.

Everything geometric that can go wrong derives from GeometryError, so the
command line layer can map "degenerate input" to a single exit code.
"""


class GeometryError(Exception):
    """Degenerate geometric input or a failed geometric precondition."""


class VertexHit(GeometryError):
    """A ray's first hit is a tiling vertex; the orbit is singular there."""

    def __init__(self, location):
        super().__init__(f"ray hits a tiling vertex near {location}")
        self.location = location


class NonTransverseEdges(GeometryError):
    """The current edge pair is parallel, so no travel direction exists."""


class InvalidSunburst(GeometryError):
    """Ray set is not counterclockwise with gaps under pi, or fails to span."""


class DegenerateStep(GeometryError):
    """A sunburst orbit step missed its target ray (weave condition broken)."""


class HolonomyMismatch(GeometryError):
    """The closed-form holonomy and the iterated orbit disagree."""


class EmptyInterval(GeometryError):
    """The per-index phase arcs have empty intersection."""

    def __init__(self, arcs):
        super().__init__("per-index phase arcs have empty intersection")
        self.arcs = tuple(arcs)


class NotConvex(GeometryError):
    """Polygon is not strictly convex and counterclockwise."""


class NotEquilateral(GeometryError):
    """Polygon edges are not all of unit length."""


class ParallelWitnessLines(GeometryError):
    """Butterfly witness lines are parallel (happens for N = 4)."""


class NonPositiveArea(GeometryError):
    """Hyperbolic embedding requires positive signed area."""


class SignatureMismatch(GeometryError):
    """Area form does not have the expected Lorentz signature."""
