"""End-to-end map from convex equilateral polygons to hyperbolic moduli.

Composes the pieces: solve the holonomy-1 phase to get the equiangular
partner polygon, read its line offsets in the canonical root-of-unity
families straight off the solved orbit, and normalize onto the
unit-area hyperboloid sheet.  The output is invariant under plane
isometries of the input and under the orbit's dilation freedom.
"""

from __future__ import annotations

import math

from .exact import unit_from_angle
from .linkage import EquiangularSolution, Polygon, solve_equiangular
from .moduli import HyperbolicPoint, to_hyperbolic


def equiangular_offsets(sol: EquiangularSolution) -> tuple:
    """Line offsets in the canonical families of the solved polygon p
    turned by pi - phase: s_k = cross(p_{k-1}, b_k), with b_k the unit
    vector at angle phase + 2 pi k / n, ray k of the regular sunburst
    at the solved phase.

    Edge k-1 -> k of the orbit is parallel to b_k, and the turn sends
    b_k to -d_k, the traversal direction of family k under the
    left-normal convention; a rotation keeps cross products.
    """
    p = sol.polygon.vertices
    n = len(p)
    return tuple(float(p[k - 1].cross(
        unit_from_angle(sol.phase + math.tau * k / n))) for k in range(n))


def equilateral_to_hyperbolic(poly: Polygon) -> HyperbolicPoint:
    """Hyperbolic moduli point of a convex equilateral polygon."""
    return to_hyperbolic(equiangular_offsets(solve_equiangular(poly)))

