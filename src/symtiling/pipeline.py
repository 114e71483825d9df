"""End-to-end map from convex equilateral polygons to hyperbolic moduli.

Composes the pieces: solve the holonomy-1 phase to get the equiangular
partner polygon, read its line offsets in the canonical root-of-unity
families straight off the solved orbit, and normalize onto the
unit-area hyperboloid sheet.  The output is invariant under plane
isometries of the input and under the orbit's dilation freedom.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exact import unit_from_angle
from .linkage import EquiangularSolution, Polygon, solve_equiangular
from .moduli import (AreaForm, HyperbolicPoint, area_form, cyclic_matrix,
                     hyperbolic_distance, quotient_map, to_hyperbolic)
from .weave import TWO_PI


def equiangular_offsets(sol: EquiangularSolution) -> np.ndarray:
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
    return np.array([float(p[k - 1].cross(
        unit_from_angle(sol.phase + TWO_PI * k / n))) for k in range(n)])


def equilateral_to_hyperbolic(poly: Polygon, radius: float = 1.0,
                              form: AreaForm = None) -> HyperbolicPoint:
    """Hyperbolic moduli point of a convex equilateral polygon."""
    sol = solve_equiangular(poly, radius)
    if form is None:
        form = area_form(poly.n)
    return to_hyperbolic(equiangular_offsets(sol), form)


class RelabelReport(NamedTuple):
    image: HyperbolicPoint
    shifted_image: HyperbolicPoint
    discrepancy: float


def cyclic_relabel(poly: Polygon, shift: int = 1,
                   form: AreaForm = None) -> RelabelReport:
    """Relabel the polygon's vertices cyclically and compare moduli.

    The relabeled polygon's image equals the induced cyclic isometry
    applied to the original image; discrepancy is the hyperbolic
    distance between the two, which vanishes up to numerics.
    """
    n = poly.n
    if form is None:
        form = area_form(n)
    shift %= n
    shifted = Polygon(poly.vertices[shift:] + poly.vertices[:shift])
    img = equilateral_to_hyperbolic(poly, form=form)
    img_shift = equilateral_to_hyperbolic(shifted, form=form)
    cq = quotient_map(form, cyclic_matrix(n))
    mapped = np.linalg.matrix_power(cq, shift) @ img.as_array()
    moved = HyperbolicPoint(n, tuple(mapped))
    return RelabelReport(moved, img_shift,
                         hyperbolic_distance(moved, img_shift, form))
