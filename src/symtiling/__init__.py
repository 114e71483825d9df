"""Workbench for coupled billiards on pairs of tilings.

Two particles live on the edges of two planar tilings and take turns
borrowing each other's edge direction; the package follows their orbits
in exact rational arithmetic on square grids, solves the phase that
closes sunburst orbits, converts equilateral polygons to equiangular
ones, and embeds equiangular polygons in a hyperbolic moduli space
carried by the signed-area quadratic form.
"""

from .dynamics import (BOUNDED_ATTRACTED, INCONCLUSIVE, PERIODIC, SINGULAR,
                       UNBOUNDED_DRIFT, Classification, OrbitRecord,
                       PairState, Termination, classify, phase_portrait,
                       portrait_cell, run_orbit, step)
from .errors import (DegenerateStep, EmptyInterval, GeometryError,
                     HolonomyMismatch, InvalidSunburst, NonPositiveArea,
                     NonTransverseEdges, NotConvex, NotEquilateral,
                     ParallelWitnessLines, SignatureMismatch, VertexHit)
from .exact import Vec2, bit_length, rational_circle_point
from .linkage import (EquiangularSolution, Polygon, check_equilateral,
                      directions_to_sunburst, equilateral_to_equiangular,
                      random_convex_equilateral, regular_equilateral,
                      solve_equiangular)
from .moduli import (AreaForm, HyperbolicPoint, area_form, butterfly,
                     butterfly_matrix, chart_c_coordinate, cyclic_fixed_point,
                     cyclic_matrix, family_directions, family_normals,
                     hyperbolic_distance, is_convex_offsets,
                     pentagon_report, pentagon_wall_order, pentagon_walls,
                     polygon_from_offsets, random_convex_offsets,
                     signed_area, signed_edge_lengths, to_disk, to_hyperbolic,
                     vertices_from_offsets, wall_intersection, wall_normal)
from .pipeline import (RelabelReport, cyclic_relabel, equiangular_offsets,
                       equilateral_to_hyperbolic)
from .tilings import GridEdge, GridTiling, Particle, is_transverse
from .weave import (HolonomyReport, PhaseInterval, Sunburst, SunburstPair,
                    holonomy, holonomy_iteration, holonomy_product,
                    is_balanced, is_oriented_weave, is_regular,
                    left_times_right_holonomy, log_holonomy, orbit_points,
                    phase_arcs, random_balanced_sunburst,
                    random_oriented_weave, regular_sunburst, solve_phase,
                    weave_interval)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
