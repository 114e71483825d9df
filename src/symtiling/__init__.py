"""Workbench for coupled billiards on pairs of tilings.

Two particles live on the edges of two planar tilings and take turns
borrowing each other's edge direction; the package follows their orbits
in exact rational arithmetic on square grids, solves the phase that
closes sunburst orbits, converts equilateral polygons to equiangular
ones, and embeds equiangular polygons in a hyperbolic moduli space
carried by the signed-area quadratic form.  The package root re-exports
nothing: import each name from the module that defines it.
"""

__version__ = "0.1.0"
