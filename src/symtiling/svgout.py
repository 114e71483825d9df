"""Minimal SVG 1.1 writer for orbit, sunburst and disk figures.

Shapes are collected in world coordinates with y pointing up; the writer
flips the axis once on output so viewers show the mathematical frame.
The viewBox is fitted to the drawn geometry with a 5% margin, and stroke
widths are quoted as multiples of a unit derived from the bounding box
diagonal so line weights stay sensible across very different orbit
scales.
"""

from __future__ import annotations

import math

from .exact import Vec2

PALETTE = (
    "#e45756", "#4c78a8", "#f58518", "#54a24b", "#b279a2",
    "#ff9da6", "#9d755d", "#72b7b2", "#eeca3b", "#bab0ac",
)

GRID_COLOR = "#d8d8d8"
A_COLOR = "#4c78a8"
B_COLOR = "#e45756"
PIXELS = 720    # the longer side of every rendered figure


def _xy(p):
    if hasattr(p, "x"):
        return float(p.x), float(p.y)
    return float(p[0]), float(p[1])


class Canvas:
    """Accumulates primitives, then renders one auto-fitted SVG."""

    def __init__(self):
        self._shapes = []
        self._xs = []
        self._ys = []

    def _see(self, x, y, pad=0.0):
        self._xs.extend((x - pad, x + pad))
        self._ys.extend((y - pad, y + pad))

    def polyline(self, points, color="#333333", width=1.0, closed=False):
        pts = [_xy(p) for p in points]
        if len(pts) < 2:
            return
        for x, y in pts:
            self._see(x, y)
        self._shapes.append(("poly", pts, closed, color, width))

    def polygon(self, points, color="#333333", width=1.0):
        self.polyline(points, color, width, closed=True)

    def segment(self, a, b, color="#333333", width=1.0):
        self.polyline((a, b), color, width)

    def circle(self, center, radius, color="#333333", width=1.0):
        x, y = _xy(center)
        self._see(x, y, pad=radius)
        self._shapes.append(("circle", x, y, radius, color, width))

    def dot(self, center, size=2.0, color="#222222"):
        """Filled marker whose radius is size stroke units."""
        x, y = _xy(center)
        self._see(x, y)
        self._shapes.append(("dot", x, y, size, color))

    def _frame(self):
        if not self._xs:
            return -1.0, -1.0, 2.0, 2.0
        xmin, xmax = min(self._xs), max(self._xs)
        ymin, ymax = min(self._ys), max(self._ys)
        w = xmax - xmin
        h = ymax - ymin
        scale = max(w, h, 1e-9)
        mx = 0.05 * scale + 0.5 * max(0.0, scale * 1e-3 - w)
        my = 0.05 * scale + 0.5 * max(0.0, scale * 1e-3 - h)
        return xmin - mx, ymin - my, w + 2 * mx, h + 2 * my

    def render(self):
        xmin, ymin, w, h = self._frame()
        unit = 0.0018 * math.hypot(w, h)
        if w >= h:
            pw, ph = PIXELS, max(1, round(PIXELS * h / w))
        else:
            pw, ph = max(1, round(PIXELS * w / h)), PIXELS
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{pw}" height="{ph}" '
            f'viewBox="{_f(xmin)} {_f(-(ymin + h))} {_f(w)} {_f(h)}">',
        ]
        for shape in self._shapes:
            kind = shape[0]
            if kind == "poly":
                _, pts, closed, color, width = shape
                coords = " ".join(f"{_f(x)},{_f(-y)}" for x, y in pts)
                tag = "polygon" if closed else "polyline"
                out.append(f'<{tag} points="{coords}" fill="none" '
                           f'stroke="{color}" '
                           f'stroke-width="{_f(width * unit)}" '
                           f'stroke-linejoin="round" stroke-linecap="round"/>')
            elif kind == "circle":
                _, x, y, r, color, width = shape
                out.append(
                    f'<circle cx="{_f(x)}" cy="{_f(-y)}" r="{_f(r)}" '
                    f'fill="none" stroke="{color}" '
                    f'stroke-width="{_f(width * unit)}"/>')
            elif kind == "dot":
                _, x, y, size, color = shape
                out.append(
                    f'<circle cx="{_f(x)}" cy="{_f(-y)}" '
                    f'r="{_f(size * unit)}" fill="{color}" stroke="none"/>')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())


def _f(x: float) -> str:
    return f"{x:.8g}"


def _bounds(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def _grid_backdrop(canvas, tiling, points, shift=0.0):
    """Draws the grid lines of a tiling behind a cloud of world points."""
    local = [tiling.to_local(Vec2(*_xy(p))) for p in points]
    lx = [float(p.x) for p in local]
    ly = [float(p.y) for p in local]
    x0, x1 = math.floor(min(lx)) - 1, math.ceil(max(lx)) + 1
    y0, y1 = math.floor(min(ly)) - 1, math.ceil(max(ly)) + 1

    def world(x, y):
        p = tiling.to_world(Vec2(x, y))
        return float(p.x) + shift, float(p.y)

    for x in range(x0, x1 + 1):
        canvas.segment(world(x, y0), world(x, y1), GRID_COLOR, 0.6)
    for y in range(y0, y1 + 1):
        canvas.segment(world(x0, y), world(x1, y), GRID_COLOR, 0.6)


def orbit_figure(record, a_tiling, b_tiling) -> Canvas:
    """Both factor projections of a pair orbit, drawn side by side."""
    canvas = Canvas()
    a_pts = [_xy(p) for p in record.a_points]
    b_pts = [_xy(p) for p in record.b_points]
    ax0, ay0, ax1, ay1 = _bounds(a_pts)
    bx0, by0, bx1, by1 = _bounds(b_pts)
    gap = 0.12 * max(ax1 - ax0, ay1 - ay0, bx1 - bx0, by1 - by0, 1.0)
    shift = (ax1 - bx0) + gap + 2.0
    _grid_backdrop(canvas, a_tiling, record.a_points)
    _grid_backdrop(canvas, b_tiling, record.b_points, shift=shift)
    shifted = [(x + shift, y) for x, y in b_pts]
    if len(a_pts) >= 2:
        canvas.polyline(a_pts, A_COLOR, 1.0)
        canvas.polyline(shifted, B_COLOR, 1.0)
    canvas.dot(a_pts[0], 2.4, "#111111")
    canvas.dot(shifted[0], 2.4, "#111111")
    return canvas


def sunburst_figure(pair, points) -> Canvas:
    """A solved sunburst pair and its closed orbit.

    Side j of the orbit is parallel to ray (j+1) mod n of the rotated
    second sunburst and shares its color, which is the pairing used in
    the reference drawings.  Rays of the first sunburst, carrying the
    orbit vertices, are drawn in gray underneath.
    """
    canvas = Canvas()
    n = pair.n
    pts = [_xy(p) for p in points[:n]]
    rmax = max(math.hypot(x, y) for x, y in pts)
    for t in pair.a.angles:
        tip = (1.12 * rmax * math.cos(t), 1.12 * rmax * math.sin(t))
        canvas.segment((0.0, 0.0), tip, "#aaaaaa", 0.8)
    for j in range(n):
        color = PALETTE[(j + 1) % n % len(PALETTE)]
        canvas.segment(pts[j], pts[(j + 1) % n], color, 1.8)
    for j, p in enumerate(pts):
        canvas.dot(p, 2.0, "#333333")
    cx = 2.7 * rmax
    rosette = 0.8 * rmax
    canvas.circle((cx, 0.0), rosette * 1.15, "#dddddd", 0.8)
    for k, t in enumerate(pair.b_angles):
        tip = (cx + rosette * math.cos(t), rosette * math.sin(t))
        canvas.segment((cx, 0.0), tip, PALETTE[k % len(PALETTE)], 1.8)
    canvas.dot((cx, 0.0), 1.6, "#333333")
    return canvas


def disk_figure(points, chords=()) -> Canvas:
    """Points of the Poincare disk, with optional straight chords; the
    gray dot marks the centre."""
    canvas = Canvas()
    canvas.circle((0.0, 0.0), 1.0, "#333333", 1.0)
    canvas.dot((0.0, 0.0), 1.0, "#bbbbbb")
    for a, b in chords:
        canvas.segment(_xy(a), _xy(b), "#999999", 0.8)
    for i, p in enumerate(points):
        canvas.dot(_xy(p), 2.6, PALETTE[i % len(PALETTE)])
    return canvas


def polygon_figure(polys) -> Canvas:
    """One or more polygons drawn side by side."""
    canvas = Canvas()
    shift = 0.0
    for i, poly in enumerate(polys):
        pts = [_xy(v) for v in poly.vertices]
        x0, y0, x1, y1 = _bounds(pts)
        dx = shift - x0
        canvas.polygon([(x + dx, y) for x, y in pts],
                       PALETTE[i % len(PALETTE)], 1.4)
        for x, y in pts:
            canvas.dot((x + dx, y), 1.6, "#333333")
        shift += (x1 - x0) + 0.35 * max(x1 - x0, 1.0)
    return canvas
