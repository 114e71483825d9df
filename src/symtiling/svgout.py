"""Every figure format: a small SVG 1.1 writer for orbit, sunburst, polygon
and disk figures, plus the PPM verdict raster and its portrait colours.

Shapes are collected in world coordinates with y pointing up; the writer
flips the axis once on output so viewers show the mathematical frame.
The viewBox is fitted to the drawn geometry with a 5% margin, and stroke
widths are quoted as multiples of a unit derived from the bounding box
diagonal so line weights stay sensible across very different orbit
scales.
"""

from __future__ import annotations

import math

from .dynamics import (BOUNDED_ATTRACTED, INCONCLUSIVE, PERIODIC, SINGULAR,
                       UNBOUNDED_DRIFT)
from .exact import Vec2

PALETTE = (
    "#e45756", "#4c78a8", "#f58518", "#54a24b", "#b279a2",
    "#ff9da6", "#9d755d", "#72b7b2", "#eeca3b", "#bab0ac",
)

GRID_COLOR = "#d8d8d8"
A_COLOR = "#4c78a8"
B_COLOR = "#e45756"
PIXELS = 720    # the longer side of every rendered figure

VERDICT_COLORS = {
    PERIODIC: (0, 166, 62),
    UNBOUNDED_DRIFT: (214, 39, 40),
    BOUNDED_ATTRACTED: (31, 119, 180),
    SINGULAR: (0, 0, 0),
    INCONCLUSIVE: (150, 150, 150),
}


class Canvas:
    """Accumulates elements and their running bounding box, then renders
    one auto-fitted SVG.  Points and centres are (x, y) pairs of numbers,
    which are drawn as floats.  An element is its finished SVG text
    around one slot, a width that render writes as a multiple of the
    stroke unit."""

    def __init__(self):
        self._elements = []     # (text before the slot, width, text after)
        self._box = None        # xmin, ymin, xmax, ymax of all seen points

    def _fit(self, xs, ys):
        box = self._box
        if box is None:
            self._box = min(xs), min(ys), max(xs), max(ys)
        else:
            self._box = (min(box[0], *xs), min(box[1], *ys),
                         max(box[2], *xs), max(box[3], *ys))

    def polyline(self, points, color, width, closed=False):
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 2:
            return
        self._fit(*zip(*pts))
        coords = " ".join([f"{x:.8g},{-y:.8g}" for x, y in pts])
        tag = "polygon" if closed else "polyline"
        self._elements.append((
            f'<{tag} points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="', width,
            '" stroke-linejoin="round" stroke-linecap="round"/>'))

    def circle(self, center, radius, color, width):
        x, y = map(float, center)
        self._fit((x - radius, x + radius), (y - radius, y + radius))
        self._elements.append((
            f'<circle cx="{_f(x)}" cy="{_f(-y)}" r="{_f(radius)}" '
            f'fill="none" stroke="{color}" stroke-width="', width, '"/>'))

    def dot(self, center, size, color):
        """Filled marker whose radius is size stroke units."""
        x, y = map(float, center)
        self._fit((x,), (y,))
        self._elements.append((f'<circle cx="{_f(x)}" cy="{_f(-y)}" r="',
                               size, f'" fill="{color}" stroke="none"/>'))

    def _frame(self):
        if self._box is None:
            return -1.0, -1.0, 2.0, 2.0
        xmin, ymin, xmax, ymax = self._box
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
        widths = {width: _f(width * unit)
                  for _, width, _ in self._elements}
        out.extend(head + widths[width] + tail
                   for head, width, tail in self._elements)
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
    local = [tiling.to_local(Vec2(*p)) for p in points]
    lx = [float(p.x) for p in local]
    ly = [float(p.y) for p in local]
    x0, x1 = math.floor(min(lx)) - 1, math.ceil(max(lx)) + 1
    y0, y1 = math.floor(min(ly)) - 1, math.ceil(max(ly)) + 1

    def world(x, y):
        p = tiling.to_world(Vec2(x, y))
        return float(p.x) + shift, float(p.y)

    for x in range(x0, x1 + 1):
        canvas.polyline((world(x, y0), world(x, y1)), GRID_COLOR, 0.6)
    for y in range(y0, y1 + 1):
        canvas.polyline((world(x0, y), world(x1, y)), GRID_COLOR, 0.6)


def orbit_figure(record, a_tiling, b_tiling) -> Canvas:
    """Both factor projections of a pair orbit, drawn side by side."""
    canvas = Canvas()
    a_pts, b_pts = record.a_points, record.b_points
    ax0, ay0, ax1, ay1 = _bounds(a_pts)
    bx0, by0, bx1, by1 = _bounds(b_pts)
    gap = 0.12 * max(ax1 - ax0, ay1 - ay0, bx1 - bx0, by1 - by0, 1.0)
    shift = (ax1 - bx0) + gap + 2.0
    _grid_backdrop(canvas, a_tiling, a_pts)
    _grid_backdrop(canvas, b_tiling, b_pts, shift=shift)
    shifted = [(x + shift, y) for x, y in b_pts]
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
    pts = [(float(p.x), float(p.y)) for p in points[:n]]
    rmax = max(math.hypot(x, y) for x, y in pts)
    for t in pair.a.angles:
        tip = (1.12 * rmax * math.cos(t), 1.12 * rmax * math.sin(t))
        canvas.polyline(((0.0, 0.0), tip), "#aaaaaa", 0.8)
    for j in range(n):
        color = PALETTE[(j + 1) % n % len(PALETTE)]
        canvas.polyline((pts[j], pts[(j + 1) % n]), color, 1.8)
    for j, p in enumerate(pts):
        canvas.dot(p, 2.0, "#333333")
    cx = 2.7 * rmax
    rosette = 0.8 * rmax
    canvas.circle((cx, 0.0), rosette * 1.15, "#dddddd", 0.8)
    for k, t in enumerate(pair.b_angles):
        tip = (cx + rosette * math.cos(t), rosette * math.sin(t))
        canvas.polyline(((cx, 0.0), tip), PALETTE[k % len(PALETTE)], 1.8)
    canvas.dot((cx, 0.0), 1.6, "#333333")
    return canvas


def disk_figure(points, chords) -> Canvas:
    """Points of the Poincare disk and straight chords (pairs of points);
    the gray dot marks the centre.  A point with one coordinate lies on
    the x axis, and only the first two coordinates of a point are drawn."""
    canvas = Canvas()
    canvas.circle((0.0, 0.0), 1.0, "#333333", 1.0)
    canvas.dot((0.0, 0.0), 1.0, "#bbbbbb")
    for chord in chords:
        canvas.polyline(chord, "#999999", 0.8)
    for i, p in enumerate(points):
        canvas.dot((*p, 0.0)[:2], 2.6, PALETTE[i % len(PALETTE)])
    return canvas


def polygon_figure(polys) -> Canvas:
    """One or more polygons drawn side by side."""
    canvas = Canvas()
    shift = 0.0
    for i, poly in enumerate(polys):
        pts = [(float(v.x), float(v.y)) for v in poly.vertices]
        x0, y0, x1, y1 = _bounds(pts)
        dx = shift - x0
        canvas.polyline([(x + dx, y) for x, y in pts],
                        PALETTE[i % len(PALETTE)], 1.4, closed=True)
        for x, y in pts:
            canvas.dot((x + dx, y), 1.6, "#333333")
        shift += (x1 - x0) + 0.35 * max(x1 - x0, 1.0)
    return canvas


def write_ppm(path, rows):
    """P6 raster of verdict strings; rows run bottom-up, as in the
    mathematical frame, so the last row lands at the top of the image."""
    h = len(rows)
    w = len(rows[0])
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        for row in reversed(rows):
            fh.write(b"".join(bytes(VERDICT_COLORS[v]) for v in row))
