"""
SVG diagrams of alcove paths for two and three components.

For l = 2 the picture is a strip: the wall coordinate runs horizontally
and the path descends one row per step.  For l = 3 the path is projected
onto the triangular lattice: unit steps in the three components map to
plane vectors at 60, 120 and 270 degrees, under which every reflection
hyperplane projects to a line.  Walls are drawn across the bounding box
of the path, wall contacts are marked, and nonzero step degrees are
annotated.  Output is deterministic byte-for-byte.
"""

from __future__ import annotations

from .geometry import geometry_for
from .paths import CLOSURE_BUDGET, paths_between


class RankTooHigh(ValueError):
    """SVG rendering supports l = 2 and l = 3 only."""


_SQRT3_2 = 0.8660254037844386

_SCALE = 24.0  # pixels per unit of the projected lattice

_COLORS = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#555555")


def _fmt(x):
    return "%.3f" % (x + 0.0)


def _project(l, p):
    if l == 2:
        return (p[0] - p[1], -(p[0] + p[1]))
    units = ((0.5, _SQRT3_2), (-0.5, _SQRT3_2), (0.0, -2 * _SQRT3_2))
    x = sum(p[i] * units[i][0] for i in range(3))
    y = -sum(p[i] * units[i][1] for i in range(3))
    return (x, y)


def render(params, lam, mu, budget=CLOSURE_BUDGET):
    """An SVG document showing all paths from the distinguished path of mu
    to lam, over the projected hyperplane arrangement."""
    if params.l not in (2, 3):
        raise RankTooHigh("svg rendering needs l = 2 or l = 3, got l=%d" % params.l)
    geom = geometry_for(params)
    found = paths_between(params, tuple(lam), tuple(mu), budget)
    points = {(0,) * params.l}
    for path, _ in found:
        points.update(path.points)
    projected = [_project(params.l, p) for p in sorted(points)]
    xs = [q[0] for q in projected]
    ys = [q[1] for q in projected]
    pad = 1.5
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    width = (x1 - x0) * _SCALE
    height = (y1 - y0) * _SCALE

    def to_px(q):
        return ((q[0] - x0) * _SCALE, (q[1] - y0) * _SCALE)

    lines = []
    lines.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
        'viewBox="0 0 %s %s">' % (_fmt(width), _fmt(height), _fmt(width), _fmt(height))
    )
    lines.append(
        '<rect width="%s" height="%s" fill="white"/>' % (_fmt(width), _fmt(height))
    )
    for seg in _wall_segments(geom, sorted(points), (x0, x1, y0, y1)):
        (ax, ay), (bx, by) = to_px(seg[0]), to_px(seg[1])
        lines.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#bbbbbb" '
            'stroke-width="1" stroke-dasharray="4 3"/>'
            % (_fmt(ax), _fmt(ay), _fmt(bx), _fmt(by))
        )
    for idx, (path, degree) in enumerate(found):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(
            "%s,%s" % tuple(map(_fmt, to_px(_project(params.l, p))))
            for p in path.points
        )
        lines.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="2" '
            'opacity="0.85"/>' % (pts, color)
        )
        for k in range(1, len(path) + 1):
            d = geom.step_degree(path.points[k - 1], path.points[k])
            if d:
                px, py = to_px(_project(params.l, path.points[k]))
                lines.append(
                    '<text x="%s" y="%s" font-size="10" fill="%s">%+d</text>'
                    % (_fmt(px + 3), _fmt(py - 3), color, d)
                )
        end = to_px(_project(params.l, path.endpoint()))
        lines.append(
            '<circle cx="%s" cy="%s" r="3" fill="%s"/>'
            % (_fmt(end[0]), _fmt(end[1]), color)
        )
        lines.append(
            '<text x="4" y="%s" font-size="11" fill="%s">path %d: degree %d</text>'
            % (_fmt(12.0 * (idx + 1)), color, idx + 1, degree)
        )
    origin = to_px(_project(params.l, (0,) * params.l))
    lines.append(
        '<circle cx="%s" cy="%s" r="3" fill="black"/>' % (_fmt(origin[0]), _fmt(origin[1]))
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _wall_segments(geom, points, box):
    """Projected wall segments of every hyperplane met near the path."""
    x0, x1, y0, y1 = box
    segments = []
    for r, (i, j) in enumerate(geom.roots):
        values = [geom.value(p, (i, j)) for p in points]
        lo = min(values) // geom.e
        hi = max(values) // geom.e + 1
        for m in range(lo, hi + 1):
            seg = _wall_line(geom, (i, j), m, box)
            if seg:
                segments.append(seg)
    return segments


def _wall_line(geom, root, m, box):
    """Clip the projection of <x+rho, e_i - e_j> = m*e to the view box.

    The projections send each wall to a straight line; it is enough to
    find one projected point plus the direction and clip parametrically.
    """
    i, j = root
    x0, x1, y0, y1 = box
    shift = m * geom.e - (geom.rho[i] - geom.rho[j])
    if geom.l == 2:
        # horizontal coordinate p1 - p2 is constant on the wall
        x = float(shift)
        if not x0 <= x <= x1:
            return None
        return ((x, y0), (x, y1))
    base = [0.0, 0.0, 0.0]
    base[i] = shift / 2.0
    base[j] = -shift / 2.0
    # a direction inside the wall with zero sum: equal change in i and j
    other = 3 - i - j
    direction = [0.0, 0.0, 0.0]
    direction[i] = 1.0
    direction[j] = 1.0
    direction[other] = -2.0
    p0 = _project(3, tuple(base))
    d = _project(3, direction)
    return _clip_line(p0, d, box)


def _clip_line(p0, d, box):
    x0, x1, y0, y1 = box
    ts = []
    if abs(d[0]) > 1e-12:
        ts += [(x0 - p0[0]) / d[0], (x1 - p0[0]) / d[0]]
    if abs(d[1]) > 1e-12:
        ts += [(y0 - p0[1]) / d[1], (y1 - p0[1]) / d[1]]
    inside = []
    for t in sorted(ts):
        q = (p0[0] + t * d[0], p0[1] + t * d[1])
        if x0 - 1e-9 <= q[0] <= x1 + 1e-9 and y0 - 1e-9 <= q[1] <= y1 + 1e-9:
            inside.append(q)
    if len(inside) < 2:
        return None
    return (inside[0], inside[-1])
