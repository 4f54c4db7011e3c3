"""Billiard-table diagram geometry and SVG output.

The trajectory is the slope-one billiard path in a 3-row, (n+1)-column
table, fired from the lower-left corner.  Its n self-intersections, read
left to right, carry the letters of the word: by default a '1' puts the
positive-slope strand on top, and --flip-crossings inverts that.  The
mapping of letter values to crossing states is a convention of this
package, not forced by the diagrams themselves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .words import Word, check_word

TABLE_HEIGHT = 3

_GAP = Fraction(1, 5)  # half-width of the underpass gap, in table units
_SCALE = 40  # pixels per table unit
_MARGIN = Fraction(3, 2)  # padding around the table, in table units


@dataclass(frozen=True)
class BilliardGeometry:
    """Polyline and crossing points of the trajectory in a 3 x width table."""

    width: int  # table width b = n + 1
    vertices: tuple[tuple[int, int], ...]  # bounce points, in travel order
    crossings: tuple[tuple[int, int], ...]  # ordered by increasing x

    @property
    def height(self) -> int:
        return TABLE_HEIGHT

    @property
    def segments(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        return tuple(zip(self.vertices, self.vertices[1:]))


def _trace(width: int) -> list[tuple[int, int]]:
    x, y = 0, 0
    dx, dy = 1, 1
    vertices = [(0, 0)]
    while True:
        step_x = (width - x) if dx > 0 else x
        step_y = (TABLE_HEIGHT - y) if dy > 0 else y
        step = min(step_x, step_y)
        x += dx * step
        y += dy * step
        vertices.append((x, y))
        if x in (0, width) and y in (0, TABLE_HEIGHT):
            return vertices
        if x in (0, width):
            dx = -dx
        if y in (0, TABLE_HEIGHT):
            dy = -dy


def _interior_points(vertices):
    """(x, y, segment index) at each integer x strictly inside each segment.

    The segments have slope +1 or -1 between lattice points, so these are
    all the lattice points the trajectory passes away from its bounces.
    """
    for index, ((x1, y1), (x2, y2)) in enumerate(zip(vertices, vertices[1:])):
        step = 1 if x2 > x1 else -1
        slope = (y2 - y1) // (x2 - x1)
        for x in range(x1 + step, x2, step):
            yield x, y1 + slope * (x - x1), index


def billiard_geometry(n: int) -> BilliardGeometry:
    """Geometry for a word of length n, which must be 0 or 1 mod 3 and >= 1.

    A crossing is a lattice point that two strands pass through; the
    trajectory is read off once, in time linear in n.
    """
    if n < 1 or n % 3 == 2:
        raise ValueError(f"invalid length {n}: need n >= 1 with n = 0 or 1 mod 3")
    width = n + 1
    vertices = _trace(width)
    strands = Counter((x, y) for x, y, _ in _interior_points(vertices))
    crossings = tuple(sorted(point for point, k in strands.items() if k > 1))
    if len(crossings) != n or [p[0] for p in crossings] != list(range(1, n + 1)):
        raise AssertionError(f"unexpected crossing layout for n={n}: {crossings}")
    return BilliardGeometry(width, tuple(vertices), crossings)


def _fmt(value) -> str:
    return f"{float(value):.2f}"


def _closure_points(geometry: BilliardGeometry) -> list[tuple]:
    end = geometry.vertices[-1]
    w = geometry.width
    out = Fraction(1)
    if end == (w, TABLE_HEIGHT):
        route = [end, (w + out, TABLE_HEIGHT + out), (w + out, -out)]
    else:
        route = [end, (w + out, -out)]
    route += [(-out, -out), (0, 0)]
    return route


def render_svg(w: Word, flip_crossings: bool = False) -> str:
    """Deterministic SVG drawing of the diagram for w.

    The under-strand is interrupted near each crossing; everything else,
    including the outside closure joining the trajectory's two corner
    endpoints, is drawn as solid polylines.
    """
    check_word(w)
    n = len(w)
    geometry = billiard_geometry(n)

    # gaps to cut, per segment index: list of (x_low, x_high) in table units
    through: dict[tuple[int, int], list[int]] = {}
    for x, y, seg_index in _interior_points(geometry.vertices):
        through.setdefault((x, y), []).append(seg_index)
    segments = geometry.segments
    gaps: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for idx, (x, y) in enumerate(geometry.crossings):
        over_positive = w[idx] == "1"
        if flip_crossings:
            over_positive = not over_positive
        for seg_index in through[(x, y)]:
            (x1, y1), (x2, y2) = segments[seg_index]
            slope = 1 if (x2 - x1) * (y2 - y1) > 0 else -1
            if (slope == 1) != over_positive:
                gaps.setdefault(seg_index, []).append((x - _GAP, x + _GAP))

    def svg_xy(x, y) -> tuple[str, str]:
        px = (Fraction(x) + _MARGIN) * _SCALE
        py = (Fraction(TABLE_HEIGHT) - Fraction(y) + _MARGIN) * _SCALE
        return _fmt(px), _fmt(py)

    def line(p, q, cls) -> str:
        (x1, y1), (x2, y2) = p, q
        sx1, sy1 = svg_xy(x1, y1)
        sx2, sy2 = svg_xy(x2, y2)
        return (
            f'<line class="{cls}" x1="{sx1}" y1="{sy1}" x2="{sx2}" y2="{sy2}"/>'
        )

    body = []
    # light grid
    for gx in range(geometry.width + 1):
        body.append(line((gx, 0), (gx, TABLE_HEIGHT), "grid"))
    for gy in range(TABLE_HEIGHT + 1):
        body.append(line((0, gy), (geometry.width, gy), "grid"))

    # trajectory, gap-split where it dives under
    for seg_index, ((x1, y1), (x2, y2)) in enumerate(geometry.segments):
        slope = 1 if (x2 - x1) * (y2 - y1) > 0 else -1
        lo, hi = min(x1, x2), max(x1, x2)

        def y_at(x, y0=y1, x0=x1, s=slope):
            return y0 + s * (x - x0)

        cuts = sorted(gaps.get(seg_index, []))
        cursor = Fraction(lo)
        pieces = []
        for g_lo, g_hi in cuts:
            pieces.append((cursor, max(cursor, g_lo)))
            cursor = min(Fraction(hi), g_hi)
        pieces.append((cursor, Fraction(hi)))
        for p_lo, p_hi in pieces:
            if p_hi > p_lo:
                body.append(
                    line((p_lo, y_at(p_lo)), (p_hi, y_at(p_hi)), "strand")
                )

    closure = _closure_points(geometry)
    for p, q in zip(closure, closure[1:]):
        body.append(line(p, q, "strand"))

    view_w = _fmt((geometry.width + 2 * _MARGIN) * _SCALE)
    view_h = _fmt((TABLE_HEIGHT + 2 * _MARGIN) * _SCALE)
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{view_w}" '
        f'height="{view_h}" viewBox="0 0 {view_w} {view_h}">\n'
        "<style>\n"
        ".grid { stroke: #cccccc; stroke-width: 1; }\n"
        ".strand { stroke: #000000; stroke-width: 4; stroke-linecap: round; }\n"
        "</style>\n"
    )
    return head + "\n".join(body) + "\n</svg>\n"
