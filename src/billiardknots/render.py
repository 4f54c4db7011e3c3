"""Billiard-table diagram geometry and SVG output.

The trajectory is the slope-one billiard path in a 3-row, b-column table,
b = n + 1, fired from the lower-left corner.  Unfolded it is the diagonal
t -> (t, t), so at time t in [0, 3b] it is at (fold(t, b), fold(t, 3)),
fold(t, L) being t mod 2L reflected into [0, L].  It bounces at each
multiple of 3 and at b and 2b, and ends in a corner at t = 3b.  Column
x is passed at t = x, 2b - x and 2b + x: one pass bounces off the top or
bottom, and the other two cross at (x, 1) for odd x, (x, 2) for even x.
These n crossings, read left to right, carry the letters of the word: by
default a '1' puts the positive-slope strand on top, and --flip-crossings
inverts that.  The mapping of letter values to crossing states is a
convention of this package, not forced by the diagrams themselves.

Every coordinate is a whole pixel: the table point (x, y) is drawn at
(40x + 60, 180 - 40y), and an under-strand stops 8 px either side of its
crossing.
"""

from __future__ import annotations

from typing import NamedTuple

from .words import Word, check_length, check_word

TABLE_HEIGHT = 3

_GAP = 8  # half-width of the underpass gap, in pixels
_SCALE = 40  # pixels per table unit
_MARGIN = 60  # padding around the table, in pixels


class BilliardGeometry(NamedTuple):
    """Polyline and crossing points of the trajectory in a 3 x width table."""

    width: int  # table width b = n + 1
    vertices: tuple[tuple[int, int], ...]  # bounce points, in travel order
    crossings: tuple[tuple[int, int], ...]  # ordered by increasing x

    @property
    def segments(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        return tuple(zip(self.vertices, self.vertices[1:]))


def _fold(t: int, length: int) -> int:
    """t mod 2 * length, reflected into [0, length]."""
    t %= 2 * length
    return min(t, 2 * length - t)


def _geometry_and_strands(
    n: int,
) -> tuple[BilliardGeometry, dict[tuple[int, int], list[int]]]:
    """The geometry for length n, and the two segment indices through each
    crossing, in the order the trajectory passes them."""
    width = check_length(n) + 1
    if n < 1:
        raise ValueError("a diagram needs n >= 1")
    twice = 2 * width
    bounces = sorted([*range(0, TABLE_HEIGHT * width + 1, TABLE_HEIGHT), width, twice])
    vertices = tuple([(_fold(t, width), _fold(t, TABLE_HEIGHT)) for t in bounces])
    through: dict[tuple[int, int], list[int]] = {}
    for x in range(1, width):
        y = 2 - x % 2
        through[x, y] = strands = [
            t // TABLE_HEIGHT + (t > width) + (t > twice)
            for t in (x, twice - x, twice + x)
            if t % 6 in (y, 6 - y)  # _fold(t, TABLE_HEIGHT) == y
        ]
        if len(strands) != 2:
            raise AssertionError(f"unexpected crossing layout for n={n} at x={x}")
    return BilliardGeometry(width, vertices, tuple(through)), through


def billiard_geometry(n: int) -> BilliardGeometry:
    """Geometry for a word of length n, which must be 0 or 1 mod 3 and >= 1."""
    return _geometry_and_strands(n)[0]


def _pixel(x: int, y: int) -> tuple[int, int]:
    return x * _SCALE + _MARGIN, (TABLE_HEIGHT - y) * _SCALE + _MARGIN


def _line(cls: str, x1: int, y1: int, x2: int, y2: int) -> str:
    return f'<line class="{cls}" x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"/>'


def _closure_points(geometry: BilliardGeometry) -> list[tuple[int, int]]:
    end = geometry.vertices[-1]
    w = geometry.width
    if end == (w, TABLE_HEIGHT):
        route = [end, (w + 1, TABLE_HEIGHT + 1), (w + 1, -1)]
    else:
        route = [end, (w + 1, -1)]
    return route + [(-1, -1), (0, 0)]


def render_svg(w: Word, flip_crossings: bool = False) -> str:
    """Deterministic SVG drawing of the diagram for w.

    The under-strand is interrupted near each crossing; everything else,
    including the outside closure joining the trajectory's two corner
    endpoints, is drawn as solid polylines.
    """
    check_word(w)
    geometry, through = _geometry_and_strands(len(w))
    segments = geometry.segments
    rising = [(x2 - x1) * (y2 - y1) > 0 for (x1, y1), (x2, y2) in segments]

    # the x of each crossing a segment dives under, in increasing order
    cuts: dict[int, list[int]] = {}
    for letter, (x, y) in zip(w, geometry.crossings):
        over_rising = (letter == "1") != flip_crossings
        for index in through[(x, y)]:
            if rising[index] != over_rising:
                cuts.setdefault(index, []).append(x)

    body = [_line("grid", *_pixel(gx, 0), *_pixel(gx, TABLE_HEIGHT))
            for gx in range(geometry.width + 1)]
    body += [_line("grid", *_pixel(0, gy), *_pixel(geometry.width, gy))
             for gy in range(TABLE_HEIGHT + 1)]

    # trajectory, drawn left to right in pieces split where it dives under
    for index, segment in enumerate(segments):
        (left, left_y), (right, _) = sorted(_pixel(x, y) for x, y in segment)
        slope = -1 if rising[index] else 1  # pixel y grows downwards
        stops = [left]
        for x in cuts.get(index, ()):
            centre = x * _SCALE + _MARGIN
            stops += (centre - _GAP, centre + _GAP)
        stops.append(right)
        for a, b in zip(stops[::2], stops[1::2]):
            body.append(_line("strand", a, left_y + slope * (a - left),
                              b, left_y + slope * (b - left)))

    closure = [_pixel(x, y) for x, y in _closure_points(geometry)]
    for p, q in zip(closure, closure[1:]):
        body.append(_line("strand", *p, *q))

    view_w = geometry.width * _SCALE + 2 * _MARGIN
    view_h = TABLE_HEIGHT * _SCALE + 2 * _MARGIN
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{view_w:.2f}" '
        f'height="{view_h:.2f}" viewBox="0 0 {view_w:.2f} {view_h:.2f}">\n'
        "<style>\n"
        ".grid { stroke: #cccccc; stroke-width: 1; }\n"
        ".strand { stroke: #000000; stroke-width: 4; stroke-linecap: round; }\n"
        "</style>\n"
    )
    return head + "\n".join(body) + "\n</svg>\n"
