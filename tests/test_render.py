import xml.etree.ElementTree as ET

import pytest

from billiardknots.render import billiard_geometry, render_svg

VALID_LENGTHS = [n for n in range(1, 51) if n % 3 != 2]


def _intersection(seg_a, seg_b):
    """Interior intersection point of two unit-slope segments, or None."""
    (ax1, ay1), (ax2, ay2) = seg_a
    (bx1, by1), (bx2, by2) = seg_b
    slope_a = 1 if (ax2 - ax1) * (ay2 - ay1) > 0 else -1
    slope_b = 1 if (bx2 - bx1) * (by2 - by1) > 0 else -1
    if slope_a == slope_b:
        return None
    if slope_a == -1:
        seg_a, seg_b = seg_b, seg_a
        (ax1, ay1), (ax2, ay2) = seg_a
        (bx1, by1), (bx2, by2) = seg_b
    # seg_a: y = x + ca; seg_b: y = -x + cb
    ca = ay1 - ax1
    cb = by1 + bx1
    doubled_x = cb - ca
    if doubled_x % 2:
        return None  # half-integer meeting point: strands touch corners only
    x, y = doubled_x // 2, (cb + ca) // 2
    if min(ax1, ax2) < x < max(ax1, ax2) and min(bx1, bx2) < x < max(bx1, bx2):
        return (x, y)
    return None


def test_crossings_match_the_pairwise_segment_search():
    # the reference tests every pair of segments, in time quadratic in n
    for n in (n for n in range(1, 101) if n % 3 != 2):
        geom = billiard_geometry(n)
        segments = geom.segments
        points = {
            pt
            for i, a in enumerate(segments)
            for b in segments[i + 1 :]
            if (pt := _intersection(a, b)) is not None
        }
        assert geom.crossings == tuple(sorted(points)), n


def test_trefoil_geometry():
    geom = billiard_geometry(3)
    assert geom.width == 4
    assert geom.vertices[0] == (0, 0)
    assert geom.vertices == ((0, 0), (3, 3), (4, 2), (2, 0), (0, 2), (1, 3), (4, 0))
    assert geom.crossings == ((1, 1), (2, 2), (3, 1))


def test_figure_eight_geometry():
    geom = billiard_geometry(4)
    assert geom.width == 5
    assert geom.crossings == ((1, 1), (2, 2), (3, 1), (4, 2))


def test_single_crossing_geometry():
    geom = billiard_geometry(1)
    assert geom.width == 2
    assert len(geom.crossings) == 1


@pytest.mark.parametrize("n", VALID_LENGTHS)
def test_crossing_count_and_order(n):
    geom = billiard_geometry(n)
    assert len(geom.crossings) == n
    assert [p[0] for p in geom.crossings] == list(range(1, n + 1))
    assert all(p[1] in (1, 2) for p in geom.crossings)


def test_trajectory_ends_in_a_corner():
    for n in VALID_LENGTHS:
        geom = billiard_geometry(n)
        end = geom.vertices[-1]
        assert end in ((geom.width, 0), (geom.width, 3))


def test_invalid_lengths_rejected():
    for n in (0, 2, 5, 8, -3):
        with pytest.raises(ValueError):
            billiard_geometry(n)
    for word in ("", "01", "01010"):
        with pytest.raises(ValueError):
            render_svg(word)


def test_render_is_deterministic():
    assert render_svg("101") == render_svg("101")
    assert render_svg("1010") == render_svg("1010")


def test_render_flip_changes_output():
    plain = render_svg("101")
    flipped = render_svg("101", flip_crossings=True)
    assert plain != flipped
    # flipping twice is a no-op at the API level
    assert flipped == render_svg("010")  # complement word == flipped crossings


def test_render_produces_valid_svg():
    for word in ("1", "101", "1010", "1001101"):
        doc = render_svg(word)
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        strands = [el for el in lines if el.get("class") == "strand"]
        # each crossing splits one strand piece in two, plus closure pieces
        geom = billiard_geometry(len(word))
        closure_pieces = 3 if geom.vertices[-1] == (geom.width, 0) else 4
        expected = len(geom.segments) + len(word) + closure_pieces
        assert len(strands) == expected


def test_under_strand_has_gap():
    doc = render_svg("1")
    # word "1": positive strand over, so the negative-slope strand is cut
    assert doc.count("strand") >= 4


def test_render_rejects_bad_words():
    with pytest.raises(ValueError):
        render_svg("10a")
