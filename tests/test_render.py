import hashlib
import itertools
import random
import xml.etree.ElementTree as ET

import pytest

from billiardknots.render import _geometry_and_strands, billiard_geometry, render_svg

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


def test_strands_are_the_two_segments_through_each_crossing():
    assert _geometry_and_strands(3)[1] == {
        (1, 1): [0, 3], (2, 2): [0, 5], (3, 1): [2, 5]}
    assert _geometry_and_strands(4)[1] == {
        (1, 1): [0, 5], (2, 2): [0, 3], (3, 1): [3, 6], (4, 2): [1, 6]}
    for n in (n for n in range(1, 201) if n % 3 != 2):
        geom, through = _geometry_and_strands(n)
        for point, strands in through.items():
            first, second = strands  # in the order the trajectory passes them
            assert first < second, (n, point)
            segments = geom.segments[first], geom.segments[second]
            assert _intersection(*segments) == point, (n, point)


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
    # the one length rule (words.check_length), then render's own n >= 1
    with pytest.raises(ValueError, match="n = 0 or 1 mod 3"):
        billiard_geometry(2)
    with pytest.raises(ValueError, match="a diagram needs n >= 1"):
        billiard_geometry(0)
    with pytest.raises(ValueError, match="a diagram needs n >= 1"):
        render_svg("")


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


# sha256 of render_svg(word) and render_svg(word, flip_crossings=True),
# recorded from the renderer that worked in exact fractions of table units
PINNED_SVG_SHA256 = {
    "1": ("af05a9baeb066391b56fbd3e8caff236e21e39a4f8837d88032dcc249a46daa0",
          "53d6ff627e64142b62dbe25ea8d8ece3a6e96438d0d475a199d9e7d4247065ed"),
    "101": ("88aeda8ca10461f351d6d486bb6671575f7372d03b327a9621af9628f56e8081",
            "96ca079e4b63959fa03b0221ab404e916eba51491b8ec6800dfb1b77e3273419"),
    "1010": ("63d3736f91f1fce66e7c9a6add1958ed78a92a69bcba9f6b2501dc7d8394a755",
             "529c18db65412c4bd7bc4f065838cec131994597b706ce5f55872e9241740504"),
    "1001101": ("f6e6fa7e4e6e3eb6d6e0c26f2946072a527e570cc4e4ca05d9e3bae36ed2a2cb",
                "848fef6ce384c5373946429914b6200e0cf72a7dc059948990e81e0e8644a1a3"),
    40: ("8063a56b79824a8af11ca0c298058ec0a214e2e1ae7a22afd79ab3e437b5789a",
         "1cbc06c8e84a7e95b727bce74b2d59242d79b21bbe0689fb43b57fa3a1540888"),
    301: ("b0bbd7842dc7d67df9bc7476503b2944abe3977b3ad4ec5047f086362fdd76ae",
          "6a0b278ae894b4881d193c008e0569ec0c4dc8c2841cc0b394a1e0e3fae3295a"),
    2001: ("8c8023779147ac888d1c88c3799f745e9c12cb37adccbb2fe833c0b77a33b202",
           "65feec96f585144f9c77e5811565556935256799cc8af913d08da4e4403a9e48"),
}


@pytest.mark.parametrize("key", list(PINNED_SVG_SHA256))
def test_render_bytes_are_pinned(key):
    # an int key n stands for a random word of n letters seeded with n
    word = key if isinstance(key, str) else "".join(
        random.Random(key).choice("01") for _ in range(key))
    digests = tuple(
        hashlib.sha256(render_svg(word, flip_crossings=flip).encode()).hexdigest()
        for flip in (False, True)
    )
    assert digests == PINNED_SVG_SHA256[key]


def _strand_lines(doc):
    return [
        tuple(float(el.get(k)) for k in ("x1", "y1", "x2", "y2"))
        for el in ET.fromstring(doc).iter()
        if el.tag.endswith("line") and el.get("class") == "strand"
    ]


def _on_diagonal(line, px, py, rise):
    """Whether line lies on the pixel line through (px, py) of slope rise."""
    x1, y1, x2, y2 = line
    return y1 - py == rise * (x1 - px) and y2 - py == rise * (x2 - px)


@pytest.mark.parametrize("flip", [False, True])
def test_under_strand_stops_8px_either_side_of_each_crossing(flip):
    # the README convention: a '1' puts the positive-slope strand on top,
    # and --flip-crossings inverts that.  A table point (x, y) is drawn at
    # pixel (40x + 60, 180 - 40y), so pixel y falls along a positive slope.
    for n in (n for n in range(1, 11) if n % 3 != 2):
        crossings = billiard_geometry(n).crossings
        for letters in itertools.product("01", repeat=n):
            word = "".join(letters)
            lines = _strand_lines(render_svg(word, flip_crossings=flip))
            for letter, (x, y) in zip(word, crossings):
                px, py = 40 * x + 60, 180 - 40 * y
                over_rise = -1 if (letter == "1") != flip else 1
                where = (word, flip, x)
                over = [ln for ln in lines if _on_diagonal(ln, px, py, over_rise)
                        and min(ln[0], ln[2]) < px < max(ln[0], ln[2])]
                assert len(over) == 1, where
                # the under-strand's pieces near the crossing: one stops 8 px
                # to its left and the next starts 8 px to its right
                under = sorted(
                    (min(ln[0], ln[2]), max(ln[0], ln[2])) for ln in lines
                    if _on_diagonal(ln, px, py, -over_rise)
                    and max(ln[0], ln[2]) >= px - 8 and min(ln[0], ln[2]) <= px + 8
                )
                assert len(under) == 2, where
                assert under[0][1] == px - 8 and under[1][0] == px + 8, where


def test_render_rejects_bad_words():
    with pytest.raises(ValueError):
        render_svg("10a")
