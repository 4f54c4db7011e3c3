import random
import time
from itertools import groupby, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from billiardknots import selfcheck
from billiardknots.oracle import all_words, reduce_by_moves
from billiardknots.sampler import row_crossings
from billiardknots.words import (
    CHIRAL,
    EXTERNAL_PREFIX,
    EXTERNAL_SUFFIX,
    INTERNAL,
    INTERNAL_REDUCED_ONLY,
    KnotClass,
    MIRROR_IDENTIFIED,
    NOT_INTERNAL_REDUCED,
    REDUCED,
    UNKNOT_CLASS,
    UNKNOT_FORMS,
    ReductionMove,
    apply_move,
    available_moves,
    complement,
    crossing_number,
    is_reduced,
    knot_class,
    reduce,
    reduce_runs,
    resize,
    reverse,
    symmetry_orbit,
)

binary_words = st.text(alphabet="01", max_size=40)


def reduced_words(max_len):
    for n in range(max_len + 1):
        for w in all_words(n):
            if is_reduced(w) == REDUCED:
                yield w


def reduced_knot_words(max_len):
    # reduced words of valid diagram lengths (0 or 1 mod 3)
    return (w for w in reduced_words(max_len) if len(w) % 3 != 2)


def _runs(w):
    """(letter, length) of each maximal run of w, from itertools.groupby."""
    return [(a, len(list(g))) for a, g in groupby(w)]


# ---------------------------------------------------------------- is_reduced

@pytest.mark.parametrize(
    "w,state",
    [
        ("1010010", REDUCED),
        ("101", REDUCED),
        ("0110", REDUCED),
        ("0011", INTERNAL_REDUCED_ONLY),
        ("0001", NOT_INTERNAL_REDUCED),
        ("", INTERNAL_REDUCED_ONLY),
        ("0", INTERNAL_REDUCED_ONLY),
        ("11", INTERNAL_REDUCED_ONLY),
        ("01", INTERNAL_REDUCED_ONLY),  # boundary fine but too short
        ("0100", INTERNAL_REDUCED_ONLY),  # last run has two letters
    ],
)
def test_is_reduced(w, state):
    assert is_reduced(w) == state


# ---------------------------------------------------------------- moves

def test_available_moves_examples():
    assert available_moves("10100") == [
        ReductionMove(EXTERNAL_SUFFIX, 3, "100")
    ]
    assert available_moves("101") == []
    assert available_moves("000101") == [ReductionMove(INTERNAL, 1, "000")]


def test_available_moves_ordering():
    moves = available_moves("0001110011")
    kinds = [(m.kind, m.position) for m in moves]
    assert kinds == [
        (INTERNAL, 1),
        (INTERNAL, 4),
        (EXTERNAL_SUFFIX, 8),
    ]
    # internal moves first, sorted by position, then prefix, then suffix
    moves = available_moves("001110100")
    assert [m.kind for m in moves] == [INTERNAL, EXTERNAL_PREFIX, EXTERNAL_SUFFIX]


def test_overlapping_internal_moves_all_listed():
    moves = available_moves("0000")
    assert [(m.position, m.deleted_triple) for m in moves] == [(1, "000"), (2, "000")]


def test_apply_move_examples():
    assert apply_move("000101", ReductionMove(INTERNAL, 1, "000")) == "101"
    assert apply_move("10100", ReductionMove(EXTERNAL_SUFFIX, 3, "100")) == "10"
    assert apply_move("0011", ReductionMove(EXTERNAL_PREFIX, 1, "001")) == "1"


def test_apply_move_rejects_illegal():
    with pytest.raises(ValueError):
        apply_move("101", ReductionMove(INTERNAL, 1, "000"))
    with pytest.raises(ValueError):
        apply_move("000101", ReductionMove(INTERNAL, 2, "000"))


# ---------------------------------------------------------------- reduce

@pytest.mark.parametrize(
    "w,terminal",
    [
        ("000101", "101"),
        ("0011", "1"),  # the prefix move wins over the suffix move
        ("100001001110", "101"),
        ("10100", "10"),
        ("", ""),
        ("00100", "00"),
    ],
)
def test_reduce_examples(w, terminal):
    assert reduce(w) == reduce_by_moves(w) == terminal


@given(binary_words)
def test_reduce_properties(w):
    t = reduce(w)
    assert len(t) % 3 == len(w) % 3
    assert available_moves(t) == []
    assert reduce(t) == t


@given(binary_words)
def test_reduce_runs_agrees_with_reduce(w):
    # the runs of w in, the runs of its terminal out, both read by groupby
    t = reduce(w)
    assert t == reduce_by_moves(w)
    lengths = [k for _, k in _runs(w)]
    assert reduce_runs(int(w[:1] or 0), lengths) == (
        int(t[:1] or 0), tuple(k for _, k in _runs(t)))


def test_reduce_engines_agree_exhaustively():
    ok, detail = selfcheck.check_reduce_engines(11)
    assert ok, detail


def test_reduce_runs_rejects_invalid_input():
    with pytest.raises(ValueError, match="first bit"):
        reduce_runs(2, (1, 1, 1))
    with pytest.raises(ValueError, match="first bit"):
        reduce_runs(-1, (1,))
    with pytest.raises(TypeError):
        reduce_runs(1, (1.5, 1))
    with pytest.raises(TypeError):
        reduce_runs(1.0, (1, 1))
    with pytest.raises(ValueError, match="positive"):
        reduce_runs(0, (1, 0, 1))


def test_reduce_runs_spells_long_runs_mod_3():
    assert reduce_runs(0, (10**9,)) == (0, (1,))  # one letter, not 10**9
    assert reduce_runs(1, (10**18, 2, 4, 10**12 + 2)) == (1, (1, 2, 1))


# the eight triples and single letters, so internal deletions nest deeply
stacked_words = st.lists(
    st.sampled_from(["".join(t) for t in product("01", repeat=3)] + ["0", "1"]),
    max_size=150,
).map("".join)


def _nested_word(k):
    # 000 wrapped k times as c + word + cc, c alternating 1, 0, 1, ...: the
    # 3k + 3 letters reduce to "", and each str.replace pass deletes one triple
    prefix = "".join("10"[i % 2] for i in range(k))
    return prefix[::-1] + "000" + "".join(c + c for c in prefix)


def _reduce_on_a_plain_stack(w):
    stack = []
    for ch in w:
        stack.append(ch)
        if stack[-3:] == [ch] * 3:
            del stack[-3:]
    start, end = 0, len(stack)
    while end - start >= 3 and stack[start] == stack[start + 1]:
        start += 3
    while end - start >= 3 and stack[end - 1] == stack[end - 2]:
        end -= 3
    return "".join(stack[start:end])


def test_reduce_stays_linear_on_nested_words():
    # repeating the replace pass until nothing changed would take ~50 000 passes here
    w = _nested_word(100_000)
    assert len(w) == 300_003
    assert w.replace("000", "").replace("111", "") == _nested_word(99_998)
    start = time.perf_counter()
    t = reduce(w)
    elapsed = time.perf_counter() - start
    assert t == _reduce_on_a_plain_stack(w) == ""
    assert elapsed < 5.0, f"reduce took {elapsed:.2f} s on {len(w)} nested letters"
    for k in range(30):
        u = "0" + _nested_word(k) + "1"
        assert reduce(u) == _reduce_on_a_plain_stack(u) == reduce_by_moves(u)


@given(stacked_words)
def test_reduce_on_deep_stacks(w):
    assert reduce(w) == reduce_by_moves(w)
    row = np.array([[int(ch) for ch in w]], dtype=np.uint8)
    assert crossing_number(w) == row_crossings(row)[0]


# ---------------------------------------------------------------- symmetries

def test_symmetry_examples():
    assert reverse("01001") == "10010"
    assert resize("010110") == "0110010"
    assert complement("101") == "010"


def test_resize_unknot_conventions():
    assert resize("") == "0"
    assert resize("0") == ""
    assert resize("1") == ""


def test_resize_rejects_non_reduced():
    with pytest.raises(ValueError):
        resize("0011")
    with pytest.raises(ValueError):
        resize("00")


@st.composite
def reduced_word_strategy(draw):
    first = draw(st.integers(0, 1))
    inner = draw(st.lists(st.integers(1, 2), min_size=1, max_size=8))
    return "".join(str((first + i) % 2) * k for i, k in enumerate((1, *inner, 1)))


@given(reduced_word_strategy())
def test_symmetry_involutions(w):
    assert complement(complement(w)) == w
    assert reverse(reverse(w)) == w
    assert resize(resize(w)) == w
    assert is_reduced(resize(w)) == REDUCED


def _reference_resize(w):
    """resize() spelled from w's runs: each inner run of length L gets 3 - L."""
    letters, lengths = zip(*_runs(w))
    resized = (1, *(3 - n for n in lengths[1:-1]), 1)
    return "".join(a * k for a, k in zip(letters, resized))


def test_resize_meets_the_run_length_reference():
    for w in reduced_words(16):
        assert resize(w) == _reference_resize(w), w


def _closure(w, mode):
    if mode == CHIRAL:
        generators = (reverse, lambda u: complement(_reference_resize(u)))
    else:
        generators = (complement, reverse, _reference_resize)
    orbit, frontier = {w}, [w]
    while frontier:
        u = frontier.pop()
        for g in generators:
            v = g(u)
            if v not in orbit:
                orbit.add(v)
                frontier.append(v)
    return orbit


@pytest.mark.parametrize("mode", [MIRROR_IDENTIFIED, CHIRAL])
def test_symmetry_orbit_is_the_closure_under_the_generators(mode):
    for w in reduced_knot_words(16):
        assert symmetry_orbit(w, mode) == _closure(w, mode), w


def test_resize_toggles_length_class():
    for w in reduced_knot_words(8):
        assert len(resize(w)) % 3 != len(w) % 3


# ---------------------------------------------------------------- knot classes

def test_trefoil_class():
    assert symmetry_orbit("101") == frozenset({"101", "010", "1001", "0110"})
    cls = knot_class("101")
    assert cls.canonical == "010"
    assert (cls.ell0, cls.ell1) == (3, 4)
    assert cls.multiplicity_r == 2
    assert cls.crossing_number == 3
    assert not cls.is_unknot


def test_figure_eight_class():
    cls = knot_class("1010")
    assert symmetry_orbit("1010") >= frozenset({"1010", "0101"})
    assert cls.ell1 == 4
    assert cls.multiplicity_r == 2
    assert cls.crossing_number == 4


def test_unknot_class():
    for w in ("", "0", "1", "00", "11", "0011", "000", "00100"):
        assert knot_class(w) == UNKNOT_CLASS
    assert UNKNOT_CLASS.crossing_number == 0
    assert (UNKNOT_CLASS.ell0, UNKNOT_CLASS.ell1) == (0, 1)
    assert UNKNOT_CLASS.multiplicity_r == 1  # the empty word alone


def test_chiral_mode_splits_trefoil():
    left = knot_class("101", CHIRAL)
    right = knot_class("010", CHIRAL)
    assert left != right
    assert left.canonical == "101" and right.canonical == "010"
    assert left.multiplicity_r == right.multiplicity_r == 1
    # mirror-identified merges them
    assert knot_class("101") == knot_class("010")


def test_chiral_mode_keeps_amphichiral_together():
    assert knot_class("1010", CHIRAL) == knot_class("0101", CHIRAL)


def test_knot_class_rejects_non_knot_words():
    with pytest.raises(ValueError):
        knot_class("01")
    with pytest.raises(ValueError):
        knot_class("01010")
    with pytest.raises(ValueError, match="unknown chirality mode 'mirror'"):
        knot_class("101", "mirror")


def test_class_invariant_under_symmetries_and_moves():
    for w in reduced_knot_words(7):
        cls = knot_class(w)
        assert knot_class(complement(w)) == cls
        assert knot_class(reverse(w)) == cls
        assert knot_class(resize(w)) == cls
        # single insertions of any triple preserve the class
        for pos in range(len(w) + 1):
            for triple in ("000", "111"):
                assert knot_class(w[:pos] + triple + w[pos:]) == cls
        for affixed in ("001" + w, "110" + w, w + "011", w + "100"):
            assert knot_class(affixed) == cls


def test_class_invariant_under_reduction_moves():
    for n in range(9):
        for w in all_words(n):
            if len(reduce(w)) % 3 == 2:
                continue
            cls = knot_class(w)
            for mv in available_moves(w):
                assert knot_class(apply_move(w, mv)) == cls


def test_reduced_length_range():
    # both orbit lengths sit in {c..2c-2} and differ mod 3
    for w in reduced_knot_words(8):
        cls = knot_class(w)
        c = cls.crossing_number
        assert c >= 3
        for ell in (cls.ell0, cls.ell1):
            assert c <= ell <= 2 * c - 2
        assert cls.ell0 % 3 == 0 and cls.ell1 % 3 == 1


def test_multiplicity_values():
    seen_mirror, seen_chiral = set(), set()
    for w in reduced_knot_words(8):
        seen_mirror.add(knot_class(w).multiplicity_r)
        seen_chiral.add(knot_class(w, CHIRAL).multiplicity_r)
    assert seen_mirror <= {1, 2, 4}
    assert seen_chiral <= {1, 2}
    assert 4 in seen_mirror  # fully asymmetric words exist by length 8
    assert 2 in seen_chiral


def _defined_class(t, mode):
    """The knot class of a terminal t, read from its reference closure."""
    if t in UNKNOT_FORMS:
        return UNKNOT_CLASS
    orbit = _closure(t, mode)
    by_residue = {0: [], 1: []}
    for u in orbit:
        by_residue[len(u) % 3].append(u)
    r = len(by_residue[0])
    assert r == len(by_residue[1]), t
    canonical = min(orbit, key=lambda u: (len(u), u))
    return KnotClass(canonical=canonical, ell0=len(by_residue[0][0]),
                     ell1=len(by_residue[1][0]), multiplicity_r=r,
                     crossing_number=len(_runs(canonical)), is_unknot=False)


@pytest.mark.parametrize("mode", [MIRROR_IDENTIFIED, CHIRAL])
def test_knot_class_meets_its_definition(mode):
    defined = {}
    for n in range(14):
        for w in all_words(n):
            t = reduce_by_moves(w)
            if len(t) % 3 == 2 and t not in UNKNOT_FORMS:
                with pytest.raises(ValueError):
                    knot_class(w, mode)
                continue
            if t not in defined:
                defined[t] = _defined_class(t, mode)
            assert knot_class(w, mode) == defined[t], w


def test_knot_class_json():
    data = knot_class("101").to_json()
    assert data == {
        "canonical": "010",
        "ell0": 3,
        "ell1": 4,
        "r": 2,
        "crossing_number": 3,
        "is_unknot": False,
    }


# ---------------------------------------------------------------- crossing number

@pytest.mark.parametrize(
    "w,c",
    [("101", 3), ("1010", 4), ("1010010", 6), ("0011", 0), ("", 0), ("000000", 0)],
)
def test_crossing_number(w, c):
    assert crossing_number(w) == c


def test_unknot_forms_have_no_moves_or_crossings():
    for w in UNKNOT_FORMS:
        assert crossing_number(w) == 0


@pytest.mark.parametrize("n", [999, 1000, 9999, 10000, 99999, 100000])
def test_crossing_number_of_long_words(n):
    rng = random.Random(n)
    for _ in range(3):
        w = "".join(rng.choices("01", k=n))
        count = len(_runs(reduce(w)))
        assert crossing_number(w) == (count if count > 1 else 0)
        for mode in (MIRROR_IDENTIFIED, CHIRAL):
            assert knot_class(w, mode).crossing_number == crossing_number(w)
