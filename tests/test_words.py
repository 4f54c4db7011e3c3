import pytest
from hypothesis import given, strategies as st

from billiardknots import selfcheck
from billiardknots.oracle import all_words, reduce_by_moves
from billiardknots.words import (
    CHIRAL,
    EXTERNAL_PREFIX,
    EXTERNAL_SUFFIX,
    INTERNAL,
    INTERNAL_REDUCED_ONLY,
    NOT_INTERNAL_REDUCED,
    REDUCED,
    UNKNOT_CLASS,
    UNKNOT_FORMS,
    ReductionMove,
    RunDecomposition,
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
    runs,
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


# ---------------------------------------------------------------- runs

def test_runs_examples():
    assert runs("1010010") == RunDecomposition(1, (1, 1, 1, 2, 1, 1))
    assert runs("1010010").count == 6
    assert runs("") == RunDecomposition(0, ())
    assert runs("000") == RunDecomposition(0, (3,))


@given(binary_words)
def test_runs_roundtrip(w):
    r = runs(w)
    assert r.word() == w
    assert sum(r.run_lengths) == len(w)
    assert all(n >= 1 for n in r.run_lengths)


def test_runs_rejects_garbage():
    with pytest.raises(ValueError):
        runs("10x01")


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
    r = runs(w)
    fast = RunDecomposition(*reduce_runs(r.first_bit, r.run_lengths)).word()
    assert fast == reduce(w) == reduce_by_moves(w)


def test_reduce_runs_agrees_exhaustively():
    _, ok, detail = selfcheck.check_reduce_engines(11)
    assert ok, detail


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
    first = draw(st.sampled_from("01"))
    inner = draw(st.lists(st.integers(1, 2), min_size=1, max_size=8))
    lengths = (1, *inner, 1)
    return RunDecomposition(int(first), lengths).word()


@given(reduced_word_strategy())
def test_symmetry_involutions(w):
    assert complement(complement(w)) == w
    assert reverse(reverse(w)) == w
    assert resize(resize(w)) == w
    assert is_reduced(resize(w)) == REDUCED


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
