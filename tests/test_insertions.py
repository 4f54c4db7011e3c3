from itertools import combinations

import pytest

from billiardknots import selfcheck
from billiardknots.insertions import (
    ExternalDecomposition,
    LocationSet,
    decompose_external,
    is_feasible,
    location_map,
    member,
    reconstruct,
    witnesses,
)
from billiardknots.oracle import ALL, all_words, enumerate_insertions


# ---------------------------------------------------------------- reconstruct

def test_reconstruct_success_trace():
    # the classic worked example: base 101, locations {1, 5}
    trace = reconstruct("101", 2, (1, 5))
    assert trace.success
    assert trace.word == "000111101"
    observed = [(s.index, s.in_locations, s.letter, s.stack) for s in trace.steps]
    assert observed == [
        (1, True, "0", "00101"),
        (2, False, "0", "0101"),
        (3, False, "0", "101"),
        (4, False, "1", "01"),
        (5, True, "1", "1101"),
        (6, False, "1", "101"),
        (7, False, "1", "01"),
        (8, False, "0", "1"),
        (9, False, "1", ""),
    ]


def test_reconstruct_failure_trace():
    # {1, 8} leaves letters stranded on the stack
    trace = reconstruct("101", 2, (1, 8))
    assert not trace.success
    assert trace.word is None
    observed = [(s.index, s.in_locations, s.letter, s.stack) for s in trace.steps]
    assert observed == [
        (1, True, "0", "00101"),
        (2, False, "0", "0101"),
        (3, False, "0", "101"),
        (4, False, "1", "01"),
        (5, False, "0", "1"),
        (6, False, "1", ""),
        (7, False, "0", ""),
        (8, True, "1", "11"),
        (9, False, "1", "1"),
    ]


def test_reconstruct_empty_location_set():
    trace = reconstruct("101", 1, ())
    assert trace.word == "101000"


def test_reconstruct_precondition_errors():
    with pytest.raises(ValueError):
        reconstruct("101", 1, (1, 5))  # two locations, m=1
    with pytest.raises(ValueError):
        reconstruct("101", 1, (7,))  # location beyond 3m+len
    with pytest.raises(ValueError):
        reconstruct("101", 1, (0,))  # locations are 1-based
    with pytest.raises(ValueError):
        reconstruct("101", -1, ())


def test_reconstruct_accepts_location_set_objects():
    loc = LocationSet((1, 5), 2)
    assert reconstruct("101", 2, loc).word == "000111101"


def test_location_set_validation():
    with pytest.raises(ValueError):
        LocationSet((5, 1), 2)
    with pytest.raises(ValueError):
        LocationSet((0, 1), 2)
    with pytest.raises(ValueError):
        LocationSet((1, 2, 3), 2)


# ---------------------------------------------------------------- location map

def test_location_map_examples():
    assert location_map("101", "000111101").locations == (1, 5)
    assert location_map("101", "101000").locations == ()
    assert location_map("101", "100001001110").locations == (3, 9)


def test_location_map_non_member():
    assert location_map("101", "000101011") is None  # the failing set {1,8}
    assert location_map("101", "101101") is None


def test_location_map_length_check():
    with pytest.raises(ValueError):
        location_map("101", "10110")
    with pytest.raises(ValueError):
        location_map("101", "10")


def test_location_map_inverts_reconstruct():
    for w in ("", "0", "101", "0110"):
        for m in range(3):
            size = 3 * m + len(w)
            for k in range(m + 1):
                for locs in combinations(range(1, size + 1), k):
                    trace = reconstruct(w, m, locs)
                    if trace.success:
                        assert location_map(w, trace.word).locations == locs


def test_injectivity_small():
    # no two distinct insertion products share a location set
    _, ok, detail = selfcheck.check_location_roundtrip(5, 3)
    assert ok, detail


# ---------------------------------------------------------------- feasibility

def test_is_feasible_examples():
    assert is_feasible(9, (1, 5))
    assert not is_feasible(9, (1, 8))
    assert is_feasible(9, ())
    assert is_feasible(4, ())


def test_is_feasible_bounds():
    with pytest.raises(ValueError):
        is_feasible(9, (10,))
    with pytest.raises(ValueError):
        is_feasible(0, ())


def test_feasibility_equals_reconstruction_success():
    # success depends only on the location set and the total size
    _, ok, detail = selfcheck.check_feasibility(3, 3)
    assert ok, detail


# ---------------------------------------------------------------- external staging

def test_decompose_external_examples():
    assert decompose_external("101", "001001101100") == ExternalDecomposition(
        "001", 2, "100", 1, 0
    )
    assert decompose_external("101", "101") == ExternalDecomposition(
        None, 0, None, 0, 0
    )
    assert decompose_external("", "001") == ExternalDecomposition(
        "001", 1, None, 0, 0
    )


def test_decompose_external_absent():
    assert decompose_external("101", "000101000") is None
    assert decompose_external("101", "1011") is None


def test_decompose_external_rejects_unreduced_base():
    with pytest.raises(ValueError):
        decompose_external("0011", "0010011")
    with pytest.raises(ValueError):
        decompose_external("0", "0010")


def test_decompose_external_unique_for_reduced_base():
    for w in ("101", "010", "1010", "10010"):
        for wp in enumerate_insertions(w, 2, ALL):
            dec = decompose_external(w, wp)
            if dec is None:
                continue
            rebuilt = (dec.prefix or "") * dec.prefix_count + w + (
                dec.suffix or ""
            ) * dec.suffix_count
            assert rebuilt == wp


# ---------------------------------------------------------------- membership

def test_member_examples():
    assert member("101", 3, "100001001110")
    assert member("101", 1, "001101")
    assert not member("101", 1, "101101")


def test_member_matches_enumeration():
    for w in ("101", "0101"):
        for m in range(3):
            reachable = enumerate_insertions(w, m, ALL)
            for wp in all_words(len(w) + 3 * m):
                assert member(w, m, wp) == (wp in reachable), (w, m, wp)


def test_member_validates_input():
    with pytest.raises(ValueError):
        member("0011", 1, "0011000")
    with pytest.raises(ValueError):
        member("101", 1, "1010")


def test_staging_witness_unique():
    for w in ("101", "1010"):
        for m in range(3):
            for wp in enumerate_insertions(w, m, ALL):
                found = witnesses(w, m, wp)
                assert len(found) == 1, (w, m, wp, found)
                dec, loc = found[0]
                assert dec.external_count + dec.internal_count == m
                assert len(loc.locations) <= dec.internal_count


def test_insertions_preserve_knot_class():
    _, ok, detail = selfcheck.check_class_invariance(2)
    assert ok, detail
