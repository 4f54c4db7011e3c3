from itertools import combinations

import pytest

from billiardknots import selfcheck
from billiardknots.insertions import (
    LocationSet,
    is_feasible,
    location_map,
    reconstruct,
)


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


@pytest.mark.parametrize("locations", [[1.5], [2.9], [2.0], ["2"], [1, "3"]])
def test_locations_must_be_integers(locations):
    # int() would read 1.5 as location 1, 2.9 as 2 and parse "2"
    with pytest.raises(TypeError):
        reconstruct("01", 1, locations)
    with pytest.raises(TypeError):
        is_feasible(4, locations)


def test_reconstruct_accepts_location_set_objects():
    loc = LocationSet((1, 5), 2)
    assert reconstruct("101", 2, loc).word == "000111101"


@pytest.mark.parametrize("locations, capacity, message", [
    ((0, 1), 2, "strictly increasing and >= 1"),
    ((5, 1), 2, "strictly increasing and >= 1"),
    ((2, 2), 2, "strictly increasing and >= 1"),
    ((1, 2, 3), 2, "3 locations exceed capacity 2"),
    ((), -1, "0 locations exceed capacity -1"),
])
def test_location_set_validation(locations, capacity, message):
    with pytest.raises(ValueError, match=message):
        LocationSet(locations, capacity)
    with pytest.raises(ValueError, match=message):
        LocationSet(locations=locations, capacity=capacity)


def test_location_set_stores_a_tuple_of_ints():
    loc = LocationSet([1, 5], 2)
    assert loc.locations == (1, 5) and type(loc.locations) is tuple
    assert hash(loc) == hash(LocationSet((1, 5), 2))
    trace = reconstruct("101", 2, loc)
    assert trace.locations == (1, 5) and type(trace.locations) is tuple
    assert type(LocationSet((), 2)._replace(locations=[1, 5]).locations) is tuple


@pytest.mark.parametrize("locations, capacity", [([1.5], 2), ([2.0], 2), (["2"], 2),
                                                 ((1,), 2.0)])
def test_location_set_fields_must_be_integers(locations, capacity):
    with pytest.raises(TypeError):
        LocationSet(locations, capacity)
    with pytest.raises(TypeError):
        LocationSet((), 2)._replace(locations=locations, capacity=capacity)


def test_location_set_is_immutable():
    loc = LocationSet((1, 5), 2)
    assert repr(loc) == "LocationSet(locations=(1, 5), capacity=2)"
    with pytest.raises(AttributeError):
        loc.capacity = 1


def test_location_set_replace_validates():
    loc = LocationSet((1, 5), 2)
    assert loc._replace(capacity=3) == LocationSet((1, 5), 3)
    with pytest.raises(ValueError, match="exceed capacity 1"):
        loc._replace(capacity=1)


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
    ok, detail = selfcheck.check_location_roundtrip(5, 3)
    assert ok, detail


# ---------------------------------------------------------------- feasibility

def test_is_feasible_examples():
    assert is_feasible(9, (1, 5))
    assert not is_feasible(9, (1, 8))
    assert is_feasible(9, ())
    assert is_feasible(4, ())


def test_is_feasible_bounds():
    with pytest.raises(ValueError, match=r"outside 1\.\.9$"):
        is_feasible(9, (10,))
    with pytest.raises(ValueError, match=r"outside 1\.\.9$"):
        reconstruct("101", 2, [0])  # the same range check
    with pytest.raises(ValueError):
        is_feasible(0, ())


def test_feasibility_equals_reconstruction_success():
    # success depends only on the location set and the total size
    ok, detail = selfcheck.check_feasibility(3, 3)
    assert ok, detail


def test_insertions_preserve_knot_class():
    ok, detail = selfcheck.check_class_invariance(2)
    assert ok, detail
