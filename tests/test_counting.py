from itertools import combinations

import pytest

from billiardknots import selfcheck
from billiardknots.counting import (
    _binomial_and_below,
    binomial,
    binomial_lt,
    count_full,
    count_full_row,
    count_internal,
    feasible_count,
)
from billiardknots.insertions import is_feasible
from billiardknots.oracle import ALL, INTERNAL_ONLY, all_words, enumerate_insertions
from billiardknots.words import REDUCED, is_reduced


def brute_feasible_count(size, s):
    return sum(
        1 for locs in combinations(range(1, size + 1), s) if is_feasible(size, locs)
    )


def reduced_words_of_length(ell):
    return (w for w in all_words(ell) if is_reduced(w) == REDUCED)


def test_binomial():
    assert binomial(9, 2) == 36
    assert binomial(9, -1) == 0
    assert binomial(0, 0) == 1
    assert binomial(5, 9) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_lt():
    assert binomial_lt(9, 2) == 10
    assert binomial_lt(6, 2) == 7
    assert binomial_lt(5, 0) == 0
    assert binomial_lt(5, -3) == 0
    assert binomial_lt(4, 99) == 16  # saturates at the full row sum
    for n in range(30):
        for m in range(-1, n + 3):
            assert binomial_lt(n, m) == sum(binomial(n, k) for k in range(m))
    # the cache sits on the pair that binomial_lt, count_full and count_internal share
    assert _binomial_and_below.cache_info().maxsize == 64  # bounded, not one entry per call


def test_feasible_count_examples():
    assert feasible_count(9, 2) == 18
    assert feasible_count(9, 0) == 1
    assert feasible_count(9, 1) == 7
    assert brute_feasible_count(9, 2) == 18
    assert brute_feasible_count(9, 1) == 7


def test_feasible_count_matches_brute_force():
    for size in range(1, 13):
        for s in range(size + 1):
            assert feasible_count(size, s) == brute_feasible_count(size, s), (size, s)


def test_feasible_count_clamps_to_zero():
    assert feasible_count(3, 2) == 0
    assert feasible_count(3, 1) == 1  # boundary size = 3s: Catalan-like count
    assert feasible_count(2, 1) == 0


def test_count_internal_examples():
    assert count_internal(3, 2) == 26
    for ell in range(8):
        assert count_internal(ell, 0) == 1
    assert count_internal(0, 1) == 2  # just 000 and 111


def test_count_internal_is_sum_of_feasible_counts():
    for ell in range(6):
        for m in range(5):
            size = 3 * m + ell
            if size == 0:
                continue
            assert count_internal(ell, m) == sum(
                feasible_count(size, s) for s in range(m + 1)
            )


def test_count_internal_matches_enumeration():
    assert count_internal(0, 1) == len(enumerate_insertions("", 1, INTERNAL_ONLY))
    assert enumerate_insertions("", 1, INTERNAL_ONLY) == {"000", "111"}
    assert count_internal(3, 2) == len(enumerate_insertions("101", 2, INTERNAL_ONLY))


def test_count_full_examples():
    for ell in range(10):
        assert count_full(0, ell) == 1
    assert count_full(1, 3) == 9
    assert count_full(1, 0) == 6
    assert enumerate_insertions("", 1, ALL) == {"000", "111", "001", "110", "011", "100"}
    assert len(enumerate_insertions("101", 1, ALL)) == 9


def test_count_full_matches_enumeration_small():
    bases = (*reduced_words_of_length(3), *reduced_words_of_length(4))
    _, ok, detail = selfcheck.check_insertion_counts(2, bases)
    assert ok, detail


def test_count_full_summation_form():
    # the pre-simplification form: internal count plus 4e staged external variants
    _, ok, detail = selfcheck.check_count_full_summation(8)
    assert ok, detail


def test_count_full_row_matches_count_full():
    _, ok, detail = selfcheck.check_count_full_row(60)
    assert ok, detail
    assert count_full_row(0) == [1]
    with pytest.raises(ValueError):
        count_full_row(-1)


def test_weighted_row_sum_identities():
    # both identities, cleared of fractions (factors 2 and 4)
    _, ok, detail = selfcheck.check_counting(24)
    assert ok, detail


def test_counts_nondecreasing_in_m():
    for ell in range(8):
        internal = [count_internal(ell, m) for m in range(10)]
        full = [count_full(m, ell) for m in range(10)]
        assert internal == sorted(internal)
        assert full == sorted(full)


def test_counts_reject_negative_arguments():
    with pytest.raises(ValueError):
        count_internal(-1, 0)
    with pytest.raises(ValueError):
        count_full(0, -1)
    with pytest.raises(ValueError):
        feasible_count(5, -1)
