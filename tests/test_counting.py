import random
import sys
import threading
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from billiardknots import counting, selfcheck
from billiardknots.counting import (
    _binomial_and_below,
    binomial,
    binomial_lt,
    count_full,
    count_internal,
    feasible_count,
)
from billiardknots.distributions import ExactProb, knot_probability
from billiardknots.insertions import is_feasible
from billiardknots.oracle import ALL, INTERNAL_ONLY, all_words, enumerate_insertions
from billiardknots.words import REDUCED, UNKNOT_CLASS, check_length, is_reduced


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


@st.composite
def row_queries(draw):
    """(n, m) pairs with n <= 60 and m in -1..n+3; repeats of a length make
    the walks jump both up and down from the anchor."""
    lengths = draw(st.lists(st.integers(0, 60), min_size=1, max_size=4))
    return draw(st.lists(
        st.sampled_from(lengths).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(-1, n + 3))),
        max_size=40,
    ))


@given(row_queries())
def test_binomial_pairs_do_not_depend_on_query_order(queries):
    counting._anchor = (0, 0, 1, 0)
    for n, m in queries:
        below = sum(comb(n, k) for k in range(m))
        assert binomial_lt(n, m) == below, (n, m)
        if m >= 0:
            assert _binomial_and_below(n, m) == (comb(n, m), below), (n, m)


def test_binomial_pairs_stay_exact_under_threads():
    # more threads than cores and a short switch interval, over many lengths,
    # so walks from the anchor and replacements of it interleave
    rows = {n: [comb(n, k) for k in range(n + 1)] for n in range(80)}
    failures = []

    def query(seed):
        rng = random.Random(seed)
        try:
            for _ in range(30000):
                n = rng.randrange(80)
                m = rng.randint(0, n)
                if _binomial_and_below(n, m) != (rows[n][m], sum(rows[n][:m])):
                    failures.append((n, m))
        except Exception as exc:  # recorded here, since a thread would lose it
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


@pytest.mark.parametrize("n", [32768, 32769, 40000])
def test_binomial_pairs_across_the_one_digit_edge(n, monkeypatch):
    # up to n = 32768 each two-position step multiplies and divides by one
    # 30-bit digit, from 32769 on by two; the partial sum is checked by the
    # row's symmetry S(n, m) + S(n, n - m + 1) = 2**n, not by the walk itself
    m = n // 3
    below = (1 << n) - binomial_lt(n, n - m + 1)
    for m, below in ((m, below), (m + 1, below + comb(n, m))):  # both parities
        expected = (comb(n, m), below)
        monkeypatch.setattr(counting, "_anchor", (0, 0, 1, 0))
        assert _binomial_and_below(n, m) == expected, (n, m)  # cold
        for start in (m - 9, m + 9, m - 2, m + 2):  # anchors below and above m
            _binomial_and_below(n, start)
            assert _binomial_and_below(n, m) == expected, (n, m, start)


def test_feasible_count_examples():
    assert feasible_count(9, 2) == 18
    assert feasible_count(9, 0) == 1
    assert feasible_count(9, 1) == 7
    assert feasible_count(0, 0) == 1  # the empty range holds only the empty set
    assert feasible_count(0, 1) == 0
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
            assert count_internal(ell, m) == sum(
                feasible_count(3 * m + ell, s) for s in range(m + 1)
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
    # the weight n + 3 = count_full(1, n - 3) of the pmf's closed-form top counts
    for ell in range(5000):
        assert count_full(1, ell) == ell + 6, ell


def test_count_full_rejects_an_odd_doubled_value(monkeypatch):
    # C(4, 1) one too high: a = 9 is odd, so a * C(n, m) and the doubled value are odd
    true_pair = counting._binomial_and_below

    def binomial_one_too_high(n, m):
        binom, below = true_pair(n, m)
        return binom + 1, below

    monkeypatch.setattr(counting, "_binomial_and_below", binomial_one_too_high)
    odd = r"^count_full\(1, 1\): doubled value 23 is odd$"
    with pytest.raises(AssertionError, match=odd):
        count_full(1, 1)


def test_count_full_matches_enumeration_small():
    bases = (*reduced_words_of_length(3), *reduced_words_of_length(4))
    ok, detail = selfcheck.check_insertion_counts(2, bases)
    assert ok, detail


def test_count_full_summation_form():
    # the pre-simplification form: internal count plus 4e staged external variants
    ok, detail = selfcheck.check_count_full_summation(8)
    assert ok, detail


def test_binomial_and_partial_row_sum_equal_math_comb_on_every_walk():
    ok, detail = selfcheck.check_counting_identities(24)
    assert ok, detail


def test_counts_nondecreasing_in_m():
    for ell in range(8):
        internal = [count_internal(ell, m) for m in range(10)]
        full = [count_full(m, ell) for m in range(10)]
        assert internal == sorted(internal)
        assert full == sorted(full)


def test_counts_reject_negative_arguments():
    for fn, args, error, message in [
        (count_internal, (-1, 0), ValueError, "ell must be nonnegative"),
        (count_internal, (0, -1), ValueError, "m must be nonnegative"),
        (count_full, (0, -1), ValueError, "ell must be nonnegative"),
        (feasible_count, (5, -1), ValueError, "s must be nonnegative"),
        (feasible_count, (-1, 0), ValueError, "size must be nonnegative"),
        (binomial_lt, (-1, 1), ValueError, "n must be nonnegative"),
        (binomial, (5, 9.5), TypeError, "float"),
        (check_length, (1.5,), TypeError, "float"),
        (count_full, (1.0, 3), TypeError, "float"),
        (binomial_lt, (100.0, 30), TypeError, "float"),
        (knot_probability, (UNKNOT_CLASS, 3.0), TypeError, "float"),
    ]:
        anchor = counting._anchor
        with pytest.raises(error, match=message):
            fn(*args)
        assert counting._anchor == anchor
    assert type(count_full(2, 0)) is int and count_full(2, 0) == 36
    assert binomial_lt(100, 31) == sum(comb(100, j) for j in range(31))
    assert knot_probability(UNKNOT_CLASS, 3) == ExactProb(6, 3)
