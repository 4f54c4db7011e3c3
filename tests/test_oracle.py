import random
from collections import Counter

import pytest

from billiardknots import selfcheck
from billiardknots.oracle import (
    ALL,
    INTERNAL_ONLY,
    ResourceGuardError,
    all_terminal_words,
    all_words,
    classify_terminals,
    enumerate_insertions,
    exact_distribution,
    reduce_by_moves,
    tally_terminals,
)
from billiardknots.words import (
    CHIRAL,
    MIRROR_IDENTIFIED,
    available_moves,
    knot_class,
    reduce,
)


# ---------------------------------------------------------------- exact distribution

def test_exact_distribution_tiny():
    dist = exact_distribution(3)
    assert dist.counts == {"": 6, "010": 2}
    assert dist.crossing_counts == {0: 6, 3: 2}
    assert dist.total == 8

    dist = exact_distribution(4)
    assert dist.counts == {"": 12, "010": 2, "0101": 2}

    assert exact_distribution(0).counts == {"": 1}


def test_exact_distribution_counts_sum_to_total():
    for n in (0, 1, 3, 4, 6, 7, 9, 10):
        dist = exact_distribution(n)
        assert sum(dist.counts.values()) == dist.total
        assert sum(dist.crossing_counts.values()) == dist.total


def test_exact_distribution_chiral_mode():
    dist = exact_distribution(3, CHIRAL)
    assert dist.counts == {"": 6, "101": 1, "010": 1}


def test_exact_distribution_guard_and_validation():
    with pytest.raises(ResourceGuardError):
        exact_distribution(24)
    assert exact_distribution(4, max_n=4).total == 16
    with pytest.raises(ResourceGuardError):
        exact_distribution(6, max_n=4)  # override tightens the guard
    with pytest.raises(ValueError):
        exact_distribution(5)
    with pytest.raises(ValueError):
        exact_distribution(-1)


def test_tally_terminals_checks_length_and_guard():
    assert tally_terminals(4) == Counter(map(reduce, all_words(4)))
    with pytest.raises(ValueError, match="invalid length 5"):
        tally_terminals(5)
    with pytest.raises(ResourceGuardError, match="^n=7 exceeds the enumeration guard 4$"):
        tally_terminals(7, max_n=4)


def test_orbit_shared_classes_equal_one_knot_class_per_terminal():
    for n in (n for n in range(15) if n % 3 != 2):
        terminals = tally_terminals(n)
        for mode in (MIRROR_IDENTIFIED, CHIRAL):
            counts, classes, crossing = {}, {}, {}
            for terminal, tally in terminals.items():
                cls = knot_class(terminal, mode)
                counts[cls.canonical] = counts.get(cls.canonical, 0) + tally
                classes[cls.canonical] = cls
                c = cls.crossing_number
                crossing[c] = crossing.get(c, 0) + tally
            dist = classify_terminals(n, terminals, mode)
            # in the same dict order as well
            assert list(dist.counts.items()) == list(counts.items()), (n, mode)
            assert list(dist.classes.items()) == list(classes.items()), (n, mode)
            assert list(dist.crossing_counts.items()) == list(crossing.items())
            assert dist == exact_distribution(n, mode)


def test_formulas_match_enumeration_small():
    # the acceptance suite covers the full range; keep a quick version here
    ok, detail = selfcheck.check_distribution((3, 4, 6, 7))
    assert ok, detail


# ---------------------------------------------------------------- insertion enumeration

def test_enumerate_insertions_examples():
    assert len(enumerate_insertions("101", 2, INTERNAL_ONLY)) == 26
    assert enumerate_insertions("101", 0, ALL) == {"101"}
    assert "100001001110" in enumerate_insertions("101", 3, INTERNAL_ONLY)


def test_enumerate_insertions_levels_have_uniform_length():
    for m in range(3):
        for w in enumerate_insertions("01", m, ALL):
            assert len(w) == 2 + 3 * m


def test_enumerate_insertions_guards():
    with pytest.raises(ResourceGuardError,
                       match=r"^len\(word\)=9 exceeds the insertions guard 8$"):
        enumerate_insertions("010101010", 1)  # base too long
    with pytest.raises(ResourceGuardError, match="^m=5 exceeds the insertions guard 4$"):
        enumerate_insertions("101", 5)  # too many insertions
    assert len(enumerate_insertions("010101010", 1, max_len=9)) > 0
    with pytest.raises(ValueError):
        enumerate_insertions("101", 1, "sideways")


def test_every_insertion_keeps_the_knot():
    ok, detail = selfcheck.check_class_invariance(2, ("101", "0101"))
    assert ok, detail


# ---------------------------------------------------------------- reduction orders

def _reduce_by_first_available_move(w):
    # the definition: apply the first move available_moves lists until none is left
    while moves := available_moves(w):
        i = moves[0].position - 1
        w = w[:i] + w[i + 3 :]
    return w


def test_reduce_by_moves_takes_the_first_available_move():
    every_word = (w for n in range(15) for w in all_words(n))
    rng = random.Random(14)
    long_words = ("".join(rng.choices("01", k=n))
                  for n in (50, 300, 1000) for _ in range(5))
    for w in (*every_word, *long_words):
        assert reduce_by_moves(w) == _reduce_by_first_available_move(w), w


def test_all_terminal_words_examples():
    assert all_terminal_words("0011") == {"0", "1"}
    assert all_terminal_words("000101") == {"101"}
    assert all_terminal_words("00100") == {"00"}


def test_all_terminal_words_guard():
    with pytest.raises(ResourceGuardError,
                       match=r"^len\(word\)=14 exceeds the confluence guard 13$"):
        all_terminal_words("0" * 14)
    assert all_terminal_words("0" * 14, max_len=14) == {"00"}


def test_confluence_up_to_length_8():
    # only unknot leftovers may be non-unique; reduce reaches a terminal
    ok, detail = selfcheck.check_confluence(8)
    assert ok, detail
