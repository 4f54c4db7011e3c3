"""Brute-force ground truth: exhaustive enumeration of words and insertions.

Deliberately dumb.  These routines exist so that every closed formula and
clever algorithm in the package can be checked against direct enumeration
on small instances; they trade speed for obviousness and carry explicit
resource guards.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .words import (
    MIRROR_IDENTIFIED,
    PREFIX_TRIPLES,
    SUFFIX_TRIPLES,
    UNKNOT_CLASS,
    KnotClass,
    ResourceGuardError,  # re-exported: callers catch the guards from here
    Word,
    available_moves,
    check_count,
    check_guard,
    check_length,
    check_word,
    knot_class,
    reduce,
)

if TYPE_CHECKING:
    from .distributions import CrossingPmf

INTERNAL_ONLY = "internal-only"
ALL = "all"


class ExactDist(NamedTuple):
    """Knot counts over all 2**n words of length n."""

    n: int
    mode: str
    counts: dict[Word, int]  # canonical word of the class -> number of words
    classes: dict[Word, KnotClass]
    crossing_counts: dict[int, int]  # crossing number -> number of words

    @property
    def total(self) -> int:
        return 1 << self.n

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "total": str(self.total),
            "counts": {k: str(v) for k, v in sorted(self.counts.items())},
            "crossing_counts": {
                str(c): str(v) for c, v in sorted(self.crossing_counts.items())
            },
        }


def all_words(n: int) -> Iterator[Word]:
    """Every word of length n: word number v is the n-bit binary expansion of v."""
    for value in range(1 << n):
        yield format(value, f"0{n}b") if n else ""


def reduce_by_moves(w: Word) -> Word:
    """Reference reduction: delete one triple at a time until no move is left.

    Each step applies the leftmost internal move if one exists, then the
    prefix move, then the suffix move: the first of words.available_moves,
    found by str.find and the two end triples.  Quadratic in len(w);
    words.reduce must reach the same terminal.
    """
    check_word(w)
    while True:
        i, j = w.find("000"), w.find("111")
        if i >= 0 or j >= 0:
            i = j if i < 0 or 0 <= j < i else i
            w = w[:i] + w[i + 3 :]
        elif w[:3] in PREFIX_TRIPLES:
            w = w[3:]
        elif w[-3:] in SUFFIX_TRIPLES:
            w = w[:-3]
        else:
            return w


def crossing_pmf_by_double_sum(n: int) -> CrossingPmf:
    """Reference crossing pmf: the paper's double sum, one count_full per term.

    For each c, reduced words with c runs and k two-letter runs have length
    c + k; summing the word counts over admissible k (k <= c - 2 and
    c + k = n mod 3) and doubling for the two starting bits gives the word
    count at c.  About n**2/12 count_full calls, all on row n, averaging
    under two walk steps each; distributions.crossing_pmf must give the
    same counts.
    """
    # imported here, so that the enumeration commands load neither module
    from .counting import binomial, count_full
    from .distributions import CrossingPmf, knot_probability

    n = check_length(n)
    counts = {0: knot_probability(UNKNOT_CLASS, n).numerator}
    for c in range(3, n + 1):
        acc = 0
        k = (n - c) % 3
        while k <= c - 2 and n - c - k >= 0:
            acc += binomial(c - 2, k) * count_full((n - c - k) // 3, c + k)
            k += 3
        counts[c] = 2 * acc
    return CrossingPmf(n, counts)


def tally_terminals(n: int, *, max_n: int = 22) -> Counter:
    """Terminal-word counts over all 2**n words of a valid length n <= max_n.

    Words are streamed, so only the (small) set of distinct terminal words
    is ever held at once.
    """
    n = check_length(n)
    check_guard("n", n, max_n, "enumeration")
    return Counter(map(reduce, all_words(n)))


def classify_terminals(
    n: int, terminals: Counter, mode: str = MIRROR_IDENTIFIED
) -> ExactDist:
    """Group a terminal tally of length n into knot classes.

    Counts are grouped by the canonical word of each knot class and a
    crossing-number histogram is tallied alongside.  knot_class runs on
    every distinct terminal.
    """
    counts: dict[Word, int] = {}
    classes: dict[Word, KnotClass] = {}
    crossing: Counter[int] = Counter()
    for terminal, tally in terminals.items():
        cls = knot_class(terminal, mode)
        counts[cls.canonical] = counts.get(cls.canonical, 0) + tally
        classes[cls.canonical] = cls
        crossing[cls.crossing_number] += tally
    return ExactDist(n, mode, counts, classes, dict(crossing))


def exact_distribution(
    n: int, mode: str = MIRROR_IDENTIFIED, *, max_n: int = 22
) -> ExactDist:
    """Reduce every one of the 2**n words and tally the resulting knots."""
    return classify_terminals(check_length(n), tally_terminals(n, max_n=max_n), mode)


def enumerate_insertions(
    w: Word,
    m: int,
    scope: str = ALL,
    *,
    max_len: int = 8,
    max_insertions: int = 4,
) -> set[Word]:
    """All words reachable from w by exactly m single-triple insertions.

    scope INTERNAL_ONLY permits 000/111 at any position; scope ALL also
    permits the four external affixes.  Levels are deduplicated as they are
    built, breadth first.
    """
    check_word(w)
    if scope not in (INTERNAL_ONLY, ALL):
        raise ValueError(f"unknown scope {scope!r}")
    m = check_count("m", m)
    check_guard("len(word)", len(w), max_len, "insertions")
    check_guard("m", m, max_insertions, "insertions")
    level = {w}
    for _ in range(m):
        nxt = set()
        for u in level:
            for pos in range(len(u) + 1):
                head, tail = u[:pos], u[pos:]
                nxt.add(head + "000" + tail)
                nxt.add(head + "111" + tail)
            if scope == ALL:
                nxt.add("001" + u)
                nxt.add("110" + u)
                nxt.add(u + "011")
                nxt.add(u + "100")
        level = nxt
    return level


def all_terminal_words(w: Word, *, max_len: int = 13) -> set[Word]:
    """Terminal words over every possible order of reduction moves.

    A singleton answer on every input certifies that the rewriting system
    is confluent for that word; multi-element answers can only contain
    unknot leftovers.
    """
    check_word(w)
    check_guard("len(word)", len(w), max_len, "confluence")
    memo: dict[Word, frozenset] = {}

    def explore(u: Word) -> frozenset:
        cached = memo.get(u)
        if cached is not None:
            return cached
        moves = available_moves(u)
        if not moves:
            result = frozenset((u,))
        else:
            acc = set()
            for mv in moves:
                i = mv.position - 1
                acc |= explore(u[:i] + u[i + 3 :])
            result = frozenset(acc)
        memo[u] = result
        return result

    return set(explore(w))
