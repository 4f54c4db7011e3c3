"""Brute-force ground truth: exhaustive enumeration of words and insertions.

Deliberately dumb.  These routines exist so that every closed formula and
clever algorithm in the package can be checked against direct enumeration
on small instances; they trade speed for obviousness and carry explicit
resource guards.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .counting import binomial, count_full
from .distributions import CrossingPmf, ExactProb, check_length, knot_probability
from .words import (
    MIRROR_IDENTIFIED,
    UNKNOT_CLASS,
    KnotClass,
    ResourceGuardError,
    Word,
    available_moves,
    check_word,
    knot_class,
    reduce,
    symmetry_orbit,
)

INTERNAL_ONLY = "internal-only"
ALL = "all"


@dataclass
class ExactDist:
    """Knot counts over all 2**n words of length n."""

    n: int
    mode: str
    counts: dict[Word, int]  # canonical word of the class -> number of words
    classes: dict[Word, KnotClass] = field(repr=False)
    crossing_counts: dict[int, int] = field(default_factory=dict)

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
    prefix move, then the suffix move.  Quadratic in len(w); words.reduce
    and words.reduce_runs must reach the same terminal.
    """
    check_word(w)
    while True:
        moves = available_moves(w)
        if not moves:
            return w
        i = moves[0].position - 1
        w = w[:i] + w[i + 3 :]


def crossing_pmf_by_double_sum(n: int) -> CrossingPmf:
    """Reference crossing pmf: the paper's double sum, one count_full per term.

    For each c, reduced words with c runs and k two-letter runs have length
    c + k; summing the word counts over admissible k (k <= c - 2 and
    c + k = n mod 3) and halving the 2**n total for the two starting bits
    gives the mass.  About n**2/6 count_full calls, each a sum over row n;
    distributions.crossing_pmf must give the same masses.
    """
    check_length(n)
    masses = {}
    for c in range(3, n + 1):
        acc = 0
        k = (n - c) % 3
        while k <= c - 2 and n - c - k >= 0:
            acc += binomial(c - 2, k) * count_full((n - c - k) // 3, c + k)
            k += 3
        masses[c] = ExactProb(2 * acc, n)
    return CrossingPmf(n, knot_probability(UNKNOT_CLASS, n), masses)


def tally_terminals(n: int) -> Counter:
    """Terminal-word counts over all 2**n words of length n."""
    return Counter(map(reduce, all_words(n)))


def terminal_counts(n: int, *, max_n: int = 22) -> Counter:
    """tally_terminals(n) behind the length check and the enumeration guard.

    Words are streamed, so only the (small) set of distinct terminal words
    is ever held at once.
    """
    check_length(n)
    if n > max_n:
        raise ResourceGuardError(f"n={n} exceeds the enumeration guard {max_n}")
    return tally_terminals(n)


def classify_terminals(
    n: int, terminals: Counter, mode: str = MIRROR_IDENTIFIED
) -> ExactDist:
    """Group a terminal tally of length n into knot classes.

    Counts are grouped by the canonical word of each knot class and a
    crossing-number histogram is tallied alongside.  Every word of a
    symmetry orbit has the same class, so knot_class runs once per orbit
    and its answer is shared with the rest of the orbit.
    """
    known: dict[Word, KnotClass] = {}
    counts: dict[Word, int] = {}
    classes: dict[Word, KnotClass] = {}
    crossing: Counter[int] = Counter()
    for terminal, tally in terminals.items():
        cls = known.get(terminal)
        if cls is None:
            cls = knot_class(terminal, mode)
            known.update(dict.fromkeys(symmetry_orbit(terminal, mode), cls))
        counts[cls.canonical] = counts.get(cls.canonical, 0) + tally
        classes[cls.canonical] = cls
        crossing[cls.crossing_number] += tally
    return ExactDist(n, mode, counts, classes, dict(crossing))


def exact_distribution(
    n: int, mode: str = MIRROR_IDENTIFIED, *, max_n: int = 22
) -> ExactDist:
    """Reduce every one of the 2**n words and tally the resulting knots."""
    return classify_terminals(n, terminal_counts(n, max_n=max_n), mode)


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
    if m < 0:
        raise ValueError("m must be nonnegative")
    if len(w) > max_len or m > max_insertions:
        raise ResourceGuardError(
            f"enumerate_insertions({len(w)=}, {m=}) exceeds guard "
            f"({max_len=}, {max_insertions=})"
        )
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
    if len(w) > max_len:
        raise ResourceGuardError(f"word length {len(w)} exceeds guard {max_len}")
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
