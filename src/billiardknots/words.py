"""Binary crossing words of 3-row billiard-table diagrams.

A word over {0,1} records the over/under choice at each of the n crossings
of the slope-one billiard trajectory in a 3 x (n+1) table, read left to
right.  Deleting certain letter triples does not change the knot, which
gives a rewriting system whose terminal words classify two-bridge knots.

reduce() is the one reduction engine.  Its terminals have runs of at most
two letters, so the resize, symmetry orbit and crossing number of a terminal
are read from its run tokens: one character per run, "a"/"b" for "00"/"11".

All functions are pure; words are plain ASCII strings over '0'/'1' and the
empty word is "".
"""

from __future__ import annotations

import operator
from typing import NamedTuple

Word = str

# chirality handling for knot classes
MIRROR_IDENTIFIED = "mirror-identified"
CHIRAL = "chiral"
_MODES = (MIRROR_IDENTIFIED, CHIRAL)

# reduction states
NOT_INTERNAL_REDUCED = "not_internal_reduced"
INTERNAL_REDUCED_ONLY = "internal_reduced_only"
REDUCED = "reduced"

# move kinds
INTERNAL = "internal"
EXTERNAL_PREFIX = "external-prefix"
EXTERNAL_SUFFIX = "external-suffix"

INTERNAL_TRIPLES = ("000", "111")
PREFIX_TRIPLES = ("001", "110")
SUFFIX_TRIPLES = ("011", "100")

#: terminal words that denote the unknot
UNKNOT_FORMS = ("", "0", "1", "00", "11")

_COMPLEMENT_TABLE = str.maketrans("01", "10")
# run tokens to the runs of the resized word: lengths 1 and 2 swap
_RESIZE_TABLE = str.maketrans({"0": "00", "1": "11", "a": "0", "b": "1"})


class ResourceGuardError(RuntimeError):
    """Raised when an input would exceed its configured size guard."""


def check_guard(label: str, value: int, limit: int, guard: str) -> None:
    """Raise ResourceGuardError, naming what was measured, if value > limit."""
    if value > limit:
        raise ResourceGuardError(f"{label}={value} exceeds the {guard} guard {limit}")


def check_count(label: str, value: int) -> int:
    """value as an int: a float raises TypeError, a negative ValueError."""
    value = operator.index(value)  # a float would turn exact counts into floats
    if value < 0:
        raise ValueError(f"{label} must be nonnegative")
    return value


def check_length(n: int) -> int:
    """Reject n < 0 and n == 2 mod 3: a 3 x (n+1) table then makes no knot."""
    n = operator.index(n)
    if n < 0 or n % 3 == 2:
        raise ValueError(f"invalid length {n}: need n >= 0 with n = 0 or 1 mod 3")
    return n


def check_word(w: Word) -> Word:
    """Validate that w is a string over {'0','1'}; return it unchanged."""
    if not isinstance(w, str) or w.strip("01"):
        raise ValueError(f"not a binary word: {w!r}")
    return w


def is_reduced(w: Word) -> str:
    """Classify w as REDUCED, INTERNAL_REDUCED_ONLY or NOT_INTERNAL_REDUCED.

    Reduced means: every run has length at most 2, the first and last runs
    have length exactly 1, and the word has at least 3 letters.  Short
    leftovers such as "", "0" or "00" are only reduced with respect to
    internal moves.
    """
    if "000" in check_word(w) or "111" in w:
        return NOT_INTERNAL_REDUCED
    if len(w) >= 3 and w[0] != w[1] and w[-2] != w[-1]:
        return REDUCED
    return INTERNAL_REDUCED_ONLY


class ReductionMove(NamedTuple):
    """Deletion of one triple. position is the 1-based index of its first letter."""

    kind: str
    position: int
    deleted_triple: str


def available_moves(w: Word) -> list[ReductionMove]:
    """All legal reduction moves on w.

    Internal moves come first in order of increasing position, then the
    external prefix move, then the external suffix move.
    """
    check_word(w)
    n = len(w)
    moves = [
        ReductionMove(INTERNAL, i + 1, w[i : i + 3])
        for i in range(n - 2)
        if w[i : i + 3] in INTERNAL_TRIPLES
    ]
    if n >= 3 and w[:3] in PREFIX_TRIPLES:
        moves.append(ReductionMove(EXTERNAL_PREFIX, 1, w[:3]))
    if n >= 3 and w[-3:] in SUFFIX_TRIPLES:
        moves.append(ReductionMove(EXTERNAL_SUFFIX, n - 2, w[-3:]))
    return moves


def apply_move(w: Word, mv: ReductionMove) -> Word:
    """Delete the triple named by mv, which must currently be legal on w."""
    if mv not in available_moves(w):
        raise ValueError(f"move {mv} is not legal on {w!r}")
    i = mv.position - 1
    return w[:i] + w[i + 3 :]


def reduce(w: Word) -> Word:
    """Fully reduce w, in time linear in len(w), on one letter stack.

    One C-level pass of str.replace first deletes every 000 and then every
    111 it sees.  Each of those deletions is an internal move, and internal
    deletion is confluent (the normal form in Z/3 * Z/3, which
    selfcheck.check_confluence audits), so the pass leaves the terminal
    unchanged; it is never repeated, which keeps the cost linear.  On the
    letter stack that follows, a letter that would make three equal letters
    on top deletes the pair under it instead (an internal move).  The
    external prefix and suffix moves then trim the ends of the stack by
    index.  The terminal equals oracle.reduce_by_moves(w), which applies
    the leftmost internal move first, then the prefix move, then the suffix
    move; it has no moves left and its length is congruent to len(w) mod 3.
    """
    stack = ["", ""]  # two sentinels no letter equals, so a top pair always exists
    for ch in check_word(w).replace("000", "").replace("111", ""):
        if stack[-1] == ch == stack[-2]:
            del stack[-2:]
        else:
            stack.append(ch)
    start, end = 2, len(stack)
    while end - start >= 3 and stack[start] == stack[start + 1]:
        start += 3
    while end - start >= 3 and stack[end - 1] == stack[end - 2]:
        end -= 3
    return "".join(stack[start:end])


def reduce_runs(
    first_bit: int, run_lengths: list[int] | tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """Reduce a word given as run lengths, for the benchmark's layer probe only.

    Each run is spelled with its length mod 3 (internal moves), reduce()
    reduces the word, and the terminal's (first bit, run lengths) are read
    from its run tokens: (0, ()) if it is empty.  The first bit must be 0
    or 1 and the lengths positive integers; a float raises TypeError.  No
    command calls it, and it goes with ROADMAP item 4's benchmark upkeep.
    """
    bit = operator.index(first_bit)
    if bit not in (0, 1):
        raise ValueError(f"first bit must be 0 or 1, got {first_bit!r}")
    lengths = [operator.index(n) for n in run_lengths]
    if any(n <= 0 for n in lengths):
        raise ValueError("run lengths must be positive")
    t = reduce("".join("01"[(bit + i) % 2] * (n % 3) for i, n in enumerate(lengths)))
    if not t:
        return 0, ()
    return int(t[0]), tuple(1 + (ch in "ab") for ch in _run_tokens(t))


def complement(w: Word) -> Word:
    """Flip every letter. The resulting word diagrams the mirror-image knot."""
    return check_word(w).translate(_COMPLEMENT_TABLE)


def reverse(w: Word) -> Word:
    """Read the word right to left; the knot is unchanged (orientation flips)."""
    return check_word(w)[::-1]


def resize(w: Word) -> Word:
    """Swap every internal run between lengths 1 and 2; mirrors the knot.

    Defined on reduced words (first and last runs stay at length 1) and on
    the unknot leftovers "", "0", "1", where it toggles between the empty
    word and a one-letter word by convention.
    """
    if w == "":
        return "0"
    if w in ("0", "1"):
        return ""
    if is_reduced(w) != REDUCED:
        raise ValueError(f"resize needs a reduced word, got {w!r}")
    return _resized(w)


def _run_tokens(w: Word) -> str:
    """One character per run of a word whose runs have at most two letters."""
    return w.replace("00", "a").replace("11", "b")


def _resized(w: Word) -> Word:
    """resize() of a reduced word: its inner run tokens swap lengths 1 and 2."""
    tokens = _run_tokens(w)
    return tokens[0] + tokens[1:-1].translate(_RESIZE_TABLE) + tokens[-1]


class KnotClass(NamedTuple):
    """A knot, as the symmetry orbit of its reduced word representations.

    ell0 and ell1 are the two reduced lengths (congruent to 0 and 1 mod 3),
    multiplicity_r the number of distinct reduced words at either length,
    and canonical the orbit minimum under (length, lexicographic) order.
    """

    canonical: Word
    ell0: int
    ell1: int
    multiplicity_r: int
    crossing_number: int
    is_unknot: bool

    def to_json(self) -> dict:
        return {
            "canonical": self.canonical,
            "ell0": self.ell0,
            "ell1": self.ell1,
            "r": self.multiplicity_r,
            "crossing_number": self.crossing_number,
            "is_unknot": self.is_unknot,
        }


UNKNOT_CLASS = KnotClass(
    canonical="", ell0=0, ell1=1, multiplicity_r=1, crossing_number=0, is_unknot=True
)


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown chirality mode {mode!r}; expected one of {_MODES}")


def _orbit_halves(w: Word, mode: str) -> tuple[frozenset[Word], frozenset[Word]]:
    """The symmetry orbit of reduce(w) as its forms at the terminal's length
    and its forms at the resized length (the other class mod 3).

    The symmetries commute, so the halves are spelled from the terminal t
    and its resize s: t, s and their complements when mirrors are
    identified, t and the complement of s when chiral, each also reversed.
    The unknot leftovers split as {""} and {"0", "1"}.
    """
    _check_mode(mode)
    t = reduce(w)
    if t in UNKNOT_FORMS:
        return frozenset(("",)), frozenset(("0", "1"))
    if len(t) % 3 == 2:
        raise ValueError(
            f"{w!r} reduces to {t!r} of length 2 mod 3; "
            "the underlying trajectory is not a knot"
        )
    s = _resized(t)
    if mode == CHIRAL:
        s = s.translate(_COMPLEMENT_TABLE)
        return frozenset((t, t[::-1])), frozenset((s, s[::-1]))
    tc, sc = t.translate(_COMPLEMENT_TABLE), s.translate(_COMPLEMENT_TABLE)
    return (frozenset((t, tc, t[::-1], tc[::-1])),
            frozenset((s, sc, s[::-1], sc[::-1])))


def symmetry_orbit(w: Word, mode: str = MIRROR_IDENTIFIED) -> frozenset[Word]:
    """Closure of reduce(w) under the symmetries allowed by the mode.

    Mirror-identified uses complement, reverse and resize.  Chiral mode uses
    only the chirality-preserving operations: reverse, and complement
    composed with resize (which still toggles the length class).  Every
    unknot leftover has the orbit {"", "0", "1"}.
    """
    same, other = _orbit_halves(w, mode)
    return same | other


def knot_class(w: Word, mode: str = MIRROR_IDENTIFIED) -> KnotClass:
    """Identify the knot diagrammed by w (after full reduction).

    Any word reducing to one of the unknot leftovers maps to the single
    unknot class.  Words whose terminal length is 2 mod 3 do not come from
    valid diagrams and are rejected.  The orbit's halves give the class:
    their lengths are ell0 and ell1, their common size r, and the least word
    of the shorter half is the canonical word.
    """
    same, other = _orbit_halves(w, mode)
    if "" in same:
        return UNKNOT_CLASS
    if len(same) != len(other):
        raise AssertionError(f"orbit of {w!r} is unbalanced: {sorted(same | other)}")
    lengths = len(next(iter(same))), len(next(iter(other)))
    canonical = min(same if lengths[0] < lengths[1] else other)
    ell0, ell1 = lengths if lengths[0] % 3 == 0 else lengths[::-1]
    # positional: a NamedTuple built by keywords costs about twice as much
    return KnotClass(canonical, ell0, ell1, len(same), len(_run_tokens(canonical)), False)


def crossing_number(w: Word) -> int:
    """Crossing number of the knot: the run count of the terminal word.

    reduce() leaves runs of at most two letters, so the run count is the
    number of run tokens.  A terminal of at most one run is an unknot
    leftover (one of UNKNOT_FORMS) and has crossing number 0.
    """
    count = len(_run_tokens(reduce(w)))
    return count if count > 1 else 0
