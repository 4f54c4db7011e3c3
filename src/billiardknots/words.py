"""Binary crossing words of 3-row billiard-table diagrams.

A word over {0,1} records the over/under choice at each of the n crossings
of the slope-one billiard trajectory in a 3 x (n+1) table, read left to
right.  Deleting certain letter triples does not change the knot, which
gives a rewriting system whose terminal words classify two-bridge knots.

All functions are pure; words are plain ASCII strings over '0'/'1' and the
empty word is "".
"""

from __future__ import annotations

from dataclasses import dataclass

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


class ResourceGuardError(RuntimeError):
    """Raised when an input would exceed its configured size guard."""


def check_word(w: Word) -> Word:
    """Validate that w is a string over {'0','1'}; return it unchanged."""
    if not isinstance(w, str) or w.strip("01"):
        raise ValueError(f"not a binary word: {w!r}")
    return w


@dataclass(frozen=True)
class RunDecomposition:
    """Maximal runs of a word: starting bit plus the run lengths in order."""

    first_bit: int
    run_lengths: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.run_lengths)

    def word(self) -> Word:
        """Rebuild the word the decomposition came from."""
        return _spell(self.first_bit, self.run_lengths)


def _run_lengths(w: Word) -> list[int]:
    """Maximal run lengths of a nonempty word that is already validated."""
    lengths = []
    current = 1
    for prev, ch in zip(w, w[1:]):
        if ch == prev:
            current += 1
        else:
            lengths.append(current)
            current = 1
    lengths.append(current)
    return lengths


def _spell(first_bit: int, run_lengths: tuple[int, ...]) -> Word:
    """The word with these run lengths whose first letter is first_bit."""
    bit = first_bit
    parts = []
    for n in run_lengths:
        parts.append(("1" if bit else "0") * n)
        bit ^= 1
    return "".join(parts)


def runs(w: Word) -> RunDecomposition:
    """Decompose w into maximal runs. The empty word has no runs (first_bit 0)."""
    if not check_word(w):
        return RunDecomposition(0, ())
    return RunDecomposition(int(w[0]), tuple(_run_lengths(w)))


def is_reduced(w: Word) -> str:
    """Classify w as REDUCED, INTERNAL_REDUCED_ONLY or NOT_INTERNAL_REDUCED.

    Reduced means: every run has length at most 2, the first and last runs
    have length exactly 1, and the word has at least 3 letters.  Short
    leftovers such as "", "0" or "00" are only reduced with respect to
    internal moves.
    """
    r = runs(w)
    if any(n > 2 for n in r.run_lengths):
        return NOT_INTERNAL_REDUCED
    if len(w) >= 3 and r.run_lengths[0] == 1 and r.run_lengths[-1] == 1:
        return REDUCED
    return INTERNAL_REDUCED_ONLY


@dataclass(frozen=True)
class ReductionMove:
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
    """Fully reduce w, in time linear in len(w).

    Runs reduce_runs on the runs of w and spells the result.  The terminal
    equals oracle.reduce_by_moves(w), the reference that applies the
    leftmost internal move if one exists, then the prefix move, then the
    suffix move.  It has no moves left and its length is congruent to
    len(w) mod 3.
    """
    if not check_word(w):
        return w
    return _spell(*reduce_runs(int(w[0]), _run_lengths(w)))


def reduce_runs(
    first_bit: int, run_lengths: list[int] | tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """Reduce a word given as run lengths, in time linear in the run count.

    Returns the run decomposition of the terminal word.  Produces exactly
    the same terminal as the move-by-move reference oracle.reduce_by_moves;
    internal deletions are order-independent as words, and the external
    stages are applied with the same priority (prefix before suffix).
    """
    # internal moves: one left-to-right pass with a run stack
    stack: list[list[int]] = []  # [bit, length], alternating bits
    bit = int(first_bit)
    for n in run_lengths:
        if n <= 0:
            raise ValueError("run lengths must be positive")
        if stack and stack[-1][0] == bit:
            stack[-1][1] += n
        else:
            stack.append([bit, n])
        if stack[-1][1] >= 3:
            stack[-1][1] %= 3
            if stack[-1][1] == 0:
                stack.pop()
        bit ^= 1

    # external prefix moves: first run "00"/"11" followed by a different letter
    start = 0
    end = len(stack)
    while end - start >= 2 and stack[start][1] == 2:
        start += 1
        stack[start][1] -= 1
        if stack[start][1] == 0:
            start += 1
    # external suffix moves, symmetric
    while end - start >= 2 and stack[end - 1][1] == 2:
        end -= 1
        stack[end - 1][1] -= 1
        if stack[end - 1][1] == 0:
            end -= 1

    trimmed = stack[start:end]
    if not trimmed:
        return 0, ()
    return trimmed[0][0], tuple(n for _, n in trimmed)


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
    r = runs(w)
    inner = tuple(3 - n for n in r.run_lengths[1:-1])
    return RunDecomposition(r.first_bit, (1,) + inner + (1,)).word()


@dataclass(frozen=True)
class KnotClass:
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


def symmetry_orbit(w: Word, mode: str = MIRROR_IDENTIFIED) -> frozenset[Word]:
    """Closure of reduce(w) under the symmetries allowed by the mode.

    Mirror-identified uses complement, reverse and resize.  Chiral mode uses
    only the chirality-preserving operations: reverse, and complement
    composed with resize (which still toggles the length class).
    """
    _check_mode(mode)
    t = reduce(w)
    if t in UNKNOT_FORMS:
        return frozenset(("", "0", "1"))
    if len(t) % 3 == 2:
        raise ValueError(
            f"{w!r} reduces to {t!r} of length 2 mod 3; "
            "the underlying trajectory is not a knot"
        )
    if mode == MIRROR_IDENTIFIED:
        generators = (complement, reverse, resize)
    else:
        generators = (reverse, lambda u: complement(resize(u)))
    orbit = {t}
    frontier = [t]
    while frontier:
        u = frontier.pop()
        for g in generators:
            v = g(u)
            if v not in orbit:
                orbit.add(v)
                frontier.append(v)
    return frozenset(orbit)


def knot_class(w: Word, mode: str = MIRROR_IDENTIFIED) -> KnotClass:
    """Identify the knot diagrammed by w (after full reduction).

    Any word reducing to one of the unknot leftovers maps to the single
    unknot class.  Words whose terminal length is 2 mod 3 do not come from
    valid diagrams and are rejected.
    """
    orbit = symmetry_orbit(w, mode)
    if "" in orbit:
        return UNKNOT_CLASS
    by_residue: dict[int, list[Word]] = {0: [], 1: []}
    for u in orbit:
        by_residue[len(u) % 3].append(u)
    r0, r1 = len(by_residue[0]), len(by_residue[1])
    if r0 != r1 or r0 == 0:
        raise AssertionError(f"orbit of {w!r} is unbalanced: {sorted(orbit)}")
    canonical = min(orbit, key=lambda u: (len(u), u))
    return KnotClass(
        canonical=canonical,
        ell0=len(by_residue[0][0]),
        ell1=len(by_residue[1][0]),
        multiplicity_r=r0,
        crossing_number=runs(canonical).count,
        is_unknot=False,
    )


def crossing_number(w: Word) -> int:
    """Crossing number of the knot: the run count of the terminal word.

    A terminal of at most one run is an unknot leftover (one of
    UNKNOT_FORMS) and has crossing number 0.
    """
    if not check_word(w):
        return 0
    count = len(reduce_runs(int(w[0]), _run_lengths(w))[1])
    return count if count > 1 else 0
