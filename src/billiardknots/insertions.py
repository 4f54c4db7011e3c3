"""Canonical triple insertions: location sets, reconstruction, membership.

Inserting triples (000/111 anywhere; 001/110 as a prefix; 011/100 as a
suffix) is the inverse of the reduction moves in billiardknots.words.  Every
word reachable from w by internal insertions is pinned down by the set of
locations of a canonical insertion sequence; a stack machine reconstructs
the word from that set, or reports that the set is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .words import (
    PREFIX_TRIPLES,
    REDUCED,
    SUFFIX_TRIPLES,
    Word,
    check_word,
    is_reduced,
)


@dataclass(frozen=True)
class LocationSet:
    """Strictly increasing insertion locations, at most `capacity` of them."""

    locations: tuple[int, ...]
    capacity: int

    def __post_init__(self):
        locs = self.locations
        if any(x < 1 for x in locs) or any(a >= b for a, b in zip(locs, locs[1:])):
            raise ValueError(f"locations must be strictly increasing and >= 1: {locs}")
        if self.capacity < 0 or len(locs) > self.capacity:
            raise ValueError(f"{len(locs)} locations exceed capacity {self.capacity}")

    def to_json(self) -> list[int]:
        return list(self.locations)


def _location_tuple(locations) -> tuple[int, ...]:
    if isinstance(locations, LocationSet):
        return locations.locations
    return tuple(sorted(set(int(x) for x in locations)))


@dataclass(frozen=True)
class TraceStep:
    index: int
    in_locations: bool
    letter: str
    stack: str  # contents after the step, top first

    def to_json(self) -> dict:
        return {
            "i": self.index,
            "in_L": self.in_locations,
            "letter": self.letter,
            "stack": self.stack,
        }


@dataclass(frozen=True)
class ReconstructionTrace:
    """Full step-by-step record of one reconstruction run."""

    base: Word
    capacity: int
    locations: tuple[int, ...]
    steps: tuple[TraceStep, ...]
    word: Optional[Word]  # the reconstructed word, or None on failure

    @property
    def success(self) -> bool:
        return self.word is not None

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "m": self.capacity,
            "locations": list(self.locations),
            "steps": [s.to_json() for s in self.steps],
            "success": self.success,
            "word": self.word,
        }


def reconstruct(w: Word, m: int, locations) -> ReconstructionTrace:
    """Rebuild the word whose canonical insertion locations are `locations`.

    The stack starts holding w with its first letter on top.  Step i first
    checks membership of i in the location set: if present, it peeks at the
    top (an empty stack reads 0) and pushes three copies of the opposite
    letter.  Then one letter is popped (an empty stack pops 0) and written
    as the i-th output letter.  The run succeeds iff the stack is empty
    after step 3*m + len(w); popped-from-empty zeros model 000 blocks
    appended at the end, which carry no location of their own.
    """
    check_word(w)
    if m < 0:
        raise ValueError("m must be nonnegative")
    locs = _location_tuple(locations)
    size = 3 * m + len(w)
    if len(locs) > m:
        raise ValueError(f"{len(locs)} locations exceed m={m}")
    if locs and (locs[0] < 1 or locs[-1] > size):
        raise ValueError(f"locations {locs} outside 1..{size}")

    wanted = set(locs)
    stack = list(reversed(w))  # stack[-1] is the top
    out = []
    steps = []
    for i in range(1, size + 1):
        hit = i in wanted
        if hit:
            top = stack[-1] if stack else "0"
            other = "1" if top == "0" else "0"
            stack += [other, other, other]
        letter = stack.pop() if stack else "0"
        out.append(letter)
        steps.append(TraceStep(i, hit, letter, "".join(reversed(stack))))
    word = "".join(out) if not stack else None
    return ReconstructionTrace(w, m, locs, tuple(steps), word)


def location_map(w: Word, w_prime: Word) -> Optional[LocationSet]:
    """Canonical insertion locations taking w to w_prime, if any.

    Runs the reconstruction stack in reverse: reading w_prime while
    consuming w, a mismatch with the expected next letter must open a new
    inserted triple, whose location is recorded.  Returns None when
    w_prime is not reachable from w by internal insertions.
    """
    check_word(w)
    check_word(w_prime)
    diff = len(w_prime) - len(w)
    if diff < 0 or diff % 3:
        raise ValueError(
            f"length {len(w_prime)} is not len({w!r}) plus a multiple of 3"
        )
    m = diff // 3
    stack = list(reversed(w))
    locs = []
    for i, ch in enumerate(w_prime, start=1):
        top = stack[-1] if stack else "0"
        if ch == top:
            if stack:
                stack.pop()
        else:
            locs.append(i)
            stack += [ch, ch]  # the third copy is the letter just written
    if stack or len(locs) > m:
        return None
    return LocationSet(tuple(locs), m)


def is_feasible(size: int, locations) -> bool:
    """Whether a location set can be realized within {1..size}.

    Feasible means every suffix of {1..size} contains at least twice as
    many non-locations as locations; exactly the sets on which
    reconstruct() succeeds (for any base word of the matching length).
    """
    if size < 1:
        raise ValueError("size must be positive")
    locs = set(_location_tuple(locations))
    if locs and (min(locs) < 1 or max(locs) > size):
        raise ValueError(f"locations outside 1..{size}: {sorted(locs)}")
    inside = outside = 0
    for t in range(size, 0, -1):
        if t in locs:
            inside += 1
        else:
            outside += 1
        if 2 * inside > outside:
            return False
    return True


@dataclass(frozen=True)
class ExternalDecomposition:
    """A word peeled as prefix^i . base . suffix^j plus leftover internal budget."""

    prefix: Optional[str]
    prefix_count: int
    suffix: Optional[str]
    suffix_count: int
    internal_count: int

    @property
    def external_count(self) -> int:
        return self.prefix_count + self.suffix_count


def _stagings(
    w: Word, e: int, internal_count: int
) -> Iterator[tuple[ExternalDecomposition, Word]]:
    """Yield (decomposition, prefix^i . w . suffix^j) for every i + j == e.

    Search order: prefix count ascending, affixes in lexicographic order.
    """
    for i in range(e + 1):
        j = e - i
        for p in PREFIX_TRIPLES if i else (None,):
            for s in SUFFIX_TRIPLES if j else (None,):
                staged = (p or "") * i + w + (s or "") * j
                yield ExternalDecomposition(p, i, s, j, internal_count), staged


def decompose_external(w: Word, w_double: Word) -> Optional[ExternalDecomposition]:
    """Unique reading of w_double as repeated external insertions around w.

    w must be reduced or empty.  For reduced w the decomposition is unique;
    for the empty word the first hit in the deterministic search order
    (prefix count ascending, affixes in lexicographic order) is returned.
    Returns None when no such reading exists.
    """
    check_word(w)
    check_word(w_double)
    if w != "" and is_reduced(w) != REDUCED:
        raise ValueError(f"base word must be reduced or empty, got {w!r}")
    diff = len(w_double) - len(w)
    if diff < 0 or diff % 3:
        return None
    for decomposition, staged in _stagings(w, diff // 3, 0):
        if staged == w_double:
            return decomposition
    return None


def witnesses(
    w: Word, m: int, w_prime: Word
) -> list[tuple[ExternalDecomposition, LocationSet]]:
    """All staged derivations of w_prime from w by m insertions.

    A staging does all external insertions first (collapsed to the form
    prefix^i . w . suffix^j) and the remaining m - i - j insertions
    internally.  For reduced w there is at most one staging.
    """
    check_word(w_prime)
    if w != "" and is_reduced(w) != REDUCED:
        raise ValueError(f"base word must be reduced or empty, got {w!r}")
    if m < 0 or len(w_prime) != len(w) + 3 * m:
        raise ValueError(
            f"expected a word of length {len(w) + 3 * m}, got {len(w_prime)}"
        )
    found = []
    for e in range(m + 1):
        for decomposition, staged in _stagings(w, e, m - e):
            loc = location_map(staged, w_prime)
            if loc is not None:
                found.append((decomposition, loc))
    return found


def member(w: Word, m: int, w_prime: Word) -> bool:
    """Whether w_prime arises from w by exactly m insertions of any kind."""
    return bool(witnesses(w, m, w_prime))
