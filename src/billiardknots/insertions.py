"""Canonical triple insertions: location sets, reconstruction, feasibility.

Inserting triples (000/111 anywhere; 001/110 as a prefix; 011/100 as a
suffix) is the inverse of the reduction moves in billiardknots.words.  Every
word reachable from w by internal insertions is pinned down by the set of
locations of a canonical insertion sequence; a stack machine reconstructs
the word from that set, or reports that the set is infeasible.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional

from .words import Word, check_count, check_word


class _LocationSetFields(NamedTuple):
    locations: tuple[int, ...]
    capacity: int


class LocationSet(_LocationSetFields):
    """Strictly increasing insertion locations, at most `capacity` of them."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, locations: tuple[int, ...], capacity: int):
        # a tuple keeps the set hashable; operator.index rejects 1.5 and "2"
        locs = tuple(map(operator.index, locations))
        capacity = operator.index(capacity)
        if any(x < 1 for x in locs) or any(a >= b for a, b in zip(locs, locs[1:])):
            raise ValueError(f"locations must be strictly increasing and >= 1: {locs}")
        if capacity < 0 or len(locs) > capacity:
            raise ValueError(f"{len(locs)} locations exceed capacity {capacity}")
        return super().__new__(cls, locs, capacity)


def _location_tuple(locations, size: int) -> tuple[int, ...]:
    """The distinct locations in increasing order; each must lie in 1..size."""
    if isinstance(locations, LocationSet):
        locs = locations.locations
    else:
        # operator.index rejects 1.5 and "2", which int() would turn into 1 and 2
        locs = tuple(sorted(set(map(operator.index, locations))))
    if locs and (locs[0] < 1 or locs[-1] > size):
        raise ValueError(f"locations {locs} outside 1..{size}")
    return locs


class TraceStep(NamedTuple):
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


class ReconstructionTrace(NamedTuple):
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
    checks whether i is in the location set: if it is, it peeks at the
    top (an empty stack reads 0) and pushes three copies of the opposite
    letter.  Then one letter is popped (an empty stack pops 0) and written
    as the i-th output letter.  The run succeeds iff the stack is empty
    after step 3*m + len(w); popped-from-empty zeros model 000 blocks
    appended at the end, which carry no location of their own.
    """
    check_word(w)
    m = check_count("m", m)
    size = 3 * m + len(w)
    locs = _location_tuple(locations, size)
    if len(locs) > m:
        raise ValueError(f"{len(locs)} locations exceed m={m}")

    wanted = set(locs)
    stack = w  # top first, as every TraceStep records it
    out = []
    steps = []
    for i in range(1, size + 1):
        hit = i in wanted
        if hit:  # an empty stack reads 0, so three 1s go on it
            stack = ("000" if stack[:1] == "1" else "111") + stack
        letter = stack[:1] or "0"
        stack = stack[1:]
        out.append(letter)
        steps.append(TraceStep(i, hit, letter, stack))
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
    locs = set(_location_tuple(locations, size))
    inside = outside = 0
    for t in range(size, 0, -1):
        if t in locs:
            inside += 1
        else:
            outside += 1
        if 2 * inside > outside:
            return False
    return True
