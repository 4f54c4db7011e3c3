"""Seeded Monte Carlo over uniform random words, for large lengths.

Words are drawn from Philox, a counter-based generator, with one substream
per worker keyed by (seed, worker index).  Reports are therefore a pure
function of (n, count, seed, workers) and merging worker histograms is
order-independent.

A batch of letters is the top bit of each byte of raw 32-bit Philox
words, low byte first.  That is bit for bit what
Generator.integers(0, 2, dtype=np.uint8) returns: it takes the bytes of
the same words in the same order and keeps (byte * 2) >> 8, Lemire's
bounded method with range 2, which rejects no byte since (255 - 1) mod 2
is 0.  The raw words skip numpy's per-byte loop.

The drawn words are reduced in lockstep: row_crossings walks the n letter
columns once over a block of up to 4096 words with numpy, each word
keeping its stack of run lengths in its own letter cells, so the Python
loop runs n times per block, not once per letter of every word.  The
columns are read from contiguous slabs of _SLAB columns, each copied just
before the walk reaches it: after j0 columns a stack holds at most j0
runs, so no stack has yet written over a copied column.  On a 2-vCPU
machine sample_pmf draws and reduces about 2.6 million words/s at n = 30
and 255 thousand at n = 300.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .words import check_count, check_length

if TYPE_CHECKING:  # distributions loads only where a caller builds the exact pmf
    from .distributions import CrossingPmf

_BATCH = 4096
# draws of fewer letters than this are held and walked together
_BLOCK_CELLS = 1 << 22
# row_crossings reads this many letter columns at a time from a C-ordered
# copy: the smallest of 32, 64, 128 and 256 within 2% of the fastest
_SLAB = 32


class SampleReport(NamedTuple):
    n: int
    sample_count: int
    seed: int
    workers: int
    counts: dict[int, int]  # crossing number -> occurrences
    tv_distance_to_exact: Optional[float] = None

    @property
    def empirical(self) -> dict[int, float]:
        """Observed frequencies by crossing number (empty map for zero samples)."""
        if self.sample_count == 0:
            return {}
        return {c: k / self.sample_count for c, k in sorted(self.counts.items())}

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "count": self.sample_count,
            "seed": self.seed,
            "workers": self.workers,
            "empirical": {str(c): f for c, f in self.empirical.items()},
        }
        if self.tv_distance_to_exact is not None:
            out["tv_distance_to_exact"] = self.tv_distance_to_exact
        return out


def _substream(seed: int, worker: int) -> np.random.Generator:
    key = np.array([seed, worker], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def row_crossings(rows: np.ndarray) -> np.ndarray:
    """Crossing number of every row of a (rows, n) array of 0/1 letters.

    Equals words.crossing_number of each row read as a word.  The letter
    columns are pushed in lockstep onto one run-length stack per row (the
    internal moves of words.reduce's letter stack, kept as runs: a run that
    reaches three letters is popped), then the external prefix and suffix
    moves trim both ends.  After column j a row's stack holds at most j + 1
    runs, so it lives in the row's own cells, over letters already read:
    C-ordered, writeable uint8 rows are overwritten, other rows are copied.
    The letters are read from a C-ordered copy of the next _SLAB columns,
    made when the walk reaches them: after j0 columns a stack holds at most
    j0 runs, so it has not touched column j0 yet.  The copy costs rows x
    _SLAB bytes, reused from slab to slab.
    """
    batch, n = rows.shape
    cells = np.require(rows, np.uint8, ["C", "W"])
    stack = cells.reshape(-1)  # row r: r*n .. r*n+n-1
    base = np.arange(batch, dtype=np.intp) * n
    top = base - 1  # each row's top cell; below base when its stack is empty
    bit = np.zeros(batch, dtype=np.uint8)  # the letter of each top run
    same = np.empty(batch, dtype=bool)
    slab = np.empty((min(n, _SLAB), batch), dtype=np.uint8)  # columns, C-ordered
    for j0 in range(0, n, _SLAB):
        letters = slab[: min(_SLAB, n - j0)]
        np.copyto(letters, cells[:, j0:j0 + len(letters)].T)
        for letter in letters:
            np.equal(letter, bit, out=same)
            same &= top >= base
            top += ~same  # a new run starts one cell up
            length = stack[top]
            length *= same
            length += 1
            full = length == 3
            np.bitwise_xor(letter, full, out=bit)  # the runs below alternate
            stack[top] = length
            top -= full
    first, last = base.copy(), top
    _external_moves(stack, first, last, 1)
    _external_moves(stack, first, last, -1)
    count = last - first + 1
    return np.where(count > 1, count, 0)


def _external_moves(stack, first, last, step) -> None:
    """Apply every external move at one end of each row's stack, in place.

    step = 1 moves the first cell (prefix moves), step = -1 the last cell
    (suffix moves).  A move needs two runs and a run of 2 at that end: it
    deletes the run and one letter of the next, and the next run too if it
    empties.  Each further move needs a run of 2 at the new end, so few
    rounds run.
    """
    end = first if step == 1 else last
    live = np.arange(first.size)
    while True:
        live = live[last[live] > first[live]]
        live = live[stack[end[live]] == 2]
        if not live.size:
            return
        cell = end[live] + step
        stack[cell] -= 1
        end[live] = cell + step * (stack[cell] == 0)


def _draws(n: int, count: int, seed: int, workers: int):
    """Every worker's (batch, n) letter arrays, one worker after another.

    Worker w draws its quota from its own substream, in batches of at most
    _BATCH rows; earlier workers take the remainder of count / workers.
    Each batch is the top bit of each byte of ceil(rows * n / 4) raw 32-bit
    words, which equals rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
    (see the module docstring).
    """
    base, extra = divmod(count, workers)
    for worker in range(min(workers, count)):  # the others draw nothing
        rng = _substream(seed, worker)
        remaining = base + (worker < extra)
        while remaining:
            batch = min(_BATCH, remaining)
            raw = rng.integers(0, 1 << 32, size=-(-batch * n // 4), dtype=np.uint32)
            letters = raw.astype("<u4", copy=False).view(np.uint8)[: batch * n]
            letters >>= 7
            yield letters.reshape(batch, n)
            remaining -= batch


def _tally(histogram: Counter, draws: list) -> None:
    """Count the crossing numbers of the held rows (at least one) in one walk."""
    rows = draws[0] if len(draws) == 1 else np.concatenate(draws)
    values, counts = np.unique(row_crossings(rows), return_counts=True)
    histogram.update(dict(zip(values.tolist(), counts.tolist())))


def check_sample(n: int, count: int, seed: int, workers: int) -> tuple[int, ...]:
    """Validate sample_pmf's arguments; return n, count, seed and workers as ints."""
    n, count = check_length(n), check_count("count", count)
    seed, workers = operator.index(seed), operator.index(workers)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in 0 .. 2**64 - 1, got {seed}")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    return n, count, seed, workers


def sample_pmf(
    n: int,
    count: int,
    seed: int,
    workers: int = 1,
    exact: Optional[CrossingPmf] = None,
) -> SampleReport:
    """Draw `count` uniform words of length n and histogram crossing numbers.

    The count is split across workers (earlier workers take the remainder);
    each worker consumes its own Philox substream, so any scheduling of the
    workers reproduces the same report bit for bit.  The substreams run one
    after another in this process, so `workers` gives no parallel speed-up;
    it is there so that a report is reproducible for a given
    (n, count, seed, workers).  The seed is one 64-bit Philox key word, so
    it must lie in 0 .. 2**64 - 1.
    """
    n, count, seed, workers = check_sample(n, count, seed, workers)
    if exact is not None and exact.n != n:
        raise ValueError(f"exact pmf is for n={exact.n}, not n={n}")

    histogram: Counter[int] = Counter()
    block_rows = max(1, min(_BATCH, _BLOCK_CELLS // max(n, 1)))
    # draws wait for block_rows rows, so a small quota costs no walk of its own
    held: list[np.ndarray] = []
    held_rows = 0
    for rows in _draws(n, count, seed, workers):
        held.append(rows)
        held_rows += len(rows)
        if held_rows >= block_rows:
            _tally(histogram, held)
            held, held_rows = [], 0
    if held:
        _tally(histogram, held)

    tv = None
    if exact is not None and count > 0:
        empirical = {c: k / count for c, k in histogram.items()}
        tv = tv_distance(empirical, exact.as_float_dict())
    return SampleReport(n, count, seed, workers, dict(histogram), tv)


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance (1/2) * sum |p - q| over the union support."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(float(p.get(k, 0)) - float(q.get(k, 0))) for k in keys)
