"""Seeded Monte Carlo over uniform random words, for large lengths.

Words are drawn from Philox, a counter-based generator, with one substream
per worker keyed by (seed, worker index).  Reports are therefore a pure
function of (n, count, seed, workers) and merging worker histograms is
order-independent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import CrossingPmf, check_length
from .words import reduce_runs, terminal_crossing_number

_BATCH = 4096
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SampleReport:
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
    key = np.array([seed & _MASK64, worker & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _crossing_of_row(row: np.ndarray) -> int:
    boundaries = np.flatnonzero(row[1:] != row[:-1])
    lengths = np.diff(np.concatenate(([-1], boundaries, [len(row) - 1])))
    _, reduced = reduce_runs(int(row[0]), lengths.tolist())
    return terminal_crossing_number(reduced)


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
    (n, count, seed, workers).
    """
    check_length(n)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be at least 1")

    histogram: Counter[int] = Counter()
    base, extra = divmod(count, workers)
    for worker in range(workers):
        quota = base + (1 if worker < extra else 0)
        if quota == 0:
            continue
        if n == 0:
            histogram[0] += quota
            continue
        rng = _substream(seed, worker)
        remaining = quota
        while remaining:
            batch = min(_BATCH, remaining)
            rows = rng.integers(0, 2, size=(batch, n), dtype=np.uint8)
            for row in rows:
                histogram[_crossing_of_row(row)] += 1
            remaining -= batch

    tv = None
    if exact is not None:
        if exact.n != n:
            raise ValueError(f"exact pmf is for n={exact.n}, not n={n}")
        if count > 0:
            empirical = {c: k / count for c, k in histogram.items()}
            tv = tv_distance(empirical, exact.as_float_dict())
    return SampleReport(n, count, seed, workers, dict(histogram), tv)


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance (1/2) * sum |p - q| over the union support."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(float(p.get(k, 0)) - float(q.get(k, 0))) for k in keys)
