"""Exact insertion counting: binomials, ballot counts, and the full formula.

Everything here is integer arithmetic; Python ints are arbitrary precision,
so no overflow regime exists.  Counts serialize as decimal strings at the
output boundary.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from math import comb


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that it is 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=64)
def binomial_lt(n: int, m: int) -> int:
    """Partial row sum C(n,0) + C(n,1) + ... + C(n,m-1); 0 for m <= 0.

    One running pass along row n (_row_pass), so each term costs a small
    multiply and divide instead of a fresh binomial.  The small cache
    serves callers that ask for the same sum for several knots at one
    length.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m <= 0:
        return 0
    _, below = next(islice(_row_pass(n), min(m, n + 1), None))
    return below


def _row_pass(n: int):
    """Yield (C(n, k), C(n, 0) + ... + C(n, k-1)) for k = 0, 1, 2, ...

    C(n, k+1) = C(n, k) * (n - k) / (k + 1); past k = n the term is 0 and
    the sum stays at 2**n.
    """
    term, below = 1, 0
    for k in count():
        yield term, below
        below += term
        term = term * (n - k) // (k + 1)


def feasible_count(size: int, s: int) -> int:
    """Number of feasible location sets of exactly s elements in {1..size}.

    By the ballot problem (non-locations must stay at least twice ahead of
    locations in every suffix, a 2:1 lead) this is C(size,s) - 2*C(size,s-1).
    When 3*s exceeds size + 1 the expression goes negative and no feasible
    set exists; the count is clamped to 0.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if s < 0:
        raise ValueError("s must be nonnegative")
    value = binomial(size, s) - 2 * binomial(size, s - 1)
    return value if value > 0 else 0


def count_internal(ell: int, m: int) -> int:
    """Number of words reachable from any ell-letter word by m internal insertions.

    Equals the sum of feasible_count(3*m + ell, s) for s in 0..m and does
    not depend on the base word itself.
    """
    if ell < 0 or m < 0:
        raise ValueError("ell and m must be nonnegative")
    n = 3 * m + ell
    return binomial(n, m) - binomial_lt(n, m)


def count_full(m: int, ell: int) -> int:
    """Number of words reachable from a reduced ell-letter word by m insertions
    of any kind (internal or external).

    Evaluated at doubled scale so the two half-integer polynomial
    coefficients stay integral; the final division by 2 is checked exact,
    which catches any transcription slip in the coefficients.
    """
    if ell < 0 or m < 0:
        raise ValueError("ell and m must be nonnegative")
    n = 3 * m + ell
    return _full_count(m, ell, binomial(n, m), binomial_lt(n, m))


def count_full_row(n: int) -> list[int]:
    """[count_full(j, n - 3j) for j in 0..n//3] in one pass over row n.

    Every entry draws on C(n, j) and the partial sum of row n below it, so
    one running binomial and its prefix sum serve the whole list.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [
        _full_count(m, n - 3 * m, binom, below)
        for m, (binom, below) in zip(range(n // 3 + 1), _row_pass(n))
    ]


def _full_count(m: int, ell: int, binom: int, below: int) -> int:
    """count_full(m, ell) from C(n, m) and binomial_lt(n, m), n = 3m + ell."""
    a = m * m + (ell + 5) * m + 2
    b = m * m + (2 * ell + 9) * m + (ell * ell + 7 * ell + 2)
    doubled = a * binom - b * below
    if doubled % 2:
        raise AssertionError(f"count_full({m}, {ell}): doubled value {doubled} is odd")
    return doubled // 2
