"""Exact insertion counting: binomials, ballot counts, and the full formula.

Everything here is integer arithmetic on arbitrary-precision Python ints; each
count argument passes words.check_count, so no float reaches a count or the
binomial anchor.  Counts serialize as decimal strings at the output boundary.
"""

from __future__ import annotations

import operator
from math import comb

from .words import check_count


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that it is 0 for k < 0 or k > n."""
    n, k = check_count("n", n), operator.index(k)
    if k < 0:
        return 0
    return comb(n, k)


def binomial_lt(n: int, m: int) -> int:
    """Partial row sum C(n,0) + C(n,1) + ... + C(n,m-1); 0 for m <= 0.

    Read from _binomial_and_below, so it walks from the same anchor as
    count_full and count_internal, two terms per step on a long walk.
    """
    n, m = check_count("n", n), operator.index(m)
    if m <= 0:
        return 0
    return _binomial_and_below(n, m)[1]


#: (n, m, C(n, m), binomial_lt(n, m)) where the last query stopped, 0 <= m <= n
_anchor = (0, 0, 1, 0)


def _binomial_and_below(n: int, m: int) -> tuple[int, int]:
    """(C(n, m), binomial_lt(n, m)) for n, m >= 0, walked from the anchor.

    The walk starts at the anchor when it is on row n and nearer than
    k = 0, else at k = 0, so no query walks farther than a fresh pass to
    m; then the anchor moves to (n, m).  A walk up by 4 or more, as is
    every pass from k = 0, adds the pair C(n, j) + C(n, j+1) = C(n+1, j+1)
    and moves it two positions per step, times (n-j)(n-j-1) / ((j+2)(j+3)):
    one 30-bit digit each for n <= 32768.  Short and downward walks step
    once, by C(n, j+1) = C(n, j) * (n-j) / (j+1) or its inverse.  The knots
    at one length ask for a few m within 3 of each other, so after one
    partial row pass each further m costs a few steps.  A length asked
    again after another length pays its pass again.

    The anchor is one tuple, read and replaced whole, so an interleaved
    query starts from a true pair, never a mix of two.
    """
    global _anchor
    if m > n:
        return 0, 1 << n
    row, j, binom, below = _anchor
    if row != n or abs(m - j) >= m:
        j, binom, below = 0, 1, 0
    if m - j >= 4:
        pair = binom * (n + 1) // (j + 1)  # C(n+1, j+1)
        for j in range(j, m - 1, 2):
            below += pair
            pair = pair * ((n - j) * (n - j - 1)) // ((j + 2) * (j + 3))
        j += 2  # past the last pair added
        binom = pair * (j + 1) // (n + 1)
    while j < m:
        below += binom
        binom = binom * (n - j) // (j + 1)
        j += 1
    while j > m:
        binom = binom * j // (n - j + 1)
        below -= binom
        j -= 1
    _anchor = (n, m, binom, below)
    return binom, below


def feasible_count(size: int, s: int) -> int:
    """Number of feasible location sets of exactly s elements in {1..size}.

    By the ballot problem (non-locations must stay at least twice ahead of
    locations in every suffix, a 2:1 lead) this is C(size,s) - 2*C(size,s-1).
    When 3*s exceeds size + 1 the expression goes negative and no feasible
    set exists; the count is clamped to 0.
    """
    size, s = check_count("size", size), check_count("s", s)
    value = binomial(size, s) - 2 * binomial(size, s - 1)
    return value if value > 0 else 0


def count_internal(ell: int, m: int) -> int:
    """Number of words reachable from any ell-letter word by m internal insertions.

    Equals the sum of feasible_count(3*m + ell, s) for s in 0..m and does
    not depend on the base word itself.  C(n, m) and the partial sum below
    it, n = 3*m + ell, are walked from the anchor (_binomial_and_below).
    """
    ell, m = check_count("ell", ell), check_count("m", m)
    binom, below = _binomial_and_below(3 * m + ell, m)
    return binom - below


def count_full(m: int, ell: int) -> int:
    """Number of words reachable from a reduced ell-letter word by m insertions
    of any kind (internal or external).

    Evaluated at doubled scale so the two half-integer polynomial
    coefficients stay integral; the final halving is checked exact.  b is
    even for every m and ell, since m(m+9) and ell(ell+7) are even, so the
    check reads only the parity of a * C(n, m): it catches a slip that
    makes that product odd, such as a wrong C(n, m) where a is odd, or one
    that makes b odd where the partial sum is odd.  It cannot see a slip
    in the partial sum, and most slips in a pass it (a +1 in a's constant
    passes at 104 of the 169 pairs m, ell <= 12); the counts themselves are
    audited against enumeration and against their summation form
    (selfcheck).  C(n, m) and the partial sum below it, n = 3*m + ell, are
    walked from the anchor (_binomial_and_below), so counts at one length
    with nearby m share one partial row pass.
    """
    m, ell = check_count("m", m), check_count("ell", ell)
    binom, below = _binomial_and_below(3 * m + ell, m)
    a = m * m + (ell + 5) * m + 2
    b = m * m + (2 * ell + 9) * m + (ell * ell + 7 * ell + 2)
    doubled = a * binom - b * below
    if doubled & 1:  # & and >> equal % 2 and // 2 on every int, without a division
        raise AssertionError(f"count_full({m}, {ell}): doubled value {doubled} is odd")
    return doubled >> 1
