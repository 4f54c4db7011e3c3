"""Exact knot and crossing-number distributions, with asymptotic diagnostics.

Probabilities are exact rationals with denominator 2**n, where n is the
number of crossings in the random diagram.  Valid lengths are n congruent
to 0 or 1 mod 3 (so that the table width n+1 is coprime to 3 and the
trajectory closes to a knot).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .counting import count_full
from .words import UNKNOT_CLASS, KnotClass, check_count, check_length

if TYPE_CHECKING:  # fractions loads only for the exact-fraction views
    from fractions import Fraction

#: per-crossing decay rate of any fixed knot's probability
ALPHA = (27 / 32) ** (1 / 3)
LOG2_ALPHA = math.log2(27 / 32) / 3

#: limiting ratio crossing_number / word_length, (sqrt(5) - 1) / 4
BETA = (math.sqrt(5) - 1) / 4

#: critical point of the exponent function phi
X0 = BETA
Y0 = (math.sqrt(5) - 2) / 2


class _ExactProbFields(NamedTuple):
    numerator: int
    exponent: int


class ExactProb(_ExactProbFields):
    """A probability numerator / 2**exponent, kept unreduced."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, numerator: int, exponent: int):
        numerator = check_count("numerator", numerator)
        exponent = check_count("exponent", exponent)
        # 2**exponent is built only for a numerator at least as large
        if numerator.bit_length() > exponent and numerator != 1 << exponent:
            raise ValueError("probability above 1")
        return super().__new__(cls, numerator, exponent)

    @property
    def denominator(self) -> int:
        return 1 << self.exponent

    @property
    def fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.numerator, 1 << self.exponent)

    def __float__(self) -> float:
        # int true division is correctly rounded, as float(self.fraction) is
        return self.numerator / (1 << self.exponent)

    def __str__(self) -> str:
        return f"{self.numerator}/{1 << self.exponent}"


def knot_probability(knot: KnotClass, n: int) -> ExactProb:
    """Probability that a random n-crossing diagram yields this knot.

    Picks the reduced length matching n mod 3 and counts the words that
    reduce into the class: multiplicity times the full insertion count.
    The unknot uses its own count through the empty word, rescaled to the
    common denominator 2**n.
    """
    n = check_length(n)
    if knot.is_unknot:
        m = n // 3
        return ExactProb(count_full(m, 0) << (n - 3 * m), n)
    ell = knot.ell0 if n % 3 == 0 else knot.ell1
    if n < ell:
        return ExactProb(0, n)
    return ExactProb(knot.multiplicity_r * count_full((n - ell) // 3, ell), n)


class CrossingPmf(NamedTuple):
    """Exact crossing-number distribution of a random n-crossing diagram.

    counts maps c = 0 (the unknot), then each c in 3..n in increasing order,
    to the number of the 2**n words of length n that reach it: the mass at c
    is counts[c] / 2**n, and 2**n is the one denominator of every view below.
    """

    n: int
    counts: dict[int, int]

    @property
    def unknot_mass(self) -> ExactProb:
        return ExactProb(self.counts[0], self.n)

    @property
    def masses(self) -> dict[int, ExactProb]:  # c in 3..n -> mass, built on each access
        return {c: ExactProb(k, self.n) for c, k in self.counts.items() if c}

    def total(self) -> Fraction:
        from fractions import Fraction

        return Fraction(sum(self.counts.values()), 1 << self.n)

    def as_float_dict(self) -> dict[int, float]:
        """Float view keyed by crossing number, with the unknot at 0."""
        den = 1 << self.n  # int true division rounds as float(ExactProb) does
        return {c: k / den for c, k in self.counts.items()}

    def to_text(self) -> str:
        """One 'c=...: count/2**n = float' line per row of to_csv_rows."""
        return "\n".join(f"c={c}{' (unknot)' if c == 0 else ''}: {k}/{den} = {p:.6g}"
                         for c, k, den, p in self.to_csv_rows())

    def to_json(self) -> dict:
        over = f"/{1 << self.n}"  # formatted once
        return {
            "n": self.n,
            "unknot": f"{self.counts[0]}{over}",
            "pmf": {str(c): f"{k}{over}" for c, k in self.counts.items() if c},
        }

    def to_csv_rows(self) -> list[tuple]:
        """(c, numerator, denominator, float) rows, with 2**n formatted once."""
        den = 1 << self.n
        text = str(den)
        return [(c, k, text, k / den) for c, k in self.counts.items()]


def crossing_pmf(n: int) -> CrossingPmf:
    """Exact distribution of the crossing number at length n.

    Reduced words with c runs and k two-letter runs have length c + k and
    C(c-2, k) run patterns; each reaches count_full((n-c-k)/3, c+k) words
    of length n, and the two starting bits double the sum, so
    counts[c] = 2 * sum_j F[j] * C(c-2, n-c-3j) with F[j] =
    count_full(j, n-3j); oracle keeps this double sum as the reference.
    Here the order-6 recurrence in c of _crossing_recurrence gives the
    counts instead, in O(n) big-integer steps down from counts[n] = 2 (the
    two alternating words) and counts[n+1..n+5] = 0: each step, from
    c = n - 1 on, multiplies counts[c+1..c+6], kept in six locals, by
    p_1..p_6 from the coefficient streams and divides the sum by p_0.

    The recurrence is guessed, not proved.  The counts are holonomic
    (binomial-weighted sums of D-finite terms are D-finite: Stanley, 1980),
    and the table was guessed (Kauers, Guessing Handbook, 2009): 441
    unknowns, degree <= 8 in c and <= 6 in n; 600 rows, 12 random c at each
    of 50 valid n in 120..400; Gaussian elimination mod ten primes below
    2**31, each leaving a nullspace of dimension 1; then CRT and rational
    reconstruction.  It was checked exactly at every c for every valid
    n <= 400.  The tests re-derive its nullspace mod a prime, compare the
    walk with the double sum, and its top six counts (j <= 1) with math.comb
    up to n = 4000.  p_0 = -6(c - n)(c + n + 1)q(n, c), where every
    coefficient of q is positive, so on 0 <= c <= n it vanishes at c = n
    alone: counts[n] is the recurrence's one free value, and no step
    divides by zero.  Each call certifies itself, as count_full does: every
    division must be exact and the counts, the unknot's included, must sum
    to exactly 2**n, else AssertionError.
    """
    n = check_length(n)
    from ._crossing_recurrence import coefficient_streams as streams

    counts = {0: knot_probability(UNKNOT_CLASS, n).numerator}
    down = [2]  # counts[n], counts[n-1], ...; below n = 3 the zip keeps none
    x1, x2, x3, x4, x5, x6 = 2, 0, 0, 0, 0, 0  # counts[c+1], ..., counts[c+6]
    for c, p0, p1, p2, p3, p4, p5, p6 in zip(range(n - 1, 2, -1), *streams(n)):
        k, r = divmod(-(p1 * x1 + p2 * x2 + p3 * x3 + p4 * x4 + p5 * x5 + p6 * x6), p0)
        if r:
            raise AssertionError(f"crossing_pmf({n}): division at c={c} leaves {r}")
        down.append(k)
        x1, x2, x3, x4, x5, x6 = k, x1, x2, x3, x4, x5
    counts.update(zip(range(3, n + 1), reversed(down)))
    if sum(counts.values()) != 1 << n:
        raise AssertionError(f"crossing_pmf({n}): the counts do not sum to 2**{n}")
    return CrossingPmf(n, counts)


def _log2_int(x: int) -> float:
    """Base-2 log of a positive integer of any size (top 53 bits kept)."""
    shift = x.bit_length() - 53
    if shift <= 0:
        return math.log2(x)
    return math.log2(x >> shift) + shift


class AsymptoticReport(NamedTuple):
    n: int
    log2_rate: float
    target: float
    gap: float


def alpha_rate(knot: KnotClass, n: int) -> AsymptoticReport:
    """Per-crossing log-probability of the knot at length n, against log2(alpha)."""
    n = check_length(n)
    p = knot_probability(knot, n)
    if p.numerator == 0:
        raise ValueError(f"probability of {knot.canonical!r} at n={n} is 0")
    if n == 0:  # only the unknot has a probability there, and no rate
        raise ValueError("the rate needs n >= 1")
    rate = (_log2_int(p.numerator) - p.exponent) / n
    return AsymptoticReport(n, rate, LOG2_ALPHA, abs(rate - LOG2_ALPHA))


class BetaSummary(NamedTuple):
    """Mode and concentration of the crossing-number pmf at length n."""

    n: int
    mode: int
    mode_ratio: float
    target: float
    gap: float
    delta: float
    tail_mass: Fraction


def beta_summary(n: int, delta: float = 0.05) -> BetaSummary:
    """Locate the pmf mode and the exact mass outside the beta +- delta band.

    The unknot (crossing number 0) counts toward the tail.  Ties on the
    mode go to the smallest crossing number.  Lengths below 3 (no crossing
    mass, so no mode) and a NaN or negative delta are rejected.
    """
    from fractions import Fraction

    if not delta >= 0:  # NaN compares false, and would put no mass in the tail
        raise ValueError(f"delta={delta} must be a nonnegative number")
    n, counts = crossing_pmf(n)
    if n < 3:
        raise ValueError(f"n={n} has no crossing mass, so the pmf has no mode")
    # every count is over 2**n, so counts compare and add as the masses do
    mode = max(range(3, n + 1), key=lambda c: (counts[c], -c))
    tail = sum(k for c, k in counts.items() if abs(c / n - BETA) > delta)
    return BetaSummary(n, mode, mode / n, BETA, abs(mode / n - BETA), delta,
                       Fraction(tail, 1 << n))


def entropy(p: float) -> float:
    """Binary entropy -p*log2(p) - (1-p)*log2(1-p), 0 at the endpoints."""
    if not 0 <= p <= 1:
        raise ValueError(f"entropy argument {p} outside [0, 1]")
    if p == 0 or p == 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _check_phi_domain(x: float, y: float) -> None:
    if not (0 < y < x and x + y < 1):
        raise ValueError(f"(x, y) = ({x}, {y}) outside 0 < y < x, x + y < 1")


def phi(x: float, y: float) -> float:
    """Exponential growth rate of the dominant pmf term at c = x*n, k = y*n.

    phi(x, y) = H(y/x)*x + H((1-x-y)/3) - 1 with binary entropy H; it is 0
    at (X0, Y0) and strictly negative elsewhere on the domain, which is why
    the crossing ratio concentrates at BETA.
    """
    _check_phi_domain(x, y)
    return entropy(y / x) * x + entropy((1 - x - y) / 3) - 1


def phi_gradient(x: float, y: float) -> tuple[float, float]:
    """Closed-form gradient of phi; vanishes exactly at (X0, Y0)."""
    _check_phi_domain(x, y)
    shared = (math.log2(1 - x - y) - math.log2(2 + x + y)) / 3
    return (
        shared - math.log2(1 - y / x),
        shared + math.log2(x / y - 1),
    )
