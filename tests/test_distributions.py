import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from billiardknots import _crossing_recurrence, counting, oracle, sampler, selfcheck
from billiardknots.counting import binomial, binomial_lt, count_full, count_internal
from billiardknots.distributions import (
    ALPHA,
    BETA,
    LOG2_ALPHA,
    X0,
    Y0,
    CrossingPmf,
    ExactProb,
    alpha_rate,
    beta_summary,
    crossing_pmf,
    entropy,
    knot_probability,
    phi,
    phi_gradient,
)
from billiardknots.words import UNKNOT_CLASS, knot_class

TREFOIL = knot_class("101")
FIGURE_EIGHT = knot_class("1010")


# ---------------------------------------------------------------- ExactProb

def test_exact_prob_representation():
    p = knot_probability(TREFOIL, 6)
    assert (p.numerator, p.denominator) == (18, 64)
    assert p.fraction == Fraction(9, 32)
    assert str(p) == "18/64"
    assert float(p) == 18 / 64


@pytest.mark.parametrize("numerator, exponent, message", [
    (-1, 3, "nonnegative"),
    (1, -1, "nonnegative"),
    (9, 3, "above 1"),
])
def test_exact_prob_validation(numerator, exponent, message):
    with pytest.raises(ValueError, match=message):
        ExactProb(numerator, exponent)
    with pytest.raises(ValueError, match=message):
        ExactProb(numerator=numerator, exponent=exponent)


@pytest.mark.parametrize("numerator, exponent",
                         [(1.5, 2), (1, 2.0), ("1", 2), (True, 2.5)])
def test_exact_prob_fields_must_be_integers(numerator, exponent):
    # 1.5 would print as "1.5/4"
    with pytest.raises(TypeError):
        ExactProb(numerator, exponent)
    with pytest.raises(TypeError):
        ExactProb(1, 2)._replace(numerator=numerator, exponent=exponent)


def test_exact_prob_replace_validates():
    p = ExactProb(3, 2)
    assert p._replace(numerator=4) == ExactProb(4, 2)
    with pytest.raises(ValueError, match="above 1"):
        p._replace(numerator=5)


@pytest.mark.parametrize("exponent", [0, 1, 5, 64])
def test_exact_prob_bound_is_two_to_the_exponent(exponent):
    top = 1 << exponent
    for numerator in (0, 1, top - 1, top, top + 1):
        if numerator <= top:
            assert ExactProb(numerator, exponent) == (numerator, exponent)
            assert ExactProb(0, exponent)._replace(numerator=numerator) == (
                numerator, exponent)
        else:
            with pytest.raises(ValueError, match="above 1"):
                ExactProb(numerator, exponent)
            with pytest.raises(ValueError, match="above 1"):
                ExactProb(0, exponent)._replace(numerator=numerator)


def test_exact_prob_bound_does_not_build_the_denominator():
    # 2**(2**26) alone would take 8 MiB
    tracemalloc.start()
    try:
        ExactProb(0, 2**26)
        ExactProb(1, 2**26)._replace(numerator=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_value_objects_are_immutable():
    p = ExactProb(3, 2)
    with pytest.raises(AttributeError):
        p.numerator = 1
    with pytest.raises(AttributeError):
        p.extra = 1


def test_value_objects_are_named_tuples():
    p = ExactProb(3, 2)
    assert repr(p) == "ExactProb(numerator=3, exponent=2)"
    assert p == (3, 2) and tuple(p) == (3, 2)
    report = alpha_rate(TREFOIL, 99)
    assert report._fields == ("n", "log2_rate", "target", "gap")
    pmf = crossing_pmf(6)
    with pytest.raises(AttributeError):  # no longer a mutable dataclass
        pmf.n = 7


# ---------------------------------------------------------------- knot probability

def test_knot_probability_examples():
    assert knot_probability(TREFOIL, 3).fraction == Fraction(2, 8)
    assert knot_probability(TREFOIL, 6).fraction == Fraction(18, 64)
    assert knot_probability(UNKNOT_CLASS, 1).fraction == 1
    assert knot_probability(FIGURE_EIGHT, 4).fraction == Fraction(2, 16)


def test_knot_probability_picks_length_by_residue():
    # trefoil: 3-letter words at n = 0 mod 3, 4-letter words at n = 1 mod 3
    assert knot_probability(TREFOIL, 4).fraction == Fraction(
        2 * count_full(0, 4), 16
    )
    assert knot_probability(TREFOIL, 7).fraction == Fraction(
        2 * count_full(1, 4), 128
    )


def test_knot_probability_zero_below_reduced_length():
    assert knot_probability(TREFOIL, 0).numerator == 0
    assert knot_probability(FIGURE_EIGHT, 1).numerator == 0


def test_knot_probability_chirality_halves_mass():
    left = knot_class("101", "chiral")
    both = knot_probability(TREFOIL, 9).fraction
    assert knot_probability(left, 9).fraction * 2 == both


def two_bridge_catalogue():
    """The 26 two-bridge knots with 3 to 8 crossings, from the run patterns
    (1, {1, 2}..., 1), ordered by crossing number then canonical word."""
    classes = {}
    for c in range(3, 9):
        for inner in product((1, 2), repeat=c - 2):
            w = "".join(str(1 - i % 2) * k for i, k in enumerate((1, *inner, 1)))
            if len(w) % 3 != 2:
                cls = knot_class(w)
                classes[cls.canonical] = cls
    return sorted(classes.values(), key=lambda k: (k.crossing_number, k.canonical))


# sha256 of repr([(n, canonical, numerator, exponent), ...]) over the
# catalogue at each n in catalogue order, made at commit 6b51ee8, where
# every (n, m) pair came from its own pass up row n
CATALOGUE_PROBABILITIES_SHA256 = (
    "35b7b58d7023b1210dad0f6d4cc1c5610b2e2269271ba89bd97c43d7f83ab57a"
)


def test_knot_probability_does_not_depend_on_query_order():
    catalogue = two_bridge_catalogue()
    assert len(catalogue) == 26
    queries = [(n, k) for n in (1500, 1501, 3009) for k in catalogue]
    forward, warm = {}, {}
    for i, (n, k) in enumerate(queries):
        forward[n, k.canonical] = knot_probability(k, n)
        if i % 26 == 12 and n < 3009:  # walk the anchor mid-row, then to n // 3 and 1
            binomial_lt(n, n // 2)
            warm[n] = crossing_pmf(n)
    backward = {(n, k.canonical): knot_probability(k, n) for n, k in reversed(queries)}
    fresh = {}
    for n, k in queries:
        counting._anchor = (0, 0, 1, 0)
        fresh[n, k.canonical] = knot_probability(k, n)
    assert forward == backward == fresh
    for n, pmf in warm.items():  # each pmf came after knot queries at its n
        counting._anchor = (0, 0, 1, 0)
        assert pmf == crossing_pmf(n)
    values = [(*key, *p) for key, p in forward.items()]
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == CATALOGUE_PROBABILITIES_SHA256


def test_invalid_lengths_rejected():
    for n in (2, 5, 8, -1):
        with pytest.raises(ValueError):
            knot_probability(TREFOIL, n)
        with pytest.raises(ValueError):
            crossing_pmf(n)


@pytest.mark.parametrize("n", [6, 72])
def test_numpy_integer_lengths_are_taken_as_python_ints(n):
    # at 72 a numpy shift count would overflow count_full(m, 0) << (n - 3m)
    m = np.int64(n)
    for knot in (UNKNOT_CLASS, TREFOIL):
        assert knot_probability(knot, m) == knot_probability(knot, n)
    pmf = crossing_pmf(m)
    assert pmf == crossing_pmf(n) == oracle.crossing_pmf_by_double_sum(m)
    report = sampler.sample_pmf(m, 50, seed=1)
    assert report == sampler.sample_pmf(n, 50, seed=1)
    dist = oracle.exact_distribution(np.int64(4))
    assert dist == oracle.exact_distribution(4)
    assert oracle.tally_terminals(np.int64(6)) == oracle.tally_terminals(6)
    for value in (pmf, oracle.crossing_pmf_by_double_sum(m), report, dist):
        assert type(value.n) is int
        json.dumps(value.to_json())
    rate, beta = alpha_rate(UNKNOT_CLASS, m), beta_summary(m)
    assert (rate, beta) == (alpha_rate(UNKNOT_CLASS, n), beta_summary(n))
    assert all(type(f) in (int, float) for f in (*rate, *beta[:-1]))


def test_unknot_probability_uses_empty_word_count():
    # denominator is rescaled to 2**n
    p = knot_probability(UNKNOT_CLASS, 4)
    assert (p.numerator, p.denominator) == (12, 16)
    assert p.fraction == Fraction(count_full(1, 0), 8)


# ---------------------------------------------------------------- crossing pmf

def test_crossing_pmf_small_values():
    pmf3 = crossing_pmf(3)
    assert pmf3.masses[3].fraction == Fraction(1, 4)
    assert pmf3.unknot_mass.fraction == Fraction(3, 4)

    pmf4 = crossing_pmf(4)
    assert {c: p.fraction for c, p in pmf4.masses.items()} == {
        3: Fraction(2, 16),
        4: Fraction(2, 16),
    }
    assert pmf4.unknot_mass.fraction == Fraction(12, 16)

    pmf6 = crossing_pmf(6)
    assert {c: p.fraction for c, p in pmf6.masses.items()} == {
        3: Fraction(18, 64),
        4: Fraction(2, 64),
        5: Fraction(6, 64),
        6: Fraction(2, 64),
    }
    assert pmf6.unknot_mass.fraction == Fraction(36, 64)


def test_crossing_pmf_normalizes_exactly():
    ok, detail = selfcheck.check_pmf_normalization(27)
    assert ok, detail


def test_crossing_pmf_matches_the_reference_double_sum():
    ok, detail = selfcheck.check_pmf_reference(300)
    assert ok, detail


def _choose(a, k):
    return math.comb(a, k) if 0 <= k <= a else 0


@pytest.mark.parametrize("n", [3, 4, 9, 10, 301, 1000, 3001, 4000])
def test_top_six_counts_match_their_closed_form(n):
    # at c >= n - 5 a word reduces by no triple (C(c-2, n-c) run patterns) or
    # by one, inserted in one of n + 3 ways; both starting bits double it.
    # math.comb alone, with neither counting nor the recurrence
    counts = crossing_pmf(n).counts
    for c in range(max(3, n - 5), n + 1):
        top = 2 * (_choose(c - 2, n - c) + (n + 3) * _choose(c - 2, n - c - 3))
        assert counts[c] == top, c


def test_crossing_pmf_support():
    pmf = crossing_pmf(13)
    assert set(pmf.masses) == set(range(3, 14))
    assert all(p.numerator > 0 for p in pmf.masses.values())
    for n in (0, 1):
        pmf = crossing_pmf(n)
        assert pmf.masses == {}
        assert pmf.unknot_mass.fraction == 1


def test_crossing_pmf_json_shape():
    data = crossing_pmf(6).to_json()
    assert data["n"] == 6
    assert data["unknot"] == "36/64"
    assert data["pmf"]["3"] == "18/64"


def test_hand_built_pmf_reads_every_count_over_2_to_the_n():
    # a count has no denominator of its own, so no view can disagree on it
    pmf = CrossingPmf(3, {0: 6, 3: 2})
    assert pmf.masses == {3: ExactProb(2, 3)}
    assert pmf.unknot_mass == ExactProb(6, 3)
    assert pmf.total() == 1
    assert pmf.to_json() == {"n": 3, "unknot": "6/8", "pmf": {"3": "2/8"}}


@pytest.mark.parametrize("n", [0, 1, 3, 4, 31])
def test_float_view_keeps_the_unknot_then_each_crossing_number_in_order(n):
    # sampler.tv_distance sums over these keys in this order
    pmf = crossing_pmf(n)
    floats = pmf.as_float_dict()
    assert list(floats) == [0, *range(3, n + 1)]
    assert list(floats.values()) == [float(p) for p in (pmf.unknot_mass,
                                                        *pmf.masses.values())]


def test_unknot_count_corrected_external_weights():
    # counting through the two one-letter words with (2e+1)-weighted external
    # stages must agree with counting through the empty word
    for m in range(14):
        n = 3 * m + 1
        corrected = count_internal(1, m)
        for e in range(1, m + 1):
            corrected += (2 * e + 1) * (binomial(n, m - e) - binomial_lt(n, m - e))
        assert corrected == count_full(m, 0), m


# ---------------------------------------------------------------- recurrence table

# sha256 of json.dumps(crossing_pmf(n).to_json()), recorded with the O(n**2)
# row pass that the recurrence replaced; the CLI pins cover n = 1000 and 2002
PMF_JSON_SHA256 = {
    301: "0b62dd6d4ce4c46b2b48fe82d2d3efde30d7ec6ae61c0d10717f1fdc5bb5aef4",
    445: "6dadc43c621127877cf26be3b3b63687697e3c80529624630a47f28a31bc1388",
    649: "db26b158e8b9d23997b9d61324b3d0a88133b677ae5c5d6a6d43ffbbe3534ab0",
    3001: "aedd5e0569013ef1149649204d514bdcb575d2e86ef791bcc7c362642c0c2740",
    4000: "374ab3b803c57ad349870c78e4f234d7e2c9e0a2310fb4a1caa29209ac7114e4",
}


@pytest.mark.parametrize("n", sorted(PMF_JSON_SHA256))
def test_crossing_pmf_json_matches_the_row_pass(n):
    text = json.dumps(crossing_pmf(n).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == PMF_JSON_SHA256[n]


@pytest.fixture(scope="module")
def double_sums():
    """The reference counts at every valid n <= 150, none from the recurrence."""
    return {n: oracle.crossing_pmf_by_double_sum(n).counts
            for n in range(151) if n % 3 != 2}


def _in_c(n):
    """Each p_i(n, c) of the table as its coefficients in c, lowest first."""
    return [[sum(a * n**f for f, a in enumerate(row)) for row in p]
            for p in _crossing_recurrence.P]


def test_recurrence_table_annihilates_the_double_sum(double_sums):
    for n, counts in double_sums.items():
        polys = _in_c(n)
        for c in range(3, n + 1):  # counts past n are 0
            total = sum(sum(a * c**e for e, a in enumerate(p)) * counts.get(c + i, 0)
                        for i, p in enumerate(polys))
            assert total == 0, (n, c)


@pytest.mark.parametrize("n", [9, 10, 18, 301, 4000])
def test_coefficient_streams_equal_the_table_at_every_step(n):
    polys = _in_c(n)
    steps = zip(range(n - 1, 2, -1), *_crossing_recurrence.coefficient_streams(n))
    for c, *values in steps:
        assert values == [sum(a * c**e for e, a in enumerate(p)) for p in polys], (n, c)


@pytest.mark.parametrize("n", [n for n in range(4, 61) if n % 3 != 2])
def test_coefficient_streams_equal_the_table_at_every_short_length(n):
    # selfcheck builds its pmfs at these lengths, where few steps are taken
    polys = _in_c(n)
    steps = zip(range(n - 1, 2, -1), *_crossing_recurrence.coefficient_streams(n))
    for c, *values in steps:
        assert values == [sum(a * c**e for e, a in enumerate(p)) for p in polys], (n, c)


def _nullspace_mod(rows, p):
    """A basis of the vectors that rows annihilate mod the prime p < 2**31,
    by Gauss-Jordan elimination; every product stays below 2**62."""
    a = np.array(rows, dtype=np.int64)
    pivots = []
    for col in range(a.shape[1]):
        r = len(pivots)
        hits = np.flatnonzero(a[r:, col])
        if r == a.shape[0] or not hits.size:
            continue
        a[[r, r + hits[0]]] = a[[r + hits[0], r]]
        a[r] = a[r] * pow(int(a[r, col]), -1, p) % p
        factors = a[:, col].copy()
        factors[r] = 0
        a = (a - factors[:, None] * a[r]) % p
        pivots.append(col)
    basis = []
    for j in sorted(set(range(a.shape[1])) - set(pivots)):
        v = np.zeros(a.shape[1], dtype=np.int64)
        v[j] = 1
        v[pivots] = -a[: len(pivots), j] % p
        basis.append(v.tolist())
    return basis


def test_recurrence_table_is_the_one_solution_mod_a_prime(double_sums):
    # re-guess: 441 unknowns, the coefficient of c**e * n**f in p_i with
    # e <= 8 and f <= 6, against 480 random rows (n, c) from the double sum
    p, rng = 2**31 - 1, random.Random(0)
    lengths = [n for n in double_sums if n >= 60]
    rows = []
    for _ in range(480):
        n = rng.choice(lengths)
        c = rng.randint(3, n)
        counts = double_sums[n]
        rows.append([counts.get(c + i, 0) % p * pow(c, e, p) * pow(n, f, p) % p
                     for i in range(7) for e in range(9) for f in range(7)])
    (solution,) = _nullspace_mod(rows, p)
    table = [row[f] if f < len(row) else 0
             for poly in _crossing_recurrence.P for row in poly for f in range(7)]
    j = next(k for k, x in enumerate(solution) if x)
    scale = table[j] * pow(solution[j], -1, p) % p
    assert scale
    assert [t % p for t in table] == [scale * x % p for x in solution]


def test_leading_coefficient_never_vanishes_below_n():
    # p_0 = -6 (c - n)(c + n + 1) q(n, c), where q has no negative coefficient
    # and q(0, 0) > 0, so p_0(n, c) != 0 for every 0 <= c < n
    rows = [list(row) + [0] * (12 - len(row)) for row in _crossing_recurrence.P[0]]
    quotient = []  # c**e coefficient rows of -6q, highest e first
    for e in range(8, 1, -1):  # divide by c**2 + c - (n**2 + n)
        top = rows[e]
        assert top[10:] == [0, 0]  # so the shifts below drop no term
        quotient.append(top)
        rows[e - 1] = [x - t for x, t in zip(rows[e - 1], top)]
        shifted = zip(rows[e - 2], [0, *top], [0, 0, *top])  # + top * (n + n**2)
        rows[e - 2] = [x + t1 + t2 for x, t1, t2 in shifted]
    assert rows[1] == rows[0] == [0] * 12
    assert all(x % 6 == 0 and x <= 0 for row in quotient for x in row)
    assert quotient[-1][0] < 0


# ---------------------------------------------------------------- alpha rate

def test_alpha_rate_trefoil_small():
    report = alpha_rate(TREFOIL, 3)
    assert report.log2_rate == pytest.approx(-2 / 3)
    assert report.target == pytest.approx(LOG2_ALPHA)
    assert report.gap == pytest.approx(abs(-2 / 3 - LOG2_ALPHA))


def test_alpha_target_value():
    assert ALPHA**3 == pytest.approx(27 / 32, abs=1e-15)
    assert math.log2(ALPHA) == pytest.approx(LOG2_ALPHA, abs=1e-15)
    assert LOG2_ALPHA == pytest.approx(math.log2(27 / 32) / 3)
    assert LOG2_ALPHA == pytest.approx(entropy(1 / 3) - 1)
    assert LOG2_ALPHA == pytest.approx(-0.0817, abs=5e-5)


def test_alpha_rate_zero_probability_rejected():
    with pytest.raises(ValueError):
        alpha_rate(TREFOIL, 0)


def test_alpha_rate_at_length_zero_rejected():
    # the unknot has probability 1 there, but a rate per letter needs a letter
    with pytest.raises(ValueError, match="n >= 1"):
        alpha_rate(UNKNOT_CLASS, 0)


def test_alpha_rate_on_big_exact_values():
    report = alpha_rate(TREFOIL, 999)
    assert report.gap < 0.05
    # cross-check the shifted log against a directly computable case
    small = alpha_rate(TREFOIL, 30)
    exact = knot_probability(TREFOIL, 30)
    assert small.log2_rate == pytest.approx(
        (math.log2(exact.numerator) - 30) / 30, rel=1e-12
    )


# ---------------------------------------------------------------- beta summary

def test_beta_summary_small():
    summary = beta_summary(6, delta=0.05)
    assert summary.mode == 3
    assert summary.mode_ratio == pytest.approx(0.5)
    assert summary.gap == pytest.approx(0.5 - BETA)
    # every outcome is far from beta at n=6, unknot included
    assert summary.tail_mass == 1


def test_beta_summary_rejects_lengths_without_crossing_mass():
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"n={n}"):
            beta_summary(n)
    summary = beta_summary(3)  # the first length with crossing mass
    assert (summary.mode, summary.tail_mass) == (3, 1)


def test_beta_summary_tail_shrinks_with_delta():
    wide = beta_summary(100, delta=0.30).tail_mass
    narrow = beta_summary(100, delta=0.05).tail_mass
    assert wide < narrow
    assert 0 <= wide <= narrow <= 1


@pytest.mark.parametrize("delta", [math.nan, -0.01])
def test_beta_summary_rejects_a_nan_or_negative_delta(delta):
    with pytest.raises(ValueError, match=f"delta={delta}"):
        beta_summary(300, delta)


def test_beta_summary_edge_deltas():
    # BETA is irrational, so no c/n sits in the band of width 0
    assert beta_summary(300, 0).tail_mass == 1
    assert beta_summary(300, math.inf).tail_mass == 0


@pytest.mark.parametrize("n", [4, 7, 10, 13])
def test_beta_summary_mode_ties_go_to_the_smaller_crossing_number(n):
    masses = crossing_pmf(n).masses
    assert masses[3] == masses[4] == max(masses.values(), key=lambda p: p.numerator)
    assert beta_summary(n).mode == 3


@pytest.mark.parametrize("n, wide, narrow", [
    (6, Fraction(23, 32), Fraction(5, 32)),
    (7, Fraction(11, 16), Fraction(1, 8)),
])
def test_unknot_leaves_the_tail_as_delta_passes_beta(n, wide, narrow):
    # c = 0 sits BETA ~ 0.309 from beta: in the tail at delta 0.30, out at 0.31
    assert beta_summary(n, delta=0.30).tail_mass == wide
    assert beta_summary(n, delta=0.31).tail_mass == narrow
    assert wide - narrow == crossing_pmf(n).unknot_mass.fraction


def test_beta_constant():
    assert BETA == pytest.approx((math.sqrt(5) - 1) / 4)
    assert BETA == pytest.approx(0.309, abs=5e-4)


# ---------------------------------------------------------------- phi

def test_phi_critical_point():
    assert X0 == pytest.approx(BETA)
    assert Y0 == pytest.approx((math.sqrt(5) - 2) / 2)
    assert abs(phi(X0, Y0)) < 1e-9
    gx, gy = phi_gradient(X0, Y0)
    assert abs(gx) < 1e-9 and abs(gy) < 1e-9


def test_phi_negative_away_from_critical_point():
    assert phi(0.5, 0.2) < 0
    assert phi(0.2, 0.1) < 0
    assert phi(0.309, 0.05) < 0


def test_phi_domain_checks():
    # (0.4, 0.4) and (0.6, 0.4) sit on the boundary y = x and x + y = 1, where
    # an accepted point raises no error or only math's own
    for x, y in ((0.5, 0.0), (0.5, 0.6), (0.6, 0.5), (0.1, -0.1), (1.2, 0.1),
                 (0.4, 0.4), (0.6, 0.4)):
        with pytest.raises(ValueError, match="outside"):
            phi(x, y)
        with pytest.raises(ValueError, match="outside"):
            phi_gradient(x, y)


def test_phi_gradient_matches_finite_differences():
    ok, detail = selfcheck.check_phi_gradient(20260809)
    assert ok, detail


def test_entropy_endpoints():
    assert entropy(0) == 0
    assert entropy(1) == 0
    assert entropy(0.5) == 1


@pytest.mark.parametrize("p", [-0.5, 1.5, math.nan])
def test_entropy_domain(p):
    with pytest.raises(ValueError, match="outside"):
        entropy(p)
