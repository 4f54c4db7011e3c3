"""Each shared check fails when the function it audits gives a wrong answer.

The acceptance suite and the unit tests assert on these checks, so a check
that always passed would hide every fault.
"""

from itertools import chain, count, groupby
from math import comb
from operator import add
from types import SimpleNamespace

import pytest

from billiardknots import (
    _crossing_recurrence,
    counting,
    distributions,
    insertions,
    oracle,
    sampler,
    words,
)
from billiardknots import selfcheck as sc
from billiardknots.cli import main

# the originals, which the stand-ins call once the module attribute is patched
binomial_lt, count_full = counting.binomial_lt, counting.count_full
binomial_and_below = counting._binomial_and_below
count_internal = counting.count_internal
knot_class, reduce = words.knot_class, words.reduce
orbit_halves = words._orbit_halves
crossing_pmf = distributions.crossing_pmf
classify_terminals = oracle.classify_terminals
external_moves = sampler._external_moves
coefficient_streams = _crossing_recurrence.coefficient_streams

# the recurrence table with the constant term of p_3 one too high
WRONG_TABLE = [[list(row) for row in p] for p in _crossing_recurrence.P]
WRONG_TABLE[3][0][0] += 1


def _top_difference_of_p3_one_too_high(n):
    # p_3's constant 8th difference one too high adds C(j, 8) to p_3 at step j,
    # so nothing changes before c = n - 9 and the pmf is right up to n = 10
    streams = coefficient_streams(n)
    streams[3] = map(add, streams[3], (comb(j, 8) for j in count()))
    return streams


def _first_p1_one_too_high(n):  # the first step, at c = n - 1, gets a wrong p_1
    streams = coefficient_streams(n)
    streams[1] = chain([next(streams[1]) + 1], streams[1])
    return streams


def _bump_binomial_at_3(n, m):  # C(n, 3) one too high, the partial sum right
    binom, below = binomial_and_below(n, m)
    return binom + (m == 3), below


def _bump_walk(kind):
    """A _binomial_and_below whose C(n, m) is one too high after one kind of
    walk only: "pair" (up by 4 or more), "up" (up by 1 to 3) or "down"."""
    def wrong(n, m):
        row, j = counting._anchor[:2]  # where the original will start
        if row != n or abs(m - j) >= m:
            j = 0
        walk = "pair" if m - j >= 4 else "up" if m > j else "down" if m < j else None
        binom, below = binomial_and_below(n, m)
        return binom + (walk == kind), below
    return wrong


def _move_a_word_from_3_to_4(n):  # the total, and so the unknot, stays right
    if n < 4:
        return crossing_pmf(n)
    counts = dict(crossing_pmf(n).counts)
    counts[3] -= 1
    counts[4] += 1
    return distributions.CrossingPmf(n, counts)


def _move_a_mirror_word_from_3_to_4(n, terminals, mode):  # the classes stay right
    dist = classify_terminals(n, terminals, mode)
    if mode != words.MIRROR_IDENTIFIED:
        return dist
    crossing = dict(dist.crossing_counts)
    crossing[3] -= 1
    crossing[4] = crossing.get(4, 0) + 1
    return dist._replace(crossing_counts=crossing)


def _orbit_without_resized_forms(w, mode):  # only the terminal's own length
    return orbit_halves(w, mode)[0], frozenset()


def _last_inner_run_unswapped(w):  # resize, but the last inner run keeps its length
    letters, lengths = zip(*((a, len(list(g))) for a, g in groupby(w)))
    inner = (*(3 - n for n in lengths[1:-2]), lengths[-2])
    return "".join(a * k for a, k in zip(letters, (1, *inner, 1)))


def _resized_terminal_past_6_letters(w):  # the orbit, so the class, stays right
    t = reduce(w)
    return words._resized(t) if len(w) > 6 and len(t) >= 3 else t


def _pass_then_trim(w):  # reduce with its letter stack skipped on every word
    s = w.replace("000", "").replace("111", "")
    start, end = 0, len(s)
    while end - start >= 3 and s[start] == s[start + 1]:
        start += 3
    while end - start >= 3 and s[end - 1] == s[end - 2]:
        end -= 3
    return s[start:end]


def _prefix_moves_only(stack, first, last, step):  # the suffix moves dropped
    if step == 1:
        external_moves(stack, first, last, step)


# (a check, its arguments at a small size, module, name, wrong stand-in),
# named by id; the ids keep the earlier names check_counting and
# check_normalization, so that each test keeps its name
PLANTED = [
    pytest.param(sc.check_reduce_engines, (3,), words, "reduce", lambda w: w,
                 id="check_reduce_engines-reduce"),
    # trimming the pass's output reduces every word of at most 7 letters right;
    # 10011101, whose pass leaves 10001, is the first it gets wrong
    pytest.param(sc.check_reduce_engines, (8,), words, "reduce", _pass_then_trim,
                 id="check_reduce_engines-reduce_without_letter_stack"),
    pytest.param(sc.check_confluence, (3,), words, "reduce", lambda w: w,
                 id="check_confluence-reduce"),
    pytest.param(sc.check_confluence, (3,), oracle, "all_terminal_words",
                 lambda w: {"101", "010"}, id="check_confluence-all_terminal_words"),
    pytest.param(sc.check_counting_identities, (6,), counting, "binomial_lt",
                 lambda n, m: binomial_lt(n, m) + (m == 3),
                 id="check_counting-binomial_lt"),
    pytest.param(sc.check_counting_identities, (6,), counting, "_binomial_and_below",
                 _bump_binomial_at_3, id="check_counting-binomial_and_below-at_3"),
    pytest.param(sc.check_counting_identities, (6,), counting, "_binomial_and_below",
                 _bump_walk("pair"), id="check_counting-binomial_and_below-pair_walk"),
    pytest.param(sc.check_counting_identities, (6,), counting, "_binomial_and_below",
                 _bump_walk("up"), id="check_counting-binomial_and_below-up_walk"),
    pytest.param(sc.check_counting_identities, (6,), counting, "_binomial_and_below",
                 _bump_walk("down"), id="check_counting-binomial_and_below-down_walk"),
    pytest.param(sc.check_count_full_summation, (4,), counting, "count_full",
                 lambda m, ell: count_full(m, ell) + (m == 2),
                 id="check_count_full_summation-count_full"),
    pytest.param(sc.check_insertion_counts, (2,), counting, "count_internal",
                 lambda ell, m: count_internal(ell, m) + (m == 2),
                 id="check_insertion_counts-count_internal"),
    pytest.param(sc.check_insertion_counts, (2,), counting, "count_full",
                 lambda m, ell: count_full(m, ell) + (m == 1),
                 id="check_insertion_counts-count_full"),
    pytest.param(sc.check_distribution, ((3, 4),), distributions, "count_full",
                 lambda m, ell: count_full(m, ell) + (m == 1),
                 id="check_distribution-count_full"),
    pytest.param(sc.check_distribution, ((3,), (words.CHIRAL,)), distributions,
                 "knot_probability", lambda knot, n: distributions.ExactProb(0, n),
                 id="check_distribution-knot_probability"),
    pytest.param(sc.check_distribution, ((3, 4),), words, "_orbit_halves",
                 _orbit_without_resized_forms,
                 id="check_distribution-words_symmetry_orbit"),
    pytest.param(sc.check_distribution, ((3, 4),), words, "_resized",
                 _last_inner_run_unswapped, id="check_distribution-words_resized"),
    # knot_probability is right, so only the per-crossing-number line can see it
    pytest.param(sc.check_distribution, ((4,),), distributions, "crossing_pmf",
                 _move_a_word_from_3_to_4, id="check_distribution-crossing_pmf"),
    # only the first of the default modes tallies a wrong histogram: every mode's
    # histogram is compared with the pmf, not just the last one's
    pytest.param(sc.check_distribution, ((4,),), oracle, "classify_terminals",
                 _move_a_mirror_word_from_3_to_4,
                 id="check_distribution-mirror_crossing_histogram"),
    pytest.param(sc.check_pmf_normalization, (7,), distributions, "count_full",
                 lambda m, ell: count_full(m, ell) + (m == 1),
                 id="check_normalization-count_full"),
    pytest.param(sc.check_pmf_reference, (13,), distributions, "count_full",
                 lambda m, ell: count_full(m, ell) + (m == 1),
                 id="check_pmf_reference-count_full"),
    # the total and every division stay right, so only the comparison sees it
    pytest.param(sc.check_pmf_reference, (13,), distributions, "crossing_pmf",
                 _move_a_word_from_3_to_4, id="check_pmf_reference-crossing_pmf"),
    # the pmf's run-time certificate raises, and _run grades the raise a failure
    pytest.param(sc.check_pmf_reference, (13,), _crossing_recurrence, "P", WRONG_TABLE,
                 id="check_pmf_reference-recurrence_table"),
    # no step reaches the wrong difference below n = 12, so size 7 misses it
    pytest.param(sc.check_pmf_reference, (20,), _crossing_recurrence,
                 "coefficient_streams", _top_difference_of_p3_one_too_high,
                 id="check_pmf_reference-top_difference"),
    # p_1 one too high at the first step, c = n - 1, next to the seed counts[n] = 2
    pytest.param(sc.check_pmf_normalization, (7,), _crossing_recurrence,
                 "coefficient_streams", _first_p1_one_too_high,
                 id="check_pmf_normalization-top_value"),
    pytest.param(sc.check_sampler_crossings, (6,), sampler, "_external_moves",
                 _prefix_moves_only, id="check_sampler_crossings-external_moves"),
    pytest.param(sc.check_class_invariance, (2,), words, "knot_class",
                 lambda w: knot_class(w if len(w) < 9 else w[3:]),
                 id="check_class_invariance-knot_class"),
    # the class stays right, so only the residue of the reduced length sees it
    pytest.param(sc.check_class_invariance, (2,), words, "reduce",
                 _resized_terminal_past_6_letters, id="check_class_invariance-reduce"),
    pytest.param(sc.check_location_roundtrip, (2, 1), insertions, "location_map",
                 lambda w, wp: None, id="check_location_roundtrip-location_map_none"),
    pytest.param(sc.check_location_roundtrip, (2, 1), insertions, "location_map",
                 lambda w, wp: (),
                 id="check_location_roundtrip-location_map_empty"),
    pytest.param(sc.check_location_roundtrip, (2, 1), insertions, "reconstruct",
                 lambda w, m, locs: SimpleNamespace(word=None),
                 id="check_location_roundtrip-reconstruct"),
    pytest.param(sc.check_feasibility, (2, 2), insertions, "is_feasible",
                 lambda size, locs: True, id="check_feasibility-is_feasible"),
    pytest.param(sc.check_phi_gradient, (1,), distributions, "phi_gradient",
                 lambda x, y: (0.0, 0.0), id="check_phi_gradient-phi_gradient"),
    pytest.param(sc.check_alpha_gap, ((99, 300, 999),), distributions, "alpha_rate",
                 lambda knot, n: SimpleNamespace(gap=n / 1000),
                 id="check_alpha_gap-alpha_rate"),
]


def test_the_wrong_table_fails_the_pmf_certificate_at_a_division(monkeypatch):
    monkeypatch.setattr(_crossing_recurrence, "P", WRONG_TABLE)
    for n in (3, 4):  # p_3 multiplies counts[c+3], which is 0 above c = n - 3
        assert crossing_pmf(n) == oracle.crossing_pmf_by_double_sum(n)
    for n in (6, 9, 301):
        with pytest.raises(AssertionError,
                           match=f"crossing_pmf[(]{n}[)]: division at c={n - 3} "):
            crossing_pmf(n)


def test_a_wrong_top_difference_shows_only_past_length_10(monkeypatch):
    monkeypatch.setattr(_crossing_recurrence, "coefficient_streams",
                        _top_difference_of_p3_one_too_high)
    for n in (3, 4, 6, 7, 9, 10):
        assert crossing_pmf(n) == oracle.crossing_pmf_by_double_sum(n)
    with pytest.raises(AssertionError, match="crossing_pmf[(]12[)]: division at c=3 "):
        crossing_pmf(12)


def test_a_wrong_top_count_fails_the_pmf_certificate(monkeypatch):
    # counts[n - 1] comes from the first step, so its division already fails;
    # n = 3 takes no step, and its one crossing count is the seed
    monkeypatch.setattr(_crossing_recurrence, "coefficient_streams",
                        _first_p1_one_too_high)
    assert crossing_pmf(3) == oracle.crossing_pmf_by_double_sum(3)
    for n in (4, 7, 301):
        with pytest.raises(AssertionError,
                           match=f"crossing_pmf[(]{n}[)]: division at c={n - 1} leaves"):
            crossing_pmf(n)


@pytest.mark.parametrize("check,args,module,name,wrong", PLANTED)
def test_shared_check_catches_a_planted_fault(check, args, module, name, wrong,
                                              monkeypatch):
    # graded by the same _run as run_selfcheck, so a check that raises fails here too
    monkeypatch.setattr(counting, "_anchor", (0, 0, 1, 0))  # no wrong pair outlives it
    ok, passed = sc._run(check, args)
    assert ok, passed
    monkeypatch.setattr(module, name, wrong)
    ok, detail = sc._run(check, args)
    assert not ok
    assert detail and detail != passed


def test_pmf_reference_names_the_first_count_that_differs(monkeypatch):
    monkeypatch.setattr(distributions, "crossing_pmf", _move_a_word_from_3_to_4)
    ok, detail = sc.check_pmf_reference(13)
    assert not ok
    assert detail.startswith("n=4 c=3:"), detail


def test_reduce_engines_need_8_letters_to_see_a_skipped_letter_stack(monkeypatch):
    monkeypatch.setattr(words, "reduce", _pass_then_trim)
    for n in range(3, 8):
        assert sc.check_reduce_engines(n) == (True, f"all words up to length {n}")
    assert sc.check_reduce_engines(8) == (False, "'10011101': '11' != '10001'")


def test_class_invariance_names_the_reduced_length_residue(monkeypatch):
    monkeypatch.setattr(words, "reduce", _resized_terminal_past_6_letters)
    ok, detail = sc.check_class_invariance(2)
    assert not ok
    assert "reduced length mod 3" in detail, detail


def test_every_check_has_a_planted_fault():
    planted = {param.values[0].__name__ for param in PLANTED}
    checks = {fn.__name__ for fn, _, _ in sc.SELFCHECKS} | {"check_sampler_crossings"}
    assert checks - planted == set()


def test_selfcheck_command_fails_on_a_planted_fault(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "all_terminal_words", lambda w: {"101", "010"})
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  confluence: " in out
    assert out.count("PASS") == 6


def test_selfcheck_command_reports_a_check_that_raises(monkeypatch, capsys):
    assert main(["selfcheck"]) == 0
    passing = capsys.readouterr().out.splitlines()
    real = distributions.count_full
    monkeypatch.setattr(distributions, "count_full", lambda m, ell: real(m, ell) * 4)
    assert main(["selfcheck"]) == 1  # not 2: the raise is a failed check, not bad input
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == passing[:4]  # the checks before it ran and passed
    assert lines[4] == "FAIL  distribution: ValueError: probability above 1"
    assert lines[-1] == passing[-1]  # and the checks after it still ran
    assert lines[-1].startswith("PASS  location-roundtrip")
    # a failed pmf certificate reads the same in every row that builds the pmf
    monkeypatch.undo()
    monkeypatch.setattr(_crossing_recurrence, "coefficient_streams",
                        _first_p1_one_too_high)
    assert main(["selfcheck"]) == 1
    rows = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    detail = rows["FAIL  distribution"]
    assert detail.startswith("AssertionError: crossing_pmf(4): division at c=3 "), detail
    assert rows["FAIL  pmf-normalization"] == detail


def test_distribution_check_names_lengths_given_as_a_generator():
    check = sc.check_distribution(n for n in (3, 4))
    assert check == (True, "n in [3, 4]")


@pytest.fixture(scope="module")
def deep_results():
    return sc.run_selfcheck(deep=True)


def test_deep_selfcheck_passes_and_audits_the_pmf_reference(deep_results):
    assert [name for name, ok, _ in deep_results if not ok] == []
    assert ("pmf-reference", True, "n up to 60") in deep_results


def test_each_check_reports_its_function_name(deep_results):
    # run_selfcheck names a check that raises by the same rule
    names = [fn.__name__.removeprefix("check_").replace("_", "-")
             for fn, _, _ in sc.SELFCHECKS]
    assert [name for name, _, _ in deep_results] == names


def test_selfcheck_runs_every_check_but_the_sampler_one():
    checks = {name for name in vars(sc) if name.startswith("check_")}
    rows = {fn.__name__ for fn, _, _ in sc.SELFCHECKS}
    assert checks - rows == {"check_sampler_crossings"}
