"""Each shared check fails when the function it audits gives a wrong answer.

The acceptance suite and the unit tests assert on these checks, so a check
that always passed would hide every fault.
"""

from types import SimpleNamespace

import pytest

from billiardknots import counting, distributions, insertions, oracle, sampler, words
from billiardknots import selfcheck as sc
from billiardknots.cli import main

# the originals, which the stand-ins call once the module attribute is patched
binomial_lt, count_full = counting.binomial_lt, counting.count_full
binomial_and_below = counting._binomial_and_below
count_internal = counting.count_internal
knot_class, symmetry_orbit = words.knot_class, words.symmetry_orbit
orbit_halves = words._orbit_halves
crossing_pmf = distributions.crossing_pmf
external_moves = sampler._external_moves


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
    counts = dict(crossing_pmf(n).counts)
    counts[3] -= 1
    counts[4] += 1
    return distributions.CrossingPmf(n, counts)


def _orbit_without_resized_forms(w, mode):  # only the terminal's own length
    return orbit_halves(w, mode)[0], frozenset()


def _last_inner_run_unswapped(w):  # resize, but the last inner run keeps its length
    first, lengths = words.runs(w)
    inner = (*(3 - n for n in lengths[1:-2]), lengths[-2])
    return words.RunDecomposition(first, (1, *inner, 1)).word()


def _prefix_moves_only(stack, first, last, step):  # the suffix moves dropped
    if step == 1:
        external_moves(stack, first, last, step)


# (a check, its arguments at a small size, module, name, wrong stand-in),
# named by id; the ids keep the earlier names check_counting and
# check_normalization, so that each test keeps its name
PLANTED = [
    pytest.param(sc.check_reduce_engines, (3,), words, "reduce", lambda w: w,
                 id="check_reduce_engines-reduce"),
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
    # the oracle shares each class over the orbit its lookup names: "101" and
    # "010" are mirror images, so different chiral classes
    pytest.param(sc.check_distribution, ((3,), (words.CHIRAL,)), oracle,
                 "symmetry_orbit", lambda w, mode: symmetry_orbit(w, mode) | {"101"},
                 id="check_distribution-oracle_symmetry_orbit"),
    pytest.param(sc.check_distribution, ((3, 4),), words, "_orbit_halves",
                 _orbit_without_resized_forms,
                 id="check_distribution-words_symmetry_orbit"),
    pytest.param(sc.check_distribution, ((3, 4),), words, "_resized",
                 _last_inner_run_unswapped, id="check_distribution-words_resized"),
    # knot_probability is right, so only the per-crossing-number line can see it
    pytest.param(sc.check_distribution, ((4,),), distributions, "crossing_pmf",
                 _move_a_word_from_3_to_4, id="check_distribution-crossing_pmf"),
    pytest.param(sc.check_pmf_normalization, (7,), distributions, "count_full",
                 lambda m, ell: count_full(m, ell) + (m == 1),
                 id="check_normalization-count_full"),
    pytest.param(sc.check_pmf_reference, (13,), distributions, "count_full",
                 lambda m, ell: count_full(m, ell) + (m == 1),
                 id="check_pmf_reference-count_full"),
    pytest.param(sc.check_sampler_crossings, (6,), sampler, "_external_moves",
                 _prefix_moves_only, id="check_sampler_crossings-external_moves"),
    pytest.param(sc.check_class_invariance, (2,), words, "knot_class",
                 lambda w: knot_class(w if len(w) < 9 else w[3:]),
                 id="check_class_invariance-knot_class"),
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


@pytest.mark.parametrize("check,args,module,name,wrong", PLANTED)
def test_shared_check_catches_a_planted_fault(check, args, module, name, wrong,
                                              monkeypatch):
    monkeypatch.setattr(counting, "_anchor", (0, 0, 1, 0))  # no wrong pair outlives it
    ok, passed = check(*args)
    assert ok, passed
    monkeypatch.setattr(module, name, wrong)
    ok, detail = check(*args)
    assert not ok
    assert detail and detail != passed


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
