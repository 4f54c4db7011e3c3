"""The benchmark's checks accept right answers and reject planted wrong ones.

    PYTHONPATH=src python -m pytest benchmarks

Each test builds a right answer from the program, shows the check passes
it, then plants one wrong value and shows the check rejects it.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import pytest

import billiardknots as bk
import checks
import workloads
from tracer import LAYER_METRICS


def _pmf_json(n):
    return bk.crossing_pmf(n).to_json()


def _bump(fraction: str, delta: int) -> str:
    num, den = fraction.split("/")
    return f"{int(num) + delta}/{den}"


# ---------------------------------------------------------------- word calculus


def test_reference_reduce_matches_program_on_all_short_words():
    for n in range(10):
        for v in range(1 << n):
            w = format(v, f"0{n}b") if n else ""
            mine, theirs = checks.full_reduce(w), bk.reduce(w)
            assert mine == theirs or (mine in checks.UNKNOT_FORMS
                                      and theirs in checks.UNKNOT_FORMS)


def test_knot_catalogue_has_the_26_knots_and_program_agrees():
    catalogue = workloads.knot_catalogue()
    assert [sum(k["crossing_number"] == c for k in catalogue) for c in range(3, 9)] \
        == [1, 1, 2, 3, 7, 12]
    for k in catalogue:
        got = bk.knot_class(k["canonical"]).to_json()
        assert checks.check_decay_class(k["canonical"], got, k) == []


# ------------------------------------------------------------------------ pmf


def test_pmf_check_accepts_the_program_and_rejects_planted_errors():
    n = 301
    out = _pmf_json(n)
    trefoil = str(bk.knot_probability(bk.knot_class("101"), n))
    assert checks.check_pmf(n, out, trefoil) == []

    moved = copy.deepcopy(out)  # mass moved between two classes: still sums to 1
    moved["pmf"]["3"] = _bump(moved["pmf"]["3"], 2)
    moved["pmf"]["4"] = _bump(moved["pmf"]["4"], -2)
    assert checks.check_pmf(n, moved, trefoil)

    lost = copy.deepcopy(out)
    lost["pmf"]["150"] = _bump(lost["pmf"]["150"], -1)
    assert checks.check_pmf(n, lost, trefoil)

    top = copy.deepcopy(out)  # masses[n] != 2/2^n, compensated at n-1
    top["pmf"][str(n)] = _bump(top["pmf"][str(n)], 2)
    top["pmf"][str(n - 1)] = _bump(top["pmf"][str(n - 1)], -2)
    assert checks.check_pmf(n, top, trefoil)


def test_pmf_oracle_check_rejects_a_wrong_small_pmf():
    n = 10
    counts = bk.exact_distribution(n).crossing_counts
    out = _pmf_json(n)
    assert checks.check_pmf_oracle(n, out, counts) == []
    wrong = copy.deepcopy(out)
    wrong["pmf"]["5"] = _bump(wrong["pmf"]["5"], 2)
    wrong["pmf"]["6"] = _bump(wrong["pmf"]["6"], -2)
    assert checks.check_pmf_oracle(n, wrong, counts)


# ---------------------------------------------------------------------- decay


def test_decay_ladder_check_rejects_a_gap_that_grows():
    trefoil = bk.knot_class("101")
    gaps = [(n, bk.alpha_rate(trefoil, n).gap) for n in (1500, 2700, 3900)]
    assert checks.check_decay_ladder(gaps) == []
    planted = [gaps[0], (gaps[1][0], gaps[0][1] * 1.01), gaps[2]]
    assert checks.check_decay_ladder(planted) == [1]
    assert checks.check_decay_ladder([gaps[0], gaps[1], gaps[1]]) == [2]


def test_decay_rate_and_class_checks_reject_wrong_values():
    rep = bk.alpha_rate(bk.knot_class("101"), 1500)
    assert checks.check_decay_rate(1500, rep.log2_rate, rep.gap) == []
    assert checks.check_decay_rate(1500, rep.log2_rate, rep.gap * 1.001)
    want = checks.knot_key("1010010")
    got = bk.knot_class("000" + "1010010" + "100").to_json()
    assert checks.check_decay_class("w", got, want) == []
    assert checks.check_decay_class("w", dict(got, r=got["r"] + 1), want)
    assert checks.check_decay_class("w", dict(got, canonical="101"), want)


def test_probability_oracle_check_rejects_an_off_by_one_count():
    n = 13
    dist = bk.exact_distribution(n)
    for canonical, cls in dist.classes.items():
        prob = str(bk.knot_probability(cls, n))
        assert checks.check_probability_oracle(n, canonical, prob, dist.counts) == []
    canonical = "101"
    prob = _bump(str(bk.knot_probability(bk.knot_class(canonical), n)), 1)
    assert checks.check_probability_oracle(n, canonical, prob, dist.counts)


# --------------------------------------------------------------------- sample


def _exact(n):
    pmf = bk.crossing_pmf(n)
    out = {0: pmf.unknot_mass.fraction}
    out.update((c, p.fraction) for c, p in pmf.masses.items())
    return {c: p for c, p in out.items() if p}


def test_sample_checks_reject_wrong_totals_and_biased_histograms():
    rep = bk.sample_pmf(30, 20000, seed=11, workers=2)
    assert checks.check_sample_counts(20000, rep.counts) == []
    assert checks.check_sample_counts(20001, rep.counts)
    exact = _exact(30)
    assert checks.check_sample_pooled(30, rep.counts, exact) == []

    biased = dict(rep.counts)  # 3% of the sample moved from c=9 to c=10
    shift = 600
    biased[9] -= shift
    biased[10] += shift
    assert checks.check_sample_pooled(30, biased, exact)

    impossible = dict(rep.counts)
    impossible[31] = 1
    assert checks.check_sample_pooled(30, impossible, exact)


def test_sample_check_on_the_wrong_length_pmf_fails():
    rep = bk.sample_pmf(30, 20000, seed=5)
    assert checks.check_sample_pooled(30, rep.counts, _exact(31))


def _sample_run(round_counts, rerun):
    op = {"n": 30, "count": 20000, "seed": 5, "workers": 1}

    def line(counts):
        return {"lat": 0.1, "out": {"counts": {str(c): k for c, k in counts.items()},
                                    "sample_count": 20000, "seed": 5, "workers": 1}}

    rounds = [{"ops": [line(c)], "summary": {}} for c in round_counts]
    rounds[0]["summary"] = {"extras": {"rerun": line(rerun)["out"]}}
    return {"spec": {"ops": [op]}, "rounds": rounds}


def test_sample_determinism_check_rejects_a_report_that_changes():
    import run
    program = run.Program()
    counts = bk.sample_pmf(30, 20000, seed=5).counts
    assert run.check_worker_run("sample", _sample_run([counts, counts], counts),
                                program) == (set(), [])
    moved = dict(counts)
    moved[9] -= 1
    moved[10] += 1
    failed, errors = run.check_worker_run("sample", _sample_run([counts, moved], counts),
                                          program)
    assert failed == {(1, 0)} and errors
    failed, errors = run.check_worker_run("sample", _sample_run([counts], moved), program)
    assert errors


# ------------------------------------------------------------------------ cli


def _cli(capsys, argv):
    from billiardknots.cli import main
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_cli_reduce_check(capsys):
    word = "1000110111010"
    rc, out = _cli(capsys, ["reduce", word])
    op = {"kind": "reduce", "expect": 0, "word": word}
    refs = {"terminals": bk.all_terminal_words(word)}
    assert checks.check_cli(op, rc, out, refs) == []
    assert checks.check_cli(op, rc, "1000\n", refs)  # has a legal move
    assert checks.check_cli(op, rc, "10\n", refs)  # wrong length mod 3
    assert checks.check_cli(op, rc, "0110110\n", {"terminals": {"1010"}})
    assert checks.check_cli(op, 2, out, refs)  # wrong exit code


def test_cli_moves_and_class_checks(capsys):
    word = "0001101110"
    rc, out = _cli(capsys, ["moves", word])
    op = {"kind": "moves", "expect": 0, "word": word}
    assert checks.check_cli(op, rc, out, {}) == []
    assert checks.check_cli(op, rc, "\n".join(out.splitlines()[:-1]), {})

    word = "0001011010011"
    for flags, chiral in (([], False), (["--chiral"], True)):
        rc, out = _cli(capsys, ["class", word, "--format", "json"] + flags)
        op = {"kind": "class", "expect": 0, "word": word, "chiral": chiral}
        assert checks.check_cli(op, rc, out, {}) == []
        for key, delta in (("crossing_number", 1), ("r", 1), ("ell0", 3)):
            wrong = json.loads(out)
            wrong[key] += delta
            assert checks.check_cli(op, rc, json.dumps(wrong), {})


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_cli_pmf_check_rejects_fractions_not_summing_to_one(capsys, fmt):
    rc, out = _cli(capsys, ["pmf", "--n", "19", "--format", fmt])
    op = {"kind": "pmf", "expect": 0, "n": 19, "format": fmt}
    assert checks.check_cli(op, rc, out, {}) == []
    den = str(1 << 19)
    planted = out.replace(f"2/{den}", f"3/{den}").replace(f",2,{den}", f",3,{den}")
    assert planted != out
    assert checks.check_cli(op, rc, planted, {})


def test_cli_prob_and_rate_checks(capsys):
    rc, out = _cli(capsys, ["prob", "101", "--n", "30"])
    op = {"kind": "prob", "expect": 0, "n": 30}
    assert checks.check_cli(op, rc, out, {}) == []
    assert checks.check_cli(dict(op, n=31), rc, out, {})
    rc, out = _cli(capsys, ["rate", "--word", "101", "--n", "300"])
    op = {"kind": "rate", "expect": 0, "n": 300}
    assert checks.check_cli(op, rc, out, {}) == []
    assert checks.check_cli(op, rc, out.replace("gap 0.", "gap 1."), {})


def test_cli_enumerate_check(capsys):
    n = 10
    pmf = bk.crossing_pmf(n)
    nums = {0: pmf.unknot_mass.numerator}
    nums.update((c, p.numerator) for c, p in pmf.masses.items())
    rc, out = _cli(capsys, ["enumerate", "--n", str(n), "--format", "json"])
    op = {"kind": "enumerate", "expect": 0, "n": n}
    assert checks.check_cli(op, rc, out, {"pmf_numerators": nums}) == []
    wrong = dict(nums)
    wrong[3] += 1
    wrong[4] -= 1
    assert checks.check_cli(op, rc, out, {"pmf_numerators": wrong})
    counted = json.loads(out)
    canonical = next(iter(counted["counts"]))
    counted["counts"][canonical] = str(int(counted["counts"][canonical]) + 1)
    assert checks.check_cli(op, rc, json.dumps(counted), {"pmf_numerators": nums})


def test_cli_insertions_and_trace_checks(capsys):
    rc, out = _cli(capsys, ["insertions", "1001", "--m", "2"])
    op = {"kind": "insertions", "expect": 0, "word": "1001", "m": 2}
    refs = {"count_full": bk.count_full(2, 4)}
    assert checks.check_cli(op, rc, out, refs) == []
    lines = out.splitlines()
    planted = "\n".join([lines[0][::-1] if lines[0][::-1] not in lines else "1" * 10]
                        + lines[1:])
    assert checks.check_cli(op, rc, planted, refs)
    assert checks.check_cli(op, rc, out, {"count_full": refs["count_full"] + 1})

    rc, out = _cli(capsys, ["trace", "101", "--m", "2", "--locations", "1,5"])
    op = {"kind": "trace", "expect": 0, "word": "101", "m": 2, "locations": [1, 5]}
    assert checks.check_cli(op, rc, out, {}) == []
    assert checks.check_cli(op, rc, out.replace("success ", "success 1"), {})
    rc, out = _cli(capsys, ["trace", "101", "--m", "2", "--locations", "8,9"])
    op = {"kind": "trace", "expect": 0, "word": "101", "m": 2, "locations": [8, 9]}
    assert checks.check_cli(op, rc, out, {}) == []
    assert checks.check_cli(op, rc, "result: success 000101000\n", {})


def test_cli_render_and_selfcheck_checks(capsys, tmp_path):
    path = tmp_path / "k.svg"
    rc, out = _cli(capsys, ["render", "1010010", "--out", str(path)])
    op = {"kind": "render", "expect": 0, "word": "1010010"}
    assert checks.check_cli(op, rc, out, {"svg_path": str(path)}) == []
    text = path.read_text()
    broken = tmp_path / "broken.svg"
    broken.write_text(text.replace("</svg>", "</sv>"))
    assert checks.check_cli(op, rc, out, {"svg_path": str(broken)})

    lines = ["PASS  a: ok", "PASS  b: ok"]
    op = {"kind": "selfcheck", "expect": 0}
    assert checks.check_cli(op, 0, "\n".join(lines), {}) == []
    assert checks.check_cli(op, 0, "\n".join(lines + ["FAIL  c: n=3"]), {})
    assert checks.check_cli(op, 0, "", {})


def test_cli_invalid_input_exit_codes(capsys):
    rc, _ = _cli(capsys, ["pmf", "--n", "5"])
    assert checks.check_cli({"kind": "pmf", "expect": 2}, rc, "", {}) == []
    assert checks.check_cli({"kind": "pmf", "expect": 2}, 0, "", {})
    rc, _ = _cli(capsys, ["enumerate", "--n", "25"])
    assert checks.check_cli({"kind": "enumerate", "expect": 3}, rc, "", {}) == []


# -------------------------------------------------------------- the contract


def test_benchmark_json_lists_every_metric_the_run_prints():
    import run
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_rounds_are_seeded():
    assert workloads.pmf_round(3) == workloads.pmf_round(3)
    assert workloads.pmf_round(3) != workloads.pmf_round(4)
    lengths = [op["n"] for op in workloads.pmf_round(3)["ops"]]
    assert len(set(lengths)) == len(lengths) and all(n % 3 != 2 for n in lengths)
    assert workloads.cli_round(3, "d") == workloads.cli_round(3, "d")
    assert Fraction(sum(op["workers"] == 2 for op in workloads.sample_round(1)["ops"]),
                    len(workloads.SAMPLE_CALLS)) == Fraction(1, 2)


def test_latencies_are_scaled_by_the_calibrations_around_their_group():
    import run
    # calibration 0 precedes ops 0-1, calibration 1 ops 2-3, calibration 2 follows
    got = run._scaled_latencies([0.2, 0.4, 0.3], [0.02, 0.06, 0.04], 2, 0.04)
    assert got == pytest.approx([0.2, 0.4, 0.24])
    assert run._scaled_latencies([None, None], [], 2, 0.04) == [None, None]
