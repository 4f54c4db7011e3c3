import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from time import perf_counter

from hypothesis import given, settings, strategies as st

from billiardknots import cli, distributions, insertions, render, sampler, words
from billiardknots.cli import main
from billiardknots.words import knot_class


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "0011")
    assert code == 0
    assert out.strip() == "1"


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", "100001001110", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["reduced"] == "101"
    assert data["crossing_number"] == 3


def test_reduce_reduces_its_input_once(capsys, monkeypatch):
    seen = []
    original = words.reduce
    monkeypatch.setattr(words, "reduce", lambda w: seen.append(w) or original(w))
    code, out, _ = run(capsys, "reduce", "100001001110")
    assert (code, out) == (0, "101\n")
    assert seen == ["100001001110", "101"]  # the crossing number reads the terminal


def test_moves_command(capsys):
    code, out, _ = run(capsys, "moves", "10100")
    assert code == 0
    assert "external-suffix@3: 100" in out
    code, out, _ = run(capsys, "moves", "101")
    assert "(no moves)" in out


def test_class_command(capsys):
    code, out, _ = run(capsys, "class", "101", "--format", "json")
    data = json.loads(out)
    assert data["canonical"] == "010" and data["r"] == 2
    code, out, _ = run(capsys, "class", "101", "--chiral", "--format", "json")
    assert json.loads(out)["canonical"] == "101"
    code, out, _ = run(capsys, "class", "000")  # no pin runs an unknot word
    assert out == "canonical (empty)  ell0=0 ell1=1 r=1 c=0  [unknot]\n"


def test_prob_command(capsys):
    code, out, _ = run(capsys, "prob", "101", "--n", "6")
    assert code == 0
    assert out.startswith("18/64")
    code, out, _ = run(capsys, "prob", "101", "--n", "5")
    assert code == 2


def test_pmf_command_formats(capsys):
    code, out, _ = run(capsys, "pmf", "--n", "6", "--format", "json")
    data = json.loads(out)
    assert data["pmf"]["3"] == "18/64" and data["unknot"] == "36/64"
    code, out, _ = run(capsys, "pmf", "--n", "6", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "c,numerator,denominator,float"
    assert lines[1].startswith("0,36,64")


def test_length_zero_is_the_unknot(capsys):
    code, out, _ = run(capsys, "pmf", "--n", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 0, "unknot": "1/1", "pmf": {}}
    code, out, _ = run(
        capsys, "sample", "--n", "0", "--count", "10", "--seed", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["empirical"] == {"0": 1.0} and data["tv_distance_to_exact"] == 0.0


def test_prob_prints_exact_fractions_past_the_digit_limit(capsys):
    # 2**14287 has 4301 decimal digits, one more than Python's default limit
    # (cli's own limit accessors, which also run on releases without a limit)
    limit = cli._get_digit_limit()
    code, out, _ = run(capsys, "prob", "101", "--n", "14287", "--format", "json")
    assert code == 0
    assert cli._get_digit_limit() == limit  # lifted only inside main
    printed = json.loads(out)["probability"]
    assert len(printed.split("/")[1]) == 4301
    p = distributions.knot_probability(knot_class("101"), 14287)
    cli._set_digit_limit(0)
    try:
        assert printed == str(p)
    finally:
        cli._set_digit_limit(limit)


def test_prob_and_rate_guard(capsys, monkeypatch):
    def never(knot, n):
        raise AssertionError(f"knot_probability ran at n={n}")

    monkeypatch.setattr(distributions, "knot_probability", never)
    for argv in (("prob", "101"), ("rate", "--word", "101")):
        code, out, err = run(capsys, *argv, "--n", "100003")
        assert code == 3, argv
        assert out == "" and "n=100003 exceeds the prob/rate guard 100000" in err
        monkeypatch.setenv("BILLIARDKNOTS_MAX_PROB_N", "9")
        code, _, err = run(capsys, *argv, "--n", "10")
        assert code == 3 and "guard 9" in err
        code, _, err = run(capsys, *argv, "--n", "11")  # invalid length first
        assert code == 2
        monkeypatch.delenv("BILLIARDKNOTS_MAX_PROB_N")


def test_pmf_guard(capsys, monkeypatch):
    real = distributions.crossing_pmf

    def small_only(n):
        assert n <= 9, f"crossing_pmf ran at n={n}"
        return real(n)

    monkeypatch.setattr(distributions, "crossing_pmf", small_only)
    code, out, err = run(capsys, "pmf", "--n", "4003")
    assert code == 3
    assert out == "" and "n=4003 exceeds the pmf guard 4000" in err
    code, _, _ = run(capsys, "pmf", "--n", "4004")  # invalid length first
    assert code == 2
    monkeypatch.setenv("BILLIARDKNOTS_MAX_PMF_N", "9")
    code, _, err = run(capsys, "pmf", "--n", "10")
    assert code == 3 and "n=10 exceeds the pmf guard 9" in err
    code, out, _ = run(capsys, "pmf", "--n", "9")
    assert code == 0 and out.startswith("c=0 (unknot)")


def test_trace_guard(capsys, monkeypatch):
    real = insertions.reconstruct

    def small_only(w, m, locations):
        assert len(w) + 3 * m <= 9, f"reconstruct ran at m={m}"
        return real(w, m, locations)

    monkeypatch.setattr(insertions, "reconstruct", small_only)
    code, out, err = run(capsys, "trace", "101", "--m", "1000")
    assert code == 3
    assert out == "" and "len(word) + 3m=3003 exceeds the trace guard 3000" in err
    code, _, _ = run(capsys, "trace", "10x", "--m", "1000")  # invalid word first
    assert code == 2
    monkeypatch.setenv("BILLIARDKNOTS_MAX_TRACE_LEN", "8")
    argv = ("trace", "101", "--m", "2", "--locations", "1,5")
    code, _, err = run(capsys, *argv)
    assert code == 3 and "=9 exceeds the trace guard 8" in err
    monkeypatch.setenv("BILLIARDKNOTS_MAX_TRACE_LEN", "9")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "success 000111101" in out


def test_sample_guard(capsys, monkeypatch):
    real = sampler.sample_pmf

    def small_only(n, count, seed, workers=1, exact=None):
        assert n * count <= 3 * 4096, f"sample_pmf ran at n={n}, count={count}"
        return real(n, count, seed, workers=workers, exact=exact)

    monkeypatch.setattr(sampler, "sample_pmf", small_only)
    code, out, err = run(capsys, "sample", "--n", "300", "--count", "166667",
                         "--seed", "1")
    assert code == 3
    assert out == "" and (
        "max(n, 1) * max(count, 4096)=50000100 "
        "exceeds the sample guard 50000000" in err)
    # a few words of a long length count as one full batch
    code, _, err = run(capsys, "sample", "--n", "12208", "--count", "1", "--seed", "1")
    assert code == 3 and "=50003968 exceeds" in err
    code, _, _ = run(capsys, "sample", "--n", "302", "--count", "10000000",
                     "--seed", "1")
    assert code == 2  # invalid length first
    monkeypatch.setenv("BILLIARDKNOTS_MAX_SAMPLE_LETTERS", "12287")
    argv = ("sample", "--n", "3", "--count", "4000", "--seed", "1")
    code, _, err = run(capsys, *argv)
    assert code == 3 and "=12288 exceeds the sample guard 12287" in err
    monkeypatch.setenv("BILLIARDKNOTS_MAX_SAMPLE_LETTERS", "12288")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("n=3 count=4000 seed=1")


def test_sample_guard_charges_workers(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sample_pmf ran past the guard")

    argv = ("sample", "--n", "3", "--count", "10000000", "--workers", "10000000",
            "--seed", "1")
    monkeypatch.setattr(sampler, "sample_pmf", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and (
        "max(n, 1) * max(count, 4096) + 1500 * (min(workers, count) - 1)"
        "=15029998500 exceeds the sample guard 50000000" in err)
    monkeypatch.undo()
    # only workers that draw are charged, and each after the first as 1500 letters
    argv = ("sample", "--n", "3", "--count", "4000", "--workers", "4", "--seed", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("n=3 count=4000 seed=1 workers=4")
    monkeypatch.setenv("BILLIARDKNOTS_MAX_SAMPLE_LETTERS", str(12288 + 3 * 1500 - 1))
    code, _, err = run(capsys, *argv)
    assert code == 3 and "=16788 exceeds the sample guard 16787" in err
    monkeypatch.setenv("BILLIARDKNOTS_MAX_SAMPLE_LETTERS", "16788")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("n=3 count=4000 seed=1 workers=4")
    # 4 words: only 4 of the 1000 workers draw
    code, out, _ = run(capsys, "sample", "--n", "3", "--count", "4",
                       "--workers", "1000", "--seed", "1")
    assert code == 0 and out.startswith("n=3 count=4 seed=1 workers=1000")


def test_sample_guard_charges_empty_words(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sample_pmf ran past the guard")

    # each word of length 0 is charged as one letter, so the count is bounded
    monkeypatch.setattr(sampler, "sample_pmf", refuse)
    code, out, err = run(capsys, "sample", "--n", "0", "--count", "1000000000000",
                         "--seed", "1")
    assert code == 3 and out == "" and (
        "max(n, 1) * max(count, 4096)=1000000000000 "
        "exceeds the sample guard 50000000" in err)


def test_render_guard(capsys, monkeypatch, tmp_path):
    drawn = []

    def stand_in(w, flip_crossings=False):
        drawn.append(len(w))
        return "<svg/>"

    monkeypatch.setattr(render, "render_svg", stand_in)
    out_path = str(tmp_path / "long.svg")
    code, out, err = run(capsys, "render", "1" * 50_001, "--out", out_path)
    assert code == 3
    assert out == "" and "len(word)=50001 exceeds the render guard 50000" in err
    # an invalid length or word exits 2 before the guard
    code, _, _ = run(capsys, "render", "1" * 50_003, "--out", out_path)
    assert code == 2
    code, _, _ = run(capsys, "render", "1" * 50_000 + "x", "--out", out_path)
    assert code == 2
    assert drawn == [] and not os.path.exists(out_path)
    monkeypatch.setenv("BILLIARDKNOTS_MAX_RENDER_LEN", "50001")
    code, _, _ = run(capsys, "render", "1" * 50_001, "--out", out_path)
    assert code == 0 and drawn == [50_001]
    monkeypatch.setenv("BILLIARDKNOTS_MAX_RENDER_LEN", "3")
    code, _, err = run(capsys, "render", "1010", "--out", out_path)
    assert code == 3 and "len(word)=4 exceeds the render guard 3" in err
    monkeypatch.setenv("BILLIARDKNOTS_MAX_RENDER_LEN", "4")
    code, _, _ = run(capsys, "render", "1010", "--out", out_path)
    assert code == 0 and drawn == [50_001, 4]


def test_rate_command(capsys):
    code, out, _ = run(capsys, "rate", "--word", "101", "--n", "99", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["target"] + 0.0817) < 1e-3
    assert data["gap"] < 0.05


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"": "12", "010": "2", "0101": "2"}


def test_enumerate_guard_env(capsys, monkeypatch):
    code, out, err = run(capsys, "enumerate", "--n", "18")
    assert code == 3  # the guard trips before any word is enumerated
    assert out == "" and "n=18 exceeds the enumeration guard 16" in err
    monkeypatch.setenv("BILLIARDKNOTS_MAX_ENUM_N", "3")
    code, _, err = run(capsys, "enumerate", "--n", "4")
    assert code == 3
    assert "guard" in err
    for bad in ("not-a-number", "-5"):
        monkeypatch.setenv("BILLIARDKNOTS_MAX_ENUM_N", bad)
        code, _, err = run(capsys, "enumerate", "--n", "3")
        assert code == 2, bad
        assert "BILLIARDKNOTS_MAX_ENUM_N" in err


def test_insertions_command(capsys):
    code, out, _ = run(
        capsys, "insertions", "101", "--m", "1", "--internal-only", "--format", "json"
    )
    data = json.loads(out)
    assert data["count"] == 5
    code, out, _ = run(capsys, "insertions", "101", "--m", "1", "--format", "json")
    assert json.loads(out)["count"] == 9
    code, out, err = run(capsys, "insertions", "010101010", "--m", "1")
    assert code == 3
    assert out == "" and "len(word)=9 exceeds the insertions guard 8" in err


def test_trace_command(capsys):
    code, out, _ = run(capsys, "trace", "101", "--m", "2", "--locations", "1,5")
    assert code == 0
    assert "success 000111101" in out
    code, out, _ = run(capsys, "trace", "101", "--m", "2", "--locations", "1,8")
    assert "failure" in out
    code, out, _ = run(
        capsys, "trace", "101", "--m", "2", "--locations", "1,5", "--format", "json"
    )
    data = json.loads(out)
    assert data["word"] == "000111101"
    assert data["steps"][0] == {"i": 1, "in_L": True, "letter": "0", "stack": "00101"}


def test_sample_command_deterministic(capsys):
    args = ("sample", "--n", "12", "--count", "2000", "--seed", "11", "--format", "json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert "tv_distance_to_exact" in data  # exact pmf attached for small n


def test_render_command(capsys, tmp_path):
    target = tmp_path / "trefoil.svg"
    code, out, _ = run(capsys, "render", "101", "--out", str(target))
    assert code == 0
    content = target.read_text()
    assert content.startswith("<?xml")
    code2, _, err = run(capsys, "render", "10", "--out", str(target))
    assert code2 == 2


def test_selfcheck_quick(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert out == (
        "PASS  reduce-engines: all words up to length 9\n"
        "PASS  confluence: all words up to length 8\n"
        "PASS  counting-identities: n up to 20\n"
        "PASS  insertion-counts: m up to 2\n"
        "PASS  distribution: n in [3, 4, 6, 7]\n"
        "PASS  pmf-normalization: n up to 21\n"
        "PASS  location-roundtrip: len <= 3, m <= 2\n"
    )


def test_selfcheck_formats(capsys, monkeypatch):
    from billiardknots import selfcheck

    results = [("reduce-engines", True, "all words up to length 9"),
               ("confluence", False, "'0110' -> ['0', '1']")]
    monkeypatch.setattr(selfcheck, "run_selfcheck", lambda deep=False: results)
    code, out, _ = run(capsys, "selfcheck", "--format", "json")
    assert code == 1  # a failed check still exits 1
    assert json.loads(out) == [
        {"name": "reduce-engines", "ok": True, "detail": "all words up to length 9"},
        {"name": "confluence", "ok": False, "detail": "'0110' -> ['0', '1']"},
    ]
    code, out, _ = run(capsys, "selfcheck", "--format", "csv")
    assert code == 1
    assert out.splitlines() == ["check,ok,detail",
                                "reduce-engines,True,all words up to length 9",
                                "confluence,False,\"'0110' -> ['0', '1']\""]
    code, out, _ = run(capsys, "selfcheck")
    assert code == 1
    assert out == ("PASS  reduce-engines: all words up to length 9\n"
                   "FAIL  confluence: '0110' -> ['0', '1']\n")


def test_sample_seed_outside_64_bits_is_exit_2(capsys):
    for seed in ("-1", str(2**64)):
        code, out, err = run(capsys, "sample", "--n", "30", "--count", "10",
                             "--seed", seed)
        assert code == 2 and out == ""
        assert "seed must be in 0 .. 2**64 - 1" in err
    code, _, _ = run(capsys, "sample", "--n", "30", "--count", "10",
                     "--seed", str(2**64 - 1))
    assert code == 0


def test_sample_input_checked_before_the_guard(capsys):
    # 300 * 10**7 letters would trip the letters guard; invalid input exits 2 first
    for extra, message in ((("--seed", "-1"), "seed must be in"),
                           (("--seed", "1", "--workers", "0"), "workers must be")):
        code, out, err = run(capsys, "sample", "--n", "300", "--count", "10000000",
                             *extra)
        assert (code, out) == (2, "")
        assert message in err


def test_invalid_word_is_exit_2(capsys):
    code, _, err = run(capsys, "reduce", "10x")
    assert code == 2
    assert "error" in err


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's billiardknots."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_only_the_sampler_loads_numpy(tmp_path):
    # a fresh interpreter: other tests in this process import the sampler
    script = textwrap.dedent("""
        import sys
        from billiardknots.cli import main

        for argv in (
            ["reduce", "100001001110"],
            ["moves", "10100"],
            ["class", "101"],
            ["prob", "101", "--n", "6"],
            ["rate", "--word", "101", "--n", "99"],
            ["pmf", "--n", "6"],
            ["enumerate", "--n", "7"],
            ["insertions", "101", "--m", "1"],
            ["trace", "101", "--m", "2", "--locations", "1,5"],
            ["render", "101", "--out", sys.argv[1]],
            ["selfcheck"],
            ["pmf", "--n", "6", "--format", "json"],
            ["moves", "10100", "--format", "csv"],
        ):
            assert main(argv) == 0, argv
            assert "numpy" not in sys.modules, argv
            # value types are NamedTuples: no dataclasses, and so no inspect
            assert "dataclasses" not in sys.modules, argv
            assert "inspect" not in sys.modules, argv

        assert main(["sample", "--n", "30", "--count", "100", "--seed", "1"]) == 0
        assert "numpy" in sys.modules
        assert "dataclasses" not in sys.modules  # numpy itself imports inspect
        from billiardknots import SampleReport, sample_pmf, tv_distance

        import billiardknots
        try:
            billiardknots.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("billiardknots.no_such_name resolved")
    """)
    done = run_python("-c", script, str(tmp_path / "trefoil.svg"))
    assert done.returncode == 0, done.stderr


def test_probabilities_load_fractions_only_for_exact_fraction_views():
    script = textwrap.dedent("""
        import sys
        import billiardknots.distributions
        assert "fractions" not in sys.modules

        from billiardknots.cli import main
        assert main(["prob", "101", "--n", "301"]) == 0
        assert "fractions" not in sys.modules
    """)
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr


def test_selfcheck_loads_neither_fractions_nor_decimal():
    script = textwrap.dedent("""
        import sys
        from billiardknots.cli import main
        assert main(["selfcheck"]) == 0
        assert main(["selfcheck", "--deep"]) == 0
        assert {"fractions", "decimal"} & sys.modules.keys() == set()
    """)
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr


def test_the_recurrence_table_loads_for_every_pmf_but_not_for_prob():
    script = textwrap.dedent("""
        import sys
        from billiardknots.cli import main
        table = "billiardknots._crossing_recurrence"
        assert main(["prob", "101", "--n", "301"]) == 0
        assert table not in sys.modules
        assert main(["pmf", "--n", "3"]) == 0  # no step is taken at n = 3
        assert table in sys.modules
    """)
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr


def test_sampler_import_leaves_the_counting_modules_unloaded():
    script = textwrap.dedent("""
        import sys
        import billiardknots.sampler
        heavy = {"billiardknots.distributions", "billiardknots.counting"}
        assert not heavy & set(sys.modules), heavy & set(sys.modules)
    """)
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "billiardknots", "reduce", "100001001110")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "101\n"


def test_the_benchmark_layer_probe_runs(tmp_path):
    # benchmarks/run.py --trace 1 calls the package through this probe, so a
    # name it needs that goes missing fails here, not at a traced benchmark run
    repo = Path(cli.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(repo / "benchmarks" / "layer_probe.py"), str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    trace = json.loads(out.read_text())["trace"]
    assert trace["words.reduce_runs.calls"] >= 1


# every public name of the package, by the module that defines it
EXPORTED = {
    "counting": ("binomial", "binomial_lt", "count_full", "count_internal",
                 "feasible_count"),
    "distributions": ("ALPHA", "BETA", "AsymptoticReport", "BetaSummary",
                      "CrossingPmf", "ExactProb", "alpha_rate", "beta_summary",
                      "crossing_pmf", "knot_probability", "phi", "phi_gradient"),
    "insertions": ("ReconstructionTrace", "is_feasible", "location_map",
                   "reconstruct"),
    "oracle": ("ExactDist", "ResourceGuardError", "all_terminal_words",
               "crossing_pmf_by_double_sum", "enumerate_insertions",
               "exact_distribution", "reduce_by_moves", "tally_terminals"),
    "render": ("BilliardGeometry", "billiard_geometry", "render_svg"),
    "words": ("CHIRAL", "MIRROR_IDENTIFIED", "UNKNOT_CLASS", "KnotClass",
              "ReductionMove", "Word", "apply_move", "available_moves",
              "complement", "crossing_number", "is_reduced", "knot_class",
              "reduce", "reduce_runs", "resize", "reverse", "symmetry_orbit"),
    "sampler": ("SampleReport", "sample_pmf", "tv_distance"),
}


def test_each_command_loads_only_its_modules():
    # a fresh interpreter, so that only the commands run here load modules
    script = textwrap.dedent("""
        import importlib, json, sys
        from billiardknots.cli import main

        def loaded():
            return {m.split(".")[1] for m in sys.modules
                    if m.startswith("billiardknots.")}

        for argv in (["reduce", "0011"], ["moves", "10100"], ["class", "101"]):
            assert main(argv) == 0, argv
            assert loaded() == {"cli", "words"}, (argv, loaded())
        for argv in (["pmf", "--n", "6"], ["prob", "101", "--n", "6"],
                     ["rate", "--word", "101", "--n", "99"]):
            assert main(argv) == 0, argv
            heavy = loaded() & {"oracle", "insertions", "render", "selfcheck"}
            assert not heavy, (argv, heavy)
        assert main(["enumerate", "--n", "18"]) == 3  # raised inside oracle

        import billiardknots
        exec("from billiardknots import *", {})
        assert "numpy" not in sys.modules  # the sampler's names are not in __all__
        exported = json.loads(sys.argv[1])
        listed = set(dir(billiardknots))
        for module, names in exported.items():
            owner = importlib.import_module(f"billiardknots.{module}")
            assert module in listed, module
            for name in names:
                assert getattr(billiardknots, name) is getattr(owner, name), name
                assert name in listed, name
        words = importlib.import_module("billiardknots.words")
        assert billiardknots.ResourceGuardError is words.ResourceGuardError
    """)
    done = run_python("-c", script, json.dumps(EXPORTED))
    assert done.returncode == 0, done.stderr


def test_enumeration_and_long_samples_load_no_counting_module():
    # a fresh interpreter per command: the reference pmf and a sample's exact
    # pmf need counting and distributions, these commands need neither
    script = textwrap.dedent("""
        import json, sys
        from billiardknots.cli import main

        assert main(json.loads(sys.argv[1])) == 0
        loaded = {m.split(".")[1] for m in sys.modules
                  if m.startswith("billiardknots.")}
        assert loaded == set(json.loads(sys.argv[2])), loaded
    """)
    for argv, modules in (
        (["enumerate", "--n", "4"], ["cli", "words", "oracle"]),
        (["insertions", "101", "--m", "1"], ["cli", "words", "oracle"]),
        (["sample", "--n", "300", "--count", "10", "--seed", "1"],
         ["cli", "words", "sampler"]),
    ):
        done = run_python("-c", script, json.dumps(argv), json.dumps(modules))
        assert done.returncode == 0, (argv, done.stderr)


# every guard lowered, so that no fuzzed input runs for long
FUZZ_GUARDS = {
    "BILLIARDKNOTS_MAX_ENUM_N": "10",
    "BILLIARDKNOTS_MAX_WORD_LEN": "5",
    "BILLIARDKNOTS_MAX_INSERTIONS": "2",
    "BILLIARDKNOTS_MAX_PROB_N": "40",
    "BILLIARDKNOTS_MAX_PMF_N": "40",
    "BILLIARDKNOTS_MAX_TRACE_LEN": "30",
    "BILLIARDKNOTS_MAX_SAMPLE_LETTERS": "50000",
    "BILLIARDKNOTS_MAX_RENDER_LEN": "20",
}
FUZZ_SECONDS = 2.0  # per call; the slowest answers take well under 0.1 s


def _numbers(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(("", "x", "1.5")))


_fuzz_words = st.one_of(st.text("01", max_size=40), st.text("01x-", max_size=6))
_fuzz_tail = st.lists(st.sampled_from((
    "--format", "json", "csv", "xml", "--chiral", "--internal-only",
    "--flip-crossings", "--deep", "--n", "7", "--m", "1")), max_size=3)


@st.composite
def _fuzz_argv(draw, out_path):
    command = draw(st.sampled_from((
        "reduce", "moves", "class", "prob", "pmf", "rate", "enumerate",
        "insertions", "trace", "sample", "render", "no-such-command")))
    word = draw(_fuzz_words)
    options = {
        "reduce": [word],
        "moves": [word],
        "class": [word],
        "prob": [word, "--n", draw(_numbers(-3, 60))],
        "pmf": ["--n", draw(_numbers(-3, 60))],
        "rate": ["--word", word, "--n", draw(_numbers(-3, 60))],
        "enumerate": ["--n", draw(_numbers(-3, 14))],
        "insertions": [word, "--m", draw(_numbers(-2, 4))],
        "trace": [word, "--m", draw(_numbers(-2, 12)), "--locations",
                  ",".join(draw(st.lists(_numbers(-2, 40), max_size=4)))],
        "sample": ["--n", draw(_numbers(-3, 60)), "--count", draw(_numbers(-2, 5000)),
                   "--seed", draw(_numbers(-2, 2**32)),
                   "--workers", draw(_numbers(-1, 40))],
        "render": [word, "--out", out_path],
        "no-such-command": [],
    }[command]
    return [command, *options, *draw(_fuzz_tail)]


def test_cli_fuzz_answers_or_exits_2_or_3_in_bounded_time(monkeypatch, tmp_path):
    for env, value in FUZZ_GUARDS.items():
        monkeypatch.setenv(env, value)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_fuzz_argv(str(tmp_path / "fuzz.svg")))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        t = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        assert perf_counter() - t < FUZZ_SECONDS, argv
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        if code != 0:
            assert out.getvalue() == "", argv

    check()
