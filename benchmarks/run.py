"""Benchmark of billiardknots: four closed-loop workloads, one client each.

    python3 benchmarks/run.py --workload {pmf,decay,sample,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The seed makes one round, a fixed list
of operations (workloads.py); the run repeats whole rounds while the next
one still fits in S seconds (at least one round).  pmf, decay and sample
run each round in one fresh worker process (worker.py); cli runs each
operation as its own ``python -m billiardknots.cli`` process.  This
process starts at most one child at a time, uses no threads, and checks
every output after the timed rounds (checks.py).

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics, end-to-end ones with --trace 0 and per-layer ones
(tracer.py) with --trace 1.  A fuller record, with every round and
latency, goes to .bench_run/.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import calibration
import checks
import workloads
from tracer import LAYER_METRICS, add_dumps, layer_values

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("pmf", "decay", "sample", "cli")
#: modules whose import is the workload's set-up
SETUP_MODULES = {
    "pmf": ["billiardknots.distributions"],
    "decay": ["billiardknots.words", "billiardknots.distributions"],
    "sample": ["billiardknots.sampler"],
    "cli": ["billiardknots.cli"],
}
SETUP_PROBES = 7  # fresh-interpreter imports per run, each followed by a reference
LAYER_PROBES = 3  # bare-interpreter and numpy-import probes per traced run
WORKER_TIMEOUT_S = 120
CLI_TIMEOUT_S = 60
START_DEADLINE_S = 120  # no round starts after this much of the run

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}

PROBE = ("import importlib, sys, time\n"
         "t = time.perf_counter()\n"
         "for name in sys.argv[1:]:\n"
         "    importlib.import_module(name)\n"
         "print(time.perf_counter() - t)\n")


# -------------------------------------------------------------- child processes


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_child(argv: list[str], timeout: float) -> dict:
    """Run one child to its end; wall time from spawn to exit and peak RSS.

    Output goes to files, so the child never blocks on a full pipe while
    this process waits in wait4 (which also returns the child's rusage).
    Linux folds the memory high-water mark of the process that spawned a
    child into the child's ru_maxrss, so this process keeps its own memory
    small until the timed rounds are over.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(RUN_DIR / "child.stdout", "w+b") as out, \
            open(RUN_DIR / "child.stderr", "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        reaped = None
        try:
            reaped = os.wait4(proc.pid, 0)
        except _Timeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        timed_out = reaped is None
        if timed_out:
            proc.kill()
            reaped = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        _, status, usage = reaped
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"rc": None if timed_out else proc.returncode, "wall": wall,
                "rss_mb": usage.ru_maxrss / 1024,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace")}


def probe_import(modules: list[str]) -> float:
    child = run_child([sys.executable, "-c", PROBE, *modules], WORKER_TIMEOUT_S)
    if child["rc"] != 0:
        raise RuntimeError(f"importing {modules} failed: {child['stderr'][-400:]}")
    return float(child["stdout"].split()[-1])


def run_reference() -> dict:
    """One reference process: its wall time from spawn to exit, and the
    time it took to import calibration.REF_MODULES."""
    child = run_child([sys.executable, str(BENCH / "calibration.py")], CLI_TIMEOUT_S)
    if child["rc"] != 0:
        raise RuntimeError(f"reference process failed: {child['stderr'][-400:]}")
    return {"wall": child["wall"], "import_s": float(child["stdout"].split()[-1])}


def timed_rounds(seconds: float, run_round) -> list:
    """Whole rounds while the next one (estimated by the last) fits."""
    start = perf_counter()
    rounds = []
    while True:
        t = perf_counter()
        rounds.append(run_round(len(rounds)))
        took = perf_counter() - t
        elapsed = perf_counter() - start
        if elapsed + took > seconds or elapsed > START_DEADLINE_S:
            return rounds


# ------------------------------------------------------------------ workloads


def worker_rounds(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = {"pmf": workloads.pmf_round, "decay": workloads.decay_round,
            "sample": workloads.sample_round}[workload](seed)
    spec.update(workload=workload, modules=SETUP_MODULES[workload])
    spec_path = RUN_DIR / f"{workload}-round.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    def one_round(index):
        out_path = RUN_DIR / f"{workload}-round{index}.jsonl"
        out_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(out_path)]
        argv += ["--trace"] * trace + ["--extras"] * (index == 0)
        child = run_child(argv, WORKER_TIMEOUT_S)
        return {"path": out_path, "rc": child["rc"], "stderr": child["stderr"][-300:],
                "rss_mb": child["rss_mb"]}

    rounds = timed_rounds(seconds, one_round)
    for rnd in rounds:  # parsed only now: see run_child on peak RSS
        lines = []
        if rnd["path"].exists():
            lines = [json.loads(x) for x in rnd["path"].read_text(encoding="utf-8").splitlines()]
        rnd["summary"] = lines.pop()["summary"] if lines and "summary" in lines[-1] else None
        rnd["calib_s"] = rnd["summary"]["calib_s"] if rnd["summary"] else []
        if rnd["rc"] != 0 or rnd["summary"] is None or len(lines) != len(spec["ops"]):
            reason = rnd["stderr"].strip() or f"worker exit {rnd['rc']}"
            lines = [{"lat": None, "error": reason}] * len(spec["ops"])
        rnd["ops"] = lines
    return {"spec": spec, "rounds": rounds}


def cli_rounds(seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.cli_round(seed, RUN_DIR.name)

    def one_round(index):
        records, calib = [], []
        for i, op in enumerate(spec["ops"]):
            if i % spec["calibrate_every"] == 0:
                calib.append(run_reference()["wall"])
            trace_path = RUN_DIR / f"cli-trace-{i}.json"
            trace_path.unlink(missing_ok=True)
            if "svg" in op:
                (ROOT / op["svg"]).unlink(missing_ok=True)
            if trace:
                argv = [sys.executable, str(BENCH / "cli_child.py"), str(trace_path)]
            else:
                argv = [sys.executable, "-m", "billiardknots.cli"]
            child = run_child(argv + op["argv"], CLI_TIMEOUT_S)
            if "svg" in op and child["rc"] == 0:
                child["svg_text"] = (ROOT / op["svg"]).read_text(encoding="utf-8")
            if trace and trace_path.exists():
                child["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
            records.append(child)
        calib.append(run_reference()["wall"])
        return {"ops": records, "calib_s": calib,
                "wall": sum(rec["wall"] for rec in records)}

    return {"spec": spec, "rounds": timed_rounds(seconds, one_round)}


# --------------------------------------------------------------------- checks


class Program:
    """The program under test, imported into this process only for checks."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import billiardknots
        self.bk = billiardknots
        self._oracle = {}
        self._masses = {}

    def enumeration(self, n: int):
        if n not in self._oracle:
            self._oracle[n] = self.bk.exact_distribution(n)
        return self._oracle[n]

    def trefoil(self, n: int) -> str:
        return str(self.bk.knot_probability(self.bk.knot_class("101"), n))

    def exact_masses(self, n: int) -> dict[int, Fraction]:
        if n not in self._masses:
            pmf = self.bk.crossing_pmf(n)
            out = {0: pmf.unknot_mass.fraction}
            out.update((c, p.fraction) for c, p in pmf.masses.items())
            self._masses[n] = {c: p for c, p in out.items() if p}
        return self._masses[n]


def check_worker_run(workload: str, run: dict, program: Program) -> tuple[set, list]:
    """Returns (failed (round, op) pairs, error messages)."""
    spec, rounds = run["spec"], run["rounds"]
    failed, errors = set(), []

    def fail(r, i, msgs):
        if msgs:
            failed.add((r, i))
            errors.extend(msgs)

    for r, rnd in enumerate(rounds):
        for i, line in enumerate(rnd["ops"]):
            if "error" in line:
                fail(r, i, [f"op {i}: {line['error']}"])

    extras = (rounds[0]["summary"] or {}).get("extras") or {}
    if workload == "pmf":
        for r, rnd in enumerate(rounds):
            for i, (op, line) in enumerate(zip(spec["ops"], rnd["ops"])):
                if "out" in line:
                    fail(r, i, checks.check_pmf(op["n"], line["out"], program.trefoil(op["n"])))
        for n, out in extras.items():
            errors += checks.check_pmf(int(n), out, None)
            errors += checks.check_pmf_oracle(int(n), out,
                                              program.enumeration(int(n)).crossing_counts)
    elif workload == "decay":
        want = {k["canonical"]: k for k in workloads.knot_catalogue()}
        for r, rnd in enumerate(rounds):
            ladders: dict[tuple, list] = {}
            for i, (op, line) in enumerate(zip(spec["ops"], rnd["ops"])):
                if "out" not in line:
                    continue
                out = line["out"]
                fail(r, i, checks.check_decay_class(op["word"], out, want[op["canonical"]])
                     + checks.check_decay_rate(op["n"], out["rate"], out["gap"]))
                ladders.setdefault((op["canonical"], op["n"] % 3), []).append(
                    (op["n"], out["gap"], i))
            for (canonical, residue), rungs in ladders.items():
                rungs.sort()
                for k in checks.check_decay_ladder([(n, g) for n, g, _ in rungs]):
                    fail(r, rungs[k][2], [f"{canonical}: gap did not shrink from "
                                          f"n={rungs[k - 1][0]} to n={rungs[k][0]}"])
        for n, probs in extras.items():
            counts = program.enumeration(int(n)).counts
            for canonical, prob in probs.items():
                errors += checks.check_probability_oracle(int(n), canonical, prob, counts)
    else:
        first = rounds[0]["ops"]
        for r, rnd in enumerate(rounds):
            pooled: dict[int, dict[int, int]] = {}
            for i, (op, line) in enumerate(zip(spec["ops"], rnd["ops"])):
                if "out" not in line:
                    continue
                counts = {int(c): k for c, k in line["out"]["counts"].items()}
                msgs = checks.check_sample_counts(op["count"], counts)
                if "out" in first[i] and line["out"] != first[i]["out"]:
                    msgs.append(f"op {i}: report differs from round 0's")
                fail(r, i, msgs)
                bucket = pooled.setdefault(op["n"], {})
                for c, k in counts.items():
                    bucket[c] = bucket.get(c, 0) + k
            for n, hist in pooled.items():
                msgs = checks.check_sample_pooled(n, hist, program.exact_masses(n))
                if msgs:
                    errors.extend(msgs)
                    failed.update((r, i) for i, op in enumerate(spec["ops"]) if op["n"] == n)
        rerun = extras.get("rerun")
        if rerun is not None and "out" in first[0] and rerun != first[0]["out"]:
            errors.append("rerunning op 0 in the same process gave another report")
    return failed, errors


def cli_references(op: dict, record: dict, program: Program) -> dict:
    kind = op["kind"]
    if kind == "reduce" and len(op.get("word", "")) <= 13 and op["expect"] == 0:
        return {"terminals": program.bk.all_terminal_words(op["word"])}
    if kind == "enumerate" and op["expect"] == 0:
        pmf = program.bk.crossing_pmf(op["n"])
        nums = {0: pmf.unknot_mass.numerator}
        nums.update((c, p.numerator) for c, p in pmf.masses.items())
        return {"pmf_numerators": nums}
    if kind == "insertions":
        return {"count_full": program.bk.count_full(op["m"], len(op["word"]))}
    if kind == "render" and "svg_text" in record:
        path = RUN_DIR / "render-check.svg"
        path.write_text(record["svg_text"], encoding="utf-8")
        return {"svg_path": str(path)}
    return {}


def check_cli_run(run: dict, program: Program) -> tuple[set, list]:
    failed, errors = set(), []
    for r, rnd in enumerate(run["rounds"]):
        for i, (op, rec) in enumerate(zip(run["spec"]["ops"], rnd["ops"])):
            if rec["rc"] is None:
                msgs = [f"{op['kind']}: no exit within {CLI_TIMEOUT_S} s"]
            else:
                msgs = checks.check_cli(op, rec["rc"], rec["stdout"],
                                        cli_references(op, rec, program))
            if msgs:
                failed.add((r, i))
                errors.extend(msgs)
    return failed, errors


# -------------------------------------------------------------------- metrics


def _op_latencies(lat_rounds: list[list]) -> list[float]:
    """Each operation's median latency across the run's rounds.

    The machine's speed moves by tens of percent in bursts of seconds
    (README, "Noise"); a per-operation median over many short rounds
    repeats from run to run where a round's total or a minimum does not.
    """
    return [statistics.median(x for x in lats if x is not None)
            for lats in zip(*lat_rounds) if any(x is not None for x in lats)]


def _scaled_latencies(lats: list, calib: list[float], every: int, ref: float) -> list:
    """A round's latencies in seconds at the reference speed.

    Calibration j was timed just before operation j * every, and the last
    one after the last operation; each operation is scaled by the mean of
    the two calibrations around its group, which follows bursts of a few
    seconds as well as slower phases."""
    if not calib:  # the round failed: its latencies are None
        return lats
    return [None if lat is None else lat * 2 * ref / (calib[i // every] + calib[i // every + 1])
            for i, lat in enumerate(lats)]


def end_to_end(workload: str, run: dict, setup: list[float], ref_imports: list[float],
               scaled: bool = True) -> dict:
    """The end-to-end metrics; with ``scaled``, every time is scaled to the
    reference speed (calibration.py) measured next to it."""
    rounds, every = run["rounds"], run["spec"]["calibrate_every"]
    if workload == "cli":
        lat_rounds = [[rec["wall"] for rec in rnd["ops"]] for rnd in rounds]
        rss = [rec["rss_mb"] for rnd in rounds for rec in rnd["ops"]]
        ref = calibration.PROCESS_REF_S
    else:
        lat_rounds = [[line.get("lat") for line in rnd["ops"]] for rnd in rounds]
        rss = [rnd["rss_mb"] for rnd in rounds]
        ref = calibration.TASK_REF_S
    if scaled:
        lat_rounds = [_scaled_latencies(lats, rnd["calib_s"], every, ref)
                      for lats, rnd in zip(lat_rounds, rounds)]
        # each probe is scaled by the reference process started right after it
        setup = [s * calibration.IMPORT_REF_S / r for s, r in zip(setup, ref_imports)]
    per_op = _op_latencies(lat_rounds)
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3 if per_op else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
    }


def layer_probe() -> dict:
    """Per-layer values of layer_probe.py: one small call into every layer."""
    path = RUN_DIR / "layer-probe.json"
    path.unlink(missing_ok=True)
    child = run_child([sys.executable, str(BENCH / "layer_probe.py"), str(path)],
                      WORKER_TIMEOUT_S)
    if child["rc"] != 0:
        raise RuntimeError(f"layer probe failed: {child['stderr'][-400:]}")
    probe = json.loads(path.read_text(encoding="utf-8"))
    return layer_values(probe["trace"], probe["timings"])


def per_layer(workload: str, run: dict, probes: dict, idle: dict) -> dict:
    """Median over rounds of each layer metric; a metric the workload leaves
    at zero (an idle layer) is read from the layer probe instead."""
    per_round = []
    for rnd in run["rounds"]:
        extra = dict(probes)
        if workload == "cli":
            dumps = [rec["trace"]["trace"] for rec in rnd["ops"] if "trace" in rec]
            timings = [rec["trace"]["timings"] for rec in rnd["ops"] if "trace" in rec]
            for key in ("cli.import_ms", "cli.parse_ms", "cli.main_ms"):
                vals = [t[key] for t in timings if key in t]
                extra[key] = statistics.median(vals) if vals else 0.0
            extra["trace.wall_s"] = rnd["wall"]
        else:
            summary = rnd["summary"] or {}
            dumps = [summary["trace"]] if summary.get("trace") else []
            extra["trace.wall_s"] = summary.get("wall_s", 0.0)
        per_round.append(layer_values(add_dumps(dumps), extra))
    values = {name: statistics.median(r[name] for r in per_round) for name in LAYER_METRICS}
    return {name: value or idle[name] for name, value in values.items()}


# ----------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "billiardknots" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'billiardknots'} is missing",
              file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    modules = SETUP_MODULES[args.workload]
    trace = bool(args.trace)

    try:
        probe_import(modules)  # untimed: compiles bytecode in a fresh checkout
        run_reference()  # untimed, for the same reason
        setup, ref_imports = [], []
        for _ in range(0 if trace else SETUP_PROBES):
            setup.append(probe_import(modules))
            ref_imports.append(run_reference()["import_s"])
        probes = {}
        if trace:
            probes["cli.interpreter_ms"] = 1e3 * statistics.median(
                run_child([sys.executable, "-c", "pass"], CLI_TIMEOUT_S)["wall"]
                for _ in range(LAYER_PROBES))
            probes["cli.numpy_import_ms"] = 1e3 * statistics.median(
                probe_import(["numpy"]) for _ in range(LAYER_PROBES))
            idle = layer_probe()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload == "cli":
        run = cli_rounds(args.seed, args.seconds, trace)
    else:
        run = worker_rounds(args.workload, args.seed, args.seconds, trace)
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    program = Program()
    if args.workload == "cli":
        failed, errors = check_cli_run(run, program)
    else:
        failed, errors = check_worker_run(args.workload, run, program)
    attempted = len(run["spec"]["ops"]) * len(run["rounds"])

    if trace:
        values, units = per_layer(args.workload, run, probes, idle), LAYER_METRICS
    else:
        values, units = end_to_end(args.workload, run, setup, ref_imports), END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=len(run["rounds"]), errors=errors[:50], setup_samples=setup,
                  ref_import_samples=ref_imports,
                  calib_s=[rnd["calib_s"] for rnd in run["rounds"]],
                  unscaled=None if trace else end_to_end(args.workload, run, setup,
                                                         ref_imports, scaled=False),
                  round_rss_mb=[rnd.get("rss_mb") for rnd in run["rounds"]],
                  own_rss_mb_after_rounds=own_rss_mb)
    (RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for msg in errors[:10]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
