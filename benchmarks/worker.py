"""One round of the pmf, decay or sample workload, in a fresh interpreter.

    python benchmarks/worker.py ROUND_JSON OUT_JSONL [--trace] [--extras]

run.py starts one worker per round, so no round reuses another round's
caches.  The worker imports the modules the workload calls, then times
each operation, one after another, with the calibration task
(calibration.py) timed before every ``calibrate_every`` operations and
after the last.  Each result is written to OUT_JSONL
after its timer stops and is then dropped, so the process's peak memory
is that of the program, not of the benchmark's bookkeeping.  --trace
installs the per-layer wrappers; --extras adds the untimed computations
the checks need (small lengths for the brute-force comparison, a rerun
for the determinism check).
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

import calibration


def _pmf(mods, op):
    return mods["distributions"].crossing_pmf(op["n"]).to_json()


def _decay(mods, op):
    cls = mods["words"].knot_class(op["word"])
    rep = mods["distributions"].alpha_rate(cls, op["n"])
    return (cls, rep)


def _sample(mods, op):
    return mods["sampler"].sample_pmf(op["n"], op["count"], op["seed"],
                                      workers=op["workers"])


def _decay_record(result):
    cls, rep = result
    return {"canonical": cls.canonical, "crossing_number": cls.crossing_number,
            "ell0": cls.ell0, "ell1": cls.ell1, "r": cls.multiplicity_r,
            "rate": rep.log2_rate, "gap": rep.gap}


def _sample_record(rep):
    return {"counts": {str(c): k for c, k in sorted(rep.counts.items())},
            "sample_count": rep.sample_count, "seed": rep.seed, "workers": rep.workers}


OPERATIONS = {
    "pmf": (_pmf, lambda out: out),
    "decay": (_decay, _decay_record),
    "sample": (_sample, _sample_record),
}


def _extras(workload, mods, spec):
    if workload == "pmf":
        dist = mods["distributions"]
        return {str(n): dist.crossing_pmf(n).to_json() for n in spec["oracle"]}
    if workload == "decay":
        words, dist = mods["words"], mods["distributions"]
        return {str(n): {canonical: str(dist.knot_probability(words.knot_class(w), n))
                         for canonical, w in spec["oracle_words"].items()}
                for n in spec["oracle"]}
    op = spec["ops"][0]
    return {"rerun": _sample_record(_sample(mods, op))}


def _calibrate() -> float:
    t = perf_counter()
    calibration.task()
    return perf_counter() - t


def main(argv: list[str]) -> int:
    round_path, out_path = argv[0], argv[1]
    with open(round_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = spec["workload"]
    run_op, record = OPERATIONS[workload]

    mods = {name.rsplit(".", 1)[-1]: importlib.import_module(name)
            for name in spec["modules"]}

    tracer = None
    if "--trace" in argv:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    wall_s = 0.0
    calib_s = []
    every = spec["calibrate_every"]
    with open(out_path, "w", encoding="utf-8") as out:
        for index, op in enumerate(spec["ops"]):
            if index % every == 0:
                calib_s.append(_calibrate())
            t = perf_counter()
            try:
                result = run_op(mods, op)
            except Exception as exc:  # an operation that raises counts as failed
                lat = perf_counter() - t
                line = {"lat": lat, "error": f"{type(exc).__name__}: {exc}"}
            else:
                lat = perf_counter() - t
                line = {"lat": lat, "out": record(result)}
                del result
            wall_s += lat
            json.dump(line, out)
            out.write("\n")
        calib_s.append(_calibrate())
        summary = {"wall_s": wall_s, "calib_s": calib_s,
                   "trace": tracer.dump() if tracer else None}
        if "--extras" in argv:
            summary["extras"] = _extras(workload, mods, spec)
        out.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
