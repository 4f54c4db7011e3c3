"""One small call into every traced function, under the per-layer wrappers.

    python benchmarks/layer_probe.py TRACE_OUT

A workload leaves some layers idle (pmf never samples, sample never
enumerates), and an idle layer would print the same zero on every traced
run.  run.py fills those metrics from this probe instead, so every
per-layer figure is a measurement; the README names, for each layer, the
workloads whose own figures to compare.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    trace_out = sys.argv[1]
    t0 = perf_counter()
    import billiardknots.cli as cli
    timings = {"cli.import_ms": (perf_counter() - t0) * 1e3}
    from billiardknots import (distributions, insertions, oracle, render, sampler,
                               selfcheck, words)

    tracer = Tracer()
    tracer.install()
    argv = ["class", "0001011010011", "--format", "json"]
    t = perf_counter()
    cli.build_parser().parse_args(argv)
    timings["cli.parse_ms"] = (perf_counter() - t) * 1e3
    with contextlib.redirect_stdout(io.StringIO()):
        t = perf_counter()
        cli.main(argv)
        timings["cli.main_ms"] = (perf_counter() - t) * 1e3

    t = perf_counter()
    words.reduce("1000110111010")
    words.reduce_runs(1, (3, 1, 2, 2, 1))
    distributions.crossing_pmf(31).to_json()
    distributions.alpha_rate(words.knot_class("101"), 301)
    sampler.sample_pmf(30, 500, seed=1)
    sampler.sample_pmf(300, 100, seed=1)
    oracle.exact_distribution(9)
    oracle.enumerate_insertions("101", 2)
    oracle.all_terminal_words("1000110111")
    insertions.reconstruct("101", 2, (1, 5))
    render.render_svg("1001")
    selfcheck.run_selfcheck()
    timings["trace.wall_s"] = perf_counter() - t
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"timings": timings, "trace": tracer.dump()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
