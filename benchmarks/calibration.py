"""A fixed reference task that measures the machine's speed during a run.

    python benchmarks/calibration.py

The machine the benchmark runs on changes speed by tens of percent over
minutes (README, "Noise"), longer than a run.  So every run also times
this fixed task, which belongs to the benchmark and calls nothing of the
program, next to the program's own work, and scales each time by
REF / measured: a time metric reads in seconds at the reference speed,
the speed at which the task takes its REF time.  A change to the program
moves the program's times and leaves the task's alone.

- In-process work (pmf, decay, sample rounds) is scaled by ``task()``,
  timed inside the same worker between groups of operations.
- Process work (``setup_s`` probes, cli commands) is scaled by this file
  run as a fresh interpreter: it imports REF_MODULES, runs ``task()`` once
  and prints its import time.  The runner times it from spawn to exit.
  REF_MODULES include numpy, whose import is most of a CLI process's
  start-up; a reference without it followed that cost less closely.
"""

from __future__ import annotations

import importlib
import math
import sys
from time import perf_counter

#: modules imported by the reference process: numpy and standard-library
#: modules with C extensions, the same kind of work as importing the program
REF_MODULES = ("numpy", "decimal", "fractions", "json", "csv", "argparse", "statistics",
               "xml.etree.ElementTree", "email.message", "zipfile", "random")

#: round figures for the task, the reference process's imports and the
#: reference process from spawn to exit on the reference machine (2-vCPU
#: KVM guest, Xeon, Python 3.11, numpy 2.4) in its slower phases
TASK_REF_S = 0.027
IMPORT_REF_S = 0.110
PROCESS_REF_S = 0.220


def task() -> int:
    """TASK_REF_S at the reference speed: big-integer binomials (the
    kind of work in ``counting``), numpy array arithmetic with cumulative
    sums (the kind in ``sampler``) and dict updates in a bytecode loop.
    Returns a checksum.  It uses only numpy's core, which the program
    imports anyway, arrays of 32 KiB and a dict of 97 keys, so it does
    not raise a worker's peak memory (``numpy.random`` alone would add
    6 MiB)."""
    import numpy  # here, so that main() times its import with REF_MODULES'

    acc = 0
    for k in range(0, 1100, 2):
        acc ^= math.comb(1100, k)
    base = numpy.arange(16 * 256, dtype=numpy.int64).reshape(16, 256)
    for r in range(160):
        bits = ((base * (2654435761 + r)) >> 13) & 1
        acc += int(numpy.cumsum(bits, axis=1).sum())
    seen: dict[tuple, int] = {}
    for i in range(25000):
        key = (i % 97, i % 97 + 1)
        seen[key] = seen.get(key, 0) + i
    return (acc & 0xFFFF) + len(seen)


def main() -> int:
    t0 = perf_counter()
    for name in REF_MODULES:
        importlib.import_module(name)
    import_s = perf_counter() - t0
    task()
    print(import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
