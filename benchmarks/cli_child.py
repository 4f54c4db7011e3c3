"""One traced CLI process: ``python -m billiardknots.cli ARGS`` with timings.

    python benchmarks/cli_child.py TRACE_OUT ARGS...

Times ``import billiardknots.cli``, ``build_parser().parse_args(ARGS)`` and
``main(ARGS)`` inside the process, installs the per-layer wrappers between
the import and the parse, and writes the timings and the wrapper totals to
TRACE_OUT as JSON.  Standard output and the exit code are those of the CLI.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import billiardknots.cli as cli
    timings = {"cli.import_ms": (perf_counter() - t0) * 1e3}
    tracer = Tracer()
    tracer.install()
    rc = 0
    try:
        t = perf_counter()
        try:
            cli.build_parser().parse_args(argv)
        finally:
            timings["cli.parse_ms"] = (perf_counter() - t) * 1e3
        t = perf_counter()
        rc = cli.main(argv)
        timings["cli.main_ms"] = (perf_counter() - t) * 1e3
    except SystemExit as exc:  # argparse rejects the arguments with exit 2
        rc = exc.code
    finally:
        sys.stdout.flush()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"timings": timings, "trace": tracer.dump()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
