"""Command-line interface.

Exit codes: 0 on success, 1 when a selfcheck check fails, 2 on invalid
input, 3 when a resource guard trips.  Resource guards can be overridden
with environment variables (see _GUARDS below; non-integer or negative
values exit 2).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

# each command imports the other modules it uses, so a process compiles only those
from . import words

# guard key -> (environment variable, default)
_GUARDS = {
    "enum_max_n": ("BILLIARDKNOTS_MAX_ENUM_N", 16),  # exact enumeration length
    "ins_max_len": ("BILLIARDKNOTS_MAX_WORD_LEN", 8),  # insertion base length
    "ins_max_m": ("BILLIARDKNOTS_MAX_INSERTIONS", 4),  # insertion count
    "prob_max_n": ("BILLIARDKNOTS_MAX_PROB_N", 100_000),  # prob/rate length
    "pmf_max_n": ("BILLIARDKNOTS_MAX_PMF_N", 4000),  # pmf length
    # trace steps, len(word) + 3m
    "trace_max_len": ("BILLIARDKNOTS_MAX_TRACE_LEN", 3000),
    # sample letters drawn, plus a charge per extra worker
    "sample_max_letters": ("BILLIARDKNOTS_MAX_SAMPLE_LETTERS", 50_000_000),
    "render_max_len": ("BILLIARDKNOTS_MAX_RENDER_LEN", 50_000),  # render word length
}

# Python releases without the int-to-str digit limit (3.10.6 and older)
# have neither function
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)

# exact pmf is cheap enough below this length to compute alongside a sample
_SAMPLE_EXACT_LIMIT = 60
# each drawing worker builds its own Philox generator and draws its own
# batches, about 19 us on a 2-vCPU machine: the time sample_pmf takes to
# draw and reduce some 2100 letters at n = 300 (8.8 ns a letter); the
# charge was set when a letter cost 18.5 ns and is kept while that
# equivalent stays within 2x of it
_SAMPLE_WORKER_LETTERS = 1500


def _guards() -> dict[str, int]:
    values = {}
    for key, (env, default) in _GUARDS.items():
        raw = os.environ.get(env, str(default))
        try:
            values[key] = int(raw)
        except ValueError:
            raise ValueError(f"{env} must be an integer, got {raw!r}") from None
        if values[key] < 0:
            raise ValueError(f"{env} must be nonnegative, got {raw!r}")
    return values


def _mode(args) -> str:
    return words.CHIRAL if getattr(args, "chiral", False) else words.MIRROR_IDENTIFIED


def _emit(args, payload: dict | list, text: str, rows: Optional[list] = None,
          header: Optional[tuple] = None) -> None:
    if args.format == "json":
        import json
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        if rows is None:
            for key in sorted(payload):
                writer.writerow([key, payload[key]])
        else:
            if header:
                writer.writerow(header)
            writer.writerows(rows)
    else:
        print(text)


def _cmd_reduce(args, guards) -> None:
    terminal = words.reduce(args.word)
    payload = {"word": args.word, "reduced": terminal,
               "crossing_number": words.crossing_number(terminal)}
    _emit(args, payload, terminal)


def _cmd_moves(args, guards) -> None:
    moves = words.available_moves(args.word)
    payload = {
        "word": args.word,
        "moves": [
            {"kind": mv.kind, "position": mv.position, "triple": mv.deleted_triple}
            for mv in moves
        ],
    }
    lines = [f"{mv.kind}@{mv.position}: {mv.deleted_triple}" for mv in moves]
    _emit(args, payload, "\n".join(lines) if lines else "(no moves)",
          moves, ("kind", "position", "triple"))


def _cmd_class(args, guards) -> None:
    cls = words.knot_class(args.word, _mode(args))
    text = (
        f"canonical {cls.canonical or '(empty)'}  ell0={cls.ell0} ell1={cls.ell1} "
        f"r={cls.multiplicity_r} c={cls.crossing_number}"
        + ("  [unknot]" if cls.is_unknot else "")
    )
    _emit(args, cls.to_json(), text)


def _cmd_prob(args, guards) -> None:
    from . import distributions

    cls = words.knot_class(args.word, _mode(args))
    words.check_length(args.n)  # an invalid length exits 2 before the guard
    words.check_guard("n", args.n, guards["prob_max_n"], "prob/rate")
    p = distributions.knot_probability(cls, args.n)
    payload = {"word": args.word, "n": args.n, "canonical": cls.canonical,
               "probability": str(p), "float": float(p)}
    _emit(args, payload, f"{p} = {float(p):.6g}")


def _cmd_pmf(args, guards) -> None:
    from . import distributions

    words.check_length(args.n)
    words.check_guard("n", args.n, guards["pmf_max_n"], "pmf")
    pmf = distributions.crossing_pmf(args.n)
    # only the asked-for view is built
    _emit(args, pmf.to_json() if args.format == "json" else {},
          pmf.to_text() if args.format == "text" else "",
          pmf.to_csv_rows() if args.format == "csv" else [],
          ("c", "numerator", "denominator", "float"))


def _cmd_rate(args, guards) -> None:
    from . import distributions

    cls = words.knot_class(args.word, _mode(args))
    words.check_length(args.n)
    words.check_guard("n", args.n, guards["prob_max_n"], "prob/rate")
    report = distributions.alpha_rate(cls, args.n)
    payload = {"word": args.word, **report._asdict()}
    _emit(args, payload,
          f"log2 rate {report.log2_rate:.6f}  target {report.target:.6f}  "
          f"gap {report.gap:.6f}")


def _cmd_enumerate(args, guards) -> None:
    from . import oracle

    dist = oracle.exact_distribution(args.n, _mode(args), max_n=guards["enum_max_n"])
    rows = [
        (canonical, dist.counts[canonical], dist.classes[canonical].crossing_number)
        for canonical in sorted(dist.counts, key=lambda u: (len(u), u))
    ]
    lines = [f"n={dist.n} total={dist.total}"]
    lines += [f"{canonical or '(empty)':>{max(args.n, 7)}}  count={count}  c={c}"
              for canonical, count, c in rows]
    _emit(args, dist.to_json(), "\n".join(lines), rows, ("canonical", "count", "c"))


def _cmd_insertions(args, guards) -> None:
    from . import oracle

    scope = oracle.INTERNAL_ONLY if args.internal_only else oracle.ALL
    found = oracle.enumerate_insertions(
        args.word, args.m, scope,
        max_len=guards["ins_max_len"], max_insertions=guards["ins_max_m"],
    )
    ordered = sorted(found)
    payload = {"word": args.word, "m": args.m, "scope": scope,
               "count": len(ordered), "words": ordered}
    text = "\n".join(ordered + [f"({len(ordered)} words)"])
    _emit(args, payload, text, [(u,) for u in ordered], ("word",))


def _cmd_trace(args, guards) -> None:
    from . import insertions

    locs = tuple(int(x) for x in args.locations.split(",") if x.strip() != "")
    words.check_word(args.word)  # an invalid word exits 2 before the guard
    # one stack string per step: memory and output grow as the square
    words.check_guard("len(word) + 3m", len(args.word) + 3 * args.m,
                      guards["trace_max_len"], "trace")
    trace = insertions.reconstruct(args.word, args.m, locs)
    width = max(len(s.stack) for s in trace.steps) if trace.steps else 1
    lines = [f"{'i':>3} | L | {'word':<{len(trace.steps)}} | stack"]
    written = ""  # the output letters so far, this step's included
    for step in trace.steps:
        written += step.letter
        lines.append(
            f"{step.index:>3} | {'x' if step.in_locations else ' '} | "
            f"{written:<{len(trace.steps)}} | {step.stack:>{width}}"
        )
    lines.append(f"result: {'success ' + trace.word if trace.success else 'failure'}")
    _emit(args, trace.to_json(), "\n".join(lines))


def _cmd_sample(args, guards) -> None:
    from . import sampler  # numpy: only this command pays for it

    sampler.check_sample(args.n, args.count, args.seed, args.workers)  # before the guard
    # a step of the lockstep walk over the n letter columns has a fixed cost
    # near that of a thousand words, so a small count is counted as a batch;
    # each word costs at least one letter, the empty words at n = 0 included
    label = f"max(n, 1) * max(count, {sampler._BATCH})"
    letters = max(args.n, 1) * max(args.count, sampler._BATCH)
    drawing = min(args.workers, args.count)
    if drawing > 1:  # the batch already pays for the first worker
        label += f" + {_SAMPLE_WORKER_LETTERS} * (min(workers, count) - 1)"
        letters += _SAMPLE_WORKER_LETTERS * (drawing - 1)
    words.check_guard(label, letters, guards["sample_max_letters"], "sample")
    exact = None
    if args.n <= _SAMPLE_EXACT_LIMIT:
        from . import distributions

        exact = distributions.crossing_pmf(args.n)
    report = sampler.sample_pmf(args.n, args.count, args.seed,
                                workers=args.workers, exact=exact)
    lines = [f"n={report.n} count={report.sample_count} seed={report.seed} "
             f"workers={report.workers}"]
    for c, freq in report.empirical.items():
        lines.append(f"c={c}: {freq:.6f}")
    if report.tv_distance_to_exact is not None:
        lines.append(f"tv distance to exact: {report.tv_distance_to_exact:.6f}")
    rows = [(c, report.counts[c], freq) for c, freq in report.empirical.items()]
    _emit(args, report.to_json(), "\n".join(lines), rows, ("c", "count", "frequency"))


def _cmd_render(args, guards) -> None:
    from . import render

    # an invalid word or length exits 2 before the guard
    n = words.check_length(len(words.check_word(args.word)))
    words.check_guard("len(word)", n, guards["render_max_len"], "render")
    svg = render.render_svg(args.word, flip_crossings=args.flip_crossings)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    _emit(args, {"word": args.word, "out": args.out, "bytes": len(svg)},
          f"wrote {args.out} ({len(svg)} bytes)")


def _cmd_selfcheck(args, guards) -> int:
    from . import selfcheck

    results = selfcheck.run_selfcheck(deep=args.deep)
    payload = [{"name": name, "ok": ok, "detail": detail}
               for name, ok, detail in results]
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
             for name, ok, detail in results]
    _emit(args, payload, "\n".join(lines), results, ("check", "ok", "detail"))
    return 0 if all(ok for _, ok, _ in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiardknots",
        description="Random two-bridge knots as binary words on billiard tables.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    chiral = argparse.ArgumentParser(add_help=False)
    chiral.add_argument("--chiral", action="store_true",
                        help="distinguish mirror images")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common], help="fully reduce a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("moves", parents=[common], help="list legal reduction moves")
    p.add_argument("word")
    p.set_defaults(func=_cmd_moves)

    p = sub.add_parser("class", parents=[common, chiral],
                       help="knot class of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("prob", parents=[common, chiral],
                       help="exact probability of the word's knot at length n")
    p.add_argument("word")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("pmf", parents=[common],
                       help="exact crossing-number distribution at length n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("rate", parents=[common, chiral],
                       help="per-crossing log-probability against the limit rate")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("enumerate", parents=[common, chiral],
                       help="exhaustive knot counts over all words of length n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("insertions", parents=[common],
                       help="enumerate all words reachable by m insertions")
    p.add_argument("word")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--internal-only", action="store_true")
    p.set_defaults(func=_cmd_insertions)

    p = sub.add_parser("trace", parents=[common],
                       help="run the reconstruction stack on a location set")
    p.add_argument("word")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--locations", default="",
                   help="comma-separated locations, empty for none")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("sample", parents=[common],
                       help="Monte Carlo crossing-number histogram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="split the count over this many Philox substreams; they "
                        "run one after another, so the report is reproducible "
                        "for a given (n, count, seed, workers), with no "
                        "parallel speed-up")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("render", parents=[common],
                       help="draw the billiard-table diagram as SVG")
    p.add_argument("word")
    p.add_argument("--out", required=True)
    p.add_argument("--flip-crossings", action="store_true",
                   help="invert the letter-to-crossing convention")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("selfcheck", parents=[common],
                       help="run built-in consistency checks")
    p.add_argument("--deep", action="store_true")
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # exact fractions at guarded lengths run past the default 4300-digit
    # limit on int-to-str conversion (2**14287 has 4301 digits); the limit
    # is lifted only while a command runs, after the arguments are parsed
    digit_limit = _get_digit_limit()
    _set_digit_limit(0)
    try:
        return args.func(args, _guards()) or 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except words.ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    finally:
        _set_digit_limit(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
