"""Per-layer tracing from outside the program.

Tracer.install() replaces public functions of the billiardknots modules
with timing wrappers, through every name the program calls them by: the
module attribute, and the names other modules imported with
``from .x import f`` (distributions.count_full, sampler.reduce_runs,
oracle.reduce_runs, oracle.knot_class), which would otherwise bypass the
module attribute.  Each wrapper records calls, inclusive time and self
time (inclusive time minus the time spent in wrapped callees), plus a few
layer-specific counters.  Functions a later version of the program no
longer has are skipped and read as zero.

Only traced runs install it; end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

PACKAGE = "billiardknots"

# (module, attribute, stat buckets, hook name or None); a dotted attribute
# names a method on a class
TARGETS = [
    ("words", "reduce", ("words.reduce",), "reduce"),
    ("words", "knot_class", ("words.knot_class",), None),
    ("words", "reduce_runs", ("words.reduce_runs",), None),
    ("oracle", "knot_class", ("words.knot_class", "oracle.knot_class"), None),
    ("oracle", "reduce_runs", ("words.reduce_runs",), None),
    ("sampler", "reduce_runs", ("words.reduce_runs", "sampler.reduce_runs"), None),
    ("counting", "count_full", ("counting.count_full",), "count_full"),
    ("distributions", "count_full", ("counting.count_full",), "count_full"),
    ("counting", "binomial_lt", ("counting.binomial_lt",), None),
    ("distributions", "crossing_pmf", ("distributions.crossing_pmf",), "pmf"),
    ("distributions", "CrossingPmf.to_json", ("distributions.to_json",), None),
    ("distributions", "knot_probability", ("distributions.knot_probability",), "prob"),
    ("distributions", "alpha_rate", ("distributions.alpha_rate",), None),
    ("sampler", "sample_pmf", ("sampler.sample_pmf",), "sample"),
    ("oracle", "exact_distribution", ("oracle.exact_distribution",), "exact"),
    ("oracle", "tally_terminals", ("oracle.tally_terminals",), "tally"),
    ("oracle", "enumerate_insertions", ("oracle.enumerate_insertions",), None),
    ("oracle", "all_terminal_words", ("oracle.all_terminal_words",), None),
    ("insertions", "reconstruct", ("insertions.reconstruct",), None),
    ("render", "render_svg", ("render.render_svg",), "svg"),
    ("selfcheck", "run_selfcheck", ("selfcheck.run_selfcheck",), None),
]

#: every per-layer metric the benchmark prints, with its unit
LAYER_METRICS = {
    "cli.interpreter_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.import_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.main_ms": "ms",
    "words.reduce.calls": "count",
    "words.reduce.letters": "count",
    "words.reduce.s": "s",
    "words.knot_class.calls": "count",
    "words.knot_class.s": "s",
    "words.reduce_runs.calls": "count",
    "words.reduce_runs.s": "s",
    "counting.count_full.calls": "count",
    "counting.count_full.distinct": "count",
    "counting.count_full.s": "s",
    "counting.binomial_lt.calls": "count",
    "counting.binomial_lt.misses": "count",
    "counting.binomial_lt.s": "s",
    "counting.binomial_lt.entries": "count",
    "distributions.crossing_pmf.s": "s",
    "distributions.crossing_pmf.self_s": "s",
    "distributions.crossing_pmf.terms": "count",
    "distributions.to_json.s": "s",
    "distributions.knot_probability.calls": "count",
    "distributions.knot_probability.s": "s",
    "distributions.alpha_rate.s": "s",
    "distributions.numerator_bits_max": "bits",
    "sampler.sample_pmf.s": "s",
    "sampler.words": "count",
    "sampler.words_per_s.n30": "1/s",
    "sampler.words_per_s.n300": "1/s",
    "sampler.reduce_runs.s": "s",
    "oracle.exact_distribution.s": "s",
    "oracle.words_per_s": "1/s",
    "oracle.distinct_terminals": "count",
    "oracle.knot_class.s": "s",
    "oracle.enumerate_insertions.s": "s",
    "oracle.all_terminal_words.s": "s",
    "insertions.reconstruct.s": "s",
    "render.render_svg.s": "s",
    "render.svg_bytes": "bytes",
    "selfcheck.run_selfcheck.s": "s",
    "trace.wall_s": "s",
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # bucket -> [calls, inclusive s, self s]
        self.frames: list[list] = []  # active wrapped calls: [callee s, bucket]
        self.counters: dict[str, float] = {}
        self.count_full_args: set = set()
        self.terminals: set = set()
        self.binomial_lt = None

    def install(self) -> None:
        for module_name, attr, buckets, hook in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                continue
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None)
            if fn is None:
                continue
            if (module_name, attr) == ("counting", "binomial_lt"):
                self.binomial_lt = fn
            setattr(owner, name, self._wrap(fn, buckets, getattr(self, f"_on_{hook}", None)))

    def _wrap(self, fn, buckets, hook):
        stats = [self.stats.setdefault(b, [0, 0.0, 0.0]) for b in buckets]
        frames = self.frames
        first = buckets[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, first]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                for st in stats:
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - frame[0]
            if hook is not None:
                hook(args, result, dt)
            return result

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    # hooks run after a successful call: (positional args, result, seconds)
    def _on_reduce(self, args, result, dt):
        self._add("words.reduce.letters", len(args[0]))

    def _on_count_full(self, args, result, dt):
        self.count_full_args.add(args)
        if self.frames and self.frames[-1][1] == "distributions.crossing_pmf":
            self._add("distributions.crossing_pmf.terms", 1)

    def _on_pmf(self, args, result, dt):
        bits = max([result.unknot_mass.numerator.bit_length()]
                   + [p.numerator.bit_length() for p in result.masses.values()])
        self._max("distributions.numerator_bits_max", bits)

    def _on_prob(self, args, result, dt):
        self._max("distributions.numerator_bits_max", result.numerator.bit_length())

    def _on_sample(self, args, result, dt):
        n, count = args[0], args[1]
        self._add("sampler.words", count)
        self._add(f"sampler.words.n{n}", count)
        self._add(f"sampler.s.n{n}", dt)

    def _on_tally(self, args, result, dt):
        self.terminals.update(result)

    def _on_exact(self, args, result, dt):
        self._add("oracle.words", 1 << args[0])
        self._add("oracle.distinct_terminals", len(self.terminals))
        self.terminals.clear()

    def _on_svg(self, args, result, dt):
        self._add("render.svg_bytes", len(result))

    def dump(self) -> dict:
        """Raw totals of this process, for summing across processes."""
        out = dict(self.counters)
        for bucket, (calls, incl, own) in self.stats.items():
            out[f"{bucket}.calls"] = calls
            out[f"{bucket}.s"] = incl
            out[f"{bucket}.self_s"] = own
        out["counting.count_full.distinct"] = len(self.count_full_args)
        info = getattr(self.binomial_lt, "cache_info", None)
        if info is not None:
            out["counting.binomial_lt.misses"] = info().misses
            out["counting.binomial_lt.entries"] = info().currsize
        elif self.binomial_lt is not None:
            out["counting.binomial_lt.misses"] = out.get("counting.binomial_lt.calls", 0)
        return out


def add_dumps(dumps: list[dict]) -> dict:
    total: dict[str, float] = {}
    for d in dumps:
        for key, value in d.items():
            if key == "distributions.numerator_bits_max":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_values(raw: dict, extra: dict) -> dict[str, float]:
    """Per-layer metric values of one round from summed raw totals.

    extra holds the values measured outside the wrappers (cli.* timings
    and trace.wall_s).
    """
    def rate(words, seconds):
        return raw.get(words, 0) / raw[seconds] if raw.get(seconds) else 0.0

    derived = {
        "sampler.words_per_s.n30": rate("sampler.words.n30", "sampler.s.n30"),
        "sampler.words_per_s.n300": rate("sampler.words.n300", "sampler.s.n300"),
        "oracle.words_per_s": rate("oracle.words", "oracle.exact_distribution.s"),
    }
    out = {}
    for name in LAYER_METRICS:
        if name in extra:
            out[name] = extra[name]
        elif name in derived:
            out[name] = derived[name]
        else:
            out[name] = raw.get(name, 0)
    return out
