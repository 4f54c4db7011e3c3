"""Built-in consistency checks wiring the formulas against the brute force.

Each check returns (ok, detail), and on failure the detail names the input
that failed; or it raises, as a crossing pmf does when its run-time
certificate fails.  _run grades both: a raise is a failed check with detail
"<ExceptionType>: <message>".  These functions are the only implementation
of each audit: the package's tests call them at their own sizes and assert
on the result, and its planted-fault tests grade them through _run.
run_selfcheck runs them through _run from one table, SELFCHECKS, and names
each row by its function's name without "check_" and with "-" for "_".  The
quick column runs in a fraction of a second; the deep column repeats the
expensive audits at larger sizes and adds the rows whose quick column is
None.  check_sampler_crossings runs only from the tests: it needs numpy,
and importing numpy alone takes longer than a whole quick selfcheck process.
"""

from __future__ import annotations

import random
from itertools import accumulate, combinations
from math import comb
from typing import Callable, Optional

from . import counting, distributions, insertions, oracle, words

Check = tuple[bool, str]


def check_reduce_engines(max_n: int) -> Check:
    """The move-by-move reference and words.reduce agree on every word.

    Both paths of reduce run: words its replace pass finishes, and words
    the pass leaves a triple in, which its letter stack finishes.  A skipped
    letter stack shows from 8 letters on, first at 10011101."""
    for n in range(max_n + 1):
        for w in oracle.all_words(n):
            slow = oracle.reduce_by_moves(w)
            fast = words.reduce(w)
            if slow != fast:
                return False, f"{w!r}: {slow!r} != {fast!r}"
    return True, f"all words up to length {max_n}"


def check_sampler_crossings(max_n: int) -> Check:
    """The sampler's lockstep batch reduction gives words.crossing_number on
    every word up to length max_n, on 100 random words of each length up to 60
    from seed 0, and on 3001-letter rows as uint8 and bool: alternating (it
    pushes on every letter, so when the slab from column j0 is copied its
    stack fills columns 0 .. j0 - 1 and its next push lands on column j0),
    000111... (each third pops), random."""
    import numpy as np  # only the sampler and its check load numpy

    from . import sampler

    batches = [np.array([list(map(int, w)) for w in oracle.all_words(n)], dtype=np.uint8)
               for n in range(max_n + 1)]
    rng = np.random.default_rng(0)
    batches += [rng.integers(0, 2, size=(100, n), dtype=np.uint8) for n in range(1, 61)]
    col = np.arange(3001)
    long = np.vstack([col % 2, 1 - col % 2, col // 3 % 2, rng.integers(0, 2, (8, 3001))])
    batches += [long.astype(np.uint8), long.astype(bool)]
    for rows in batches:  # the walk overwrites uint8 rows, so it gets a copy
        for row, got in zip(rows, sampler.row_crossings(rows.copy()).tolist()):
            w = "".join("01"[b] for b in row.tolist())
            if got != words.crossing_number(w):
                return False, f"{w!r}: {got} != {words.crossing_number(w)}"
    return True, (f"all words up to length {max_n}, 100 random words of each "
                  "length up to 60, 11 rows of 3001 letters as uint8 and bool")


def check_confluence(max_n: int) -> Check:
    """Every move order reaches one terminal (or only unknot leftovers),
    and words.reduce reaches one of them."""
    for n in range(max_n + 1):
        for w in oracle.all_words(n):
            terminals = oracle.all_terminal_words(w)
            if len(terminals) > 1:
                if not all(t in words.UNKNOT_FORMS for t in terminals):
                    return False, f"{w!r} -> {sorted(terminals)}"
            if words.reduce(w) not in terminals:
                return False, f"{w!r}: reduce misses {sorted(terminals)}"
    return True, f"all words up to length {max_n}"


def check_counting_identities(limit: int) -> Check:
    """The anchored (C(n, m), partial row sum) pair and (binomial, binomial_lt)
    equal math.comb and its prefix sums with m walked up the row one step at a
    time, back down, and then reached from k = 0 by the two-position walk for
    every m >= 4, so each kind of walk is audited."""
    for n in range(limit + 1):
        row = [comb(n, k) for k in range(n + 1)]
        sums = [0, *accumulate(row)]
        ups = [q for m in range(4, n + 1) for q in (m, 0)]
        for m in (*range(n + 1), *range(n - 1, -1, -1), *ups):
            if counting._binomial_and_below(n, m) != (row[m], sums[m]):
                return False, f"anchored pair at {n=} {m=}"
            if (counting.binomial(n, m), counting.binomial_lt(n, m)) != (row[m], sums[m]):
                return False, f"binomial or binomial_lt at {n=} {m=}"
    return True, f"n up to {limit}"


def check_count_full_summation(limit: int) -> Check:
    """The closed full count equals its pre-simplification form: the internal
    count plus 4e staged external variants for each e external insertions."""
    for m in range(limit + 1):
        for ell in range(limit + 1):
            n = 3 * m + ell
            total = counting.count_internal(ell, m)
            for e in range(1, m + 1):
                total += 4 * e * (
                    counting.binomial(n, m - e) - counting.binomial_lt(n, m - e)
                )
            got = counting.count_full(m, ell)
            if got != total:
                return False, f"F({m},{ell}): {got} != {total}"
    return True, f"m, ell up to {limit}"


def check_insertion_counts(
    max_m: int, bases: tuple[str, ...] = ("101", "0101")
) -> Check:
    """Closed counting formulas equal brute-force enumeration sizes."""
    for base in bases:
        for m in range(max_m + 1):
            expected = len(oracle.enumerate_insertions(base, m, oracle.INTERNAL_ONLY))
            got = counting.count_internal(len(base), m)
            if expected != got:
                return False, f"I'({base},{m}): {expected} != {got}"
            expected = len(oracle.enumerate_insertions(base, m, oracle.ALL))
            got = counting.count_full(m, len(base))
            if expected != got:
                return False, f"I({base},{m}): {expected} != {got}"
    return True, f"m up to {max_m}"


def check_distribution(
    lengths, modes: tuple[str, ...] = (words.MIRROR_IDENTIFIED, words.CHIRAL)
) -> Check:
    """Formula probabilities and the crossing pmf match exhaustive enumeration."""
    lengths = tuple(lengths)
    for n in lengths:
        terminals = oracle.tally_terminals(n)
        for mode in modes:
            dist = oracle.classify_terminals(n, terminals, mode)
            for canonical, cnt in dist.counts.items():
                p = distributions.knot_probability(dist.classes[canonical], n)
                if p != distributions.ExactProb(cnt, n):  # both out of 2**n words
                    detail = f"n={n} {mode} {canonical!r}: {p} != {cnt}/{dist.total}"
                    return False, detail
            pmf = distributions.crossing_pmf(n)
            for c, cnt in dist.crossing_counts.items():
                if pmf.counts.get(c) != cnt:
                    return False, f"n={n} c={c}: {pmf.counts.get(c)} != {cnt} words"
    return True, f"n in {sorted(lengths)}"


def check_pmf_reference(max_n: int) -> Check:
    """The crossing pmf from the recurrence in c equals the reference double
    sum; a pmf whose run-time certificate fails raises its AssertionError."""
    for n in range(max_n + 1):
        if n % 3 == 2:
            continue
        fast = distributions.crossing_pmf(n).counts
        slow = oracle.crossing_pmf_by_double_sum(n).counts
        for c in sorted(fast.keys() | slow.keys()):
            if fast.get(c) != slow.get(c):
                return False, f"n={n} c={c}: {fast.get(c)} != {slow.get(c)} words"
    return True, f"n up to {max_n}"


def check_pmf_normalization(max_n: int) -> Check:
    """Every crossing pmf up to max_n passes its run-time certificate, so
    each division is exact and the masses sum to exactly 1; a pmf whose
    certificate fails raises its AssertionError, whose message names n."""
    for n in range(1, max_n + 1):
        if n % 3 != 2:
            distributions.crossing_pmf(n)
    return True, f"n up to {max_n}"


def check_class_invariance(
    max_m: int, bases: tuple[str, ...] = ("101", "0101", "100101")
) -> Check:
    """Every word reachable by at most m insertions of any kind keeps the
    base word's knot class, and its reduced length keeps the base's
    length mod 3."""
    for base in bases:
        cls = words.knot_class(base)
        for m in range(max_m + 1):
            for wp in oracle.enumerate_insertions(base, m, oracle.ALL):
                if words.knot_class(wp) != cls:
                    return False, f"{base!r} -> {wp!r}: class changed"
                if len(words.reduce(wp)) % 3 != len(base) % 3:
                    return False, f"{base!r} -> {wp!r}: reduced length mod 3 changed"
    return True, f"bases {', '.join(bases)}, m <= {max_m}"


def check_location_roundtrip(max_len: int, max_m: int) -> Check:
    """Location map is injective on every enumerated insertion set and
    reconstruction inverts it."""
    for n in range(max_len + 1):
        for w in oracle.all_words(n):
            for m in range(max_m + 1):
                seen = {}
                for wp in oracle.enumerate_insertions(w, m, oracle.INTERNAL_ONLY):
                    loc = insertions.location_map(w, wp)
                    if loc is None:
                        return False, f"{w!r} -> {wp!r}: no map"
                    other = seen.setdefault(loc, wp)
                    if other != wp:
                        return False, f"{w!r} -> {wp!r} and {other!r} share {loc}"
                    trace = insertions.reconstruct(w, m, loc)
                    if trace.word != wp:
                        return False, f"{w!r} -> {wp!r} via {loc}"
    return True, f"len <= {max_len}, m <= {max_m}"


def check_feasibility(max_len: int, max_m: int) -> Check:
    """Reconstruction succeeds exactly on the feasible location sets, for
    every base word and every set of at most m locations."""
    for n in range(max_len + 1):
        for m in range(max_m + 1):
            size = 3 * m + n
            for k in range(m + 1):
                for locs in combinations(range(1, size + 1), k):
                    feasible = insertions.is_feasible(size, locs)
                    for w in oracle.all_words(n):
                        if insertions.reconstruct(w, m, locs).success != feasible:
                            detail = f"{w!r}, m={m}, {locs}: is_feasible says {feasible}"
                            return False, detail
    return True, f"len <= {max_len}, m <= {max_m}"


def check_phi_gradient(seed: int) -> Check:
    """Closed-form phi gradient matches central differences (step 1e-6) within
    1e-5 at 100 random interior points."""
    phi, step, tol = distributions.phi, 1e-6, 1e-5
    rng = random.Random(seed)
    checked = 0
    while checked < 100:
        x = rng.uniform(0.05, 0.9)
        y = rng.uniform(0.01, 0.9)
        if not (step < y < x - step and x + y < 1 - step):
            continue
        gx, gy = distributions.phi_gradient(x, y)
        fx = (phi(x + step, y) - phi(x - step, y)) / (2 * step)
        fy = (phi(x, y + step) - phi(x, y - step)) / (2 * step)
        if abs(gx - fx) > tol or abs(gy - fy) > tol:
            return False, f"at ({x}, {y}): ({gx}, {gy}) vs differences ({fx}, {fy})"
        checked += 1
    return True, f"100 points from seed {seed}"


def check_alpha_gap(lengths) -> Check:
    """Trefoil rate gap shrinks along increasing lengths."""
    trefoil = words.knot_class("101")
    gaps = [distributions.alpha_rate(trefoil, n).gap for n in lengths]
    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    return ok, " > ".join(f"{g:.4f}" for g in gaps)


#: (check, quick arguments or None, deep arguments), in the order they run
SELFCHECKS: list[tuple[Callable[..., Check], Optional[tuple], tuple]] = [
    (check_reduce_engines, (9,), (12,)),
    (check_confluence, (8,), (10,)),
    (check_counting_identities, (20,), (40,)),
    (check_count_full_summation, None, (12,)),
    (check_insertion_counts, (2,), (3,)),
    (check_class_invariance, None, (1,)),
    (check_distribution, ((3, 4, 6, 7),), ((1, 3, 4, 6, 7, 9, 10, 12, 13),)),
    (check_pmf_normalization, (21,), (40,)),
    (check_pmf_reference, None, (60,)),
    (check_location_roundtrip, (3, 2), (4, 3)),
    (check_feasibility, None, (2, 2)),
    (check_phi_gradient, None, (0,)),
    (check_alpha_gap, None, ((99, 300, 999),)),
]


def _run(fn: Callable[..., Check], args: tuple) -> Check:
    """fn(*args), with a raise graded as (False, "<ExceptionType>: <message>")."""
    try:
        return fn(*args)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"


def run_selfcheck(deep: bool = False) -> list[tuple[str, bool, str]]:
    """Run one column of SELFCHECKS through _run as (name, ok, detail) rows."""
    results = []
    for fn, quick, deep_args in SELFCHECKS:
        args = deep_args if deep else quick
        if args is not None:
            name = fn.__name__.removeprefix("check_").replace("_", "-")
            results.append((name, *_run(fn, args)))
    return results
