"""Correctness checks for the benchmark's workloads.

Every check takes a program output (already parsed, or raw CLI stdout) and
the reference it is tested against, and returns a list of error strings;
an empty list means the output passed.  References are either computed
here from first principles (the word calculus below is written from the
rewriting rules, not imported from the program) or are a different part
of the program that reaches the same number another way (the brute-force
oracle, the closed formula for one knot).  No check compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

UNKNOT_FORMS = ("", "0", "1", "00", "11")
LOG2_ALPHA = math.log2(27 / 32) / 3

#: allowed distance, in binomial standard errors, between a sampled
#: frequency and the exact mass
SAMPLE_SE_LIMIT = 5.0
#: bins whose expected count is below this are pooled into one tail bin
SAMPLE_MIN_EXPECTED = 10.0


# ---------------------------------------------------------------- word calculus


def moves(w: str) -> list[tuple[str, int, str]]:
    """Legal reduction moves as (kind, 1-based position, deleted triple)."""
    out = [("internal", i + 1, w[i:i + 3]) for i in range(len(w) - 2)
           if w[i:i + 3] in ("000", "111")]
    if len(w) >= 3 and w[:3] in ("001", "110"):
        out.append(("external-prefix", 1, w[:3]))
    if len(w) >= 3 and w[-3:] in ("011", "100"):
        out.append(("external-suffix", len(w) - 2, w[-3:]))
    return out


def internal_reduce(w: str) -> str:
    """Delete 000/111 until none is left (a letter stack gives the normal form)."""
    stack: list[str] = []
    for ch in w:
        stack.append(ch)
        if len(stack) >= 3 and stack[-1] == stack[-2] == stack[-3]:
            del stack[-3:]
    return "".join(stack)


def full_reduce(w: str) -> str:
    """A terminal word of w: internal normal form, then external deletions.

    Deleting an affix never creates an internal triple, so after the
    internal pass only prefix and suffix moves remain.  Terminals are
    unique up to the unknot leftovers.
    """
    w = internal_reduce(w)
    while len(w) >= 3:
        if w[:3] in ("001", "110"):
            w = w[3:]
        elif w[-3:] in ("011", "100"):
            w = w[:-3]
        else:
            break
    return w


def run_lengths(w: str) -> list[int]:
    return [len(m.group()) for m in re.finditer(r"0+|1+", w)]


def _complement(w: str) -> str:
    return w.translate(str.maketrans("01", "10"))


def _resize(w: str) -> str:
    if w == "":
        return "0"
    if w in ("0", "1"):
        return ""
    lengths = run_lengths(w)
    inner = [3 - n for n in lengths[1:-1]]
    out, bit = [], w[0]
    for n in [1] + inner + [1]:
        out.append(bit * n)
        bit = "1" if bit == "0" else "0"
    return "".join(out)


def orbit(reduced: str, chiral: bool = False) -> set[str]:
    """Closure of a reduced word under the knot-preserving symmetries."""
    if chiral:
        gens = (lambda u: u[::-1], lambda u: _complement(_resize(u)))
    else:
        gens = (_complement, lambda u: u[::-1], _resize)
    seen, todo = {reduced}, [reduced]
    while todo:
        u = todo.pop()
        for g in gens:
            v = g(u)
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def knot_key(w: str, chiral: bool = False) -> dict:
    """Canonical word, reduced lengths, multiplicity and crossing number of w."""
    t = full_reduce(w)
    if t in UNKNOT_FORMS:
        return {"canonical": "", "ell0": 0, "ell1": 1, "r": 1,
                "crossing_number": 0, "is_unknot": True}
    words = orbit(t, chiral)
    by_res = {0: [u for u in words if len(u) % 3 == 0],
              1: [u for u in words if len(u) % 3 == 1]}
    canonical = min(words, key=lambda u: (len(u), u))
    return {"canonical": canonical, "ell0": len(by_res[0][0]),
            "ell1": len(by_res[1][0]), "r": len(by_res[0]),
            "crossing_number": len(run_lengths(canonical)), "is_unknot": False}


def feasible(size: int, locations) -> bool:
    """2:1 ballot rule: every suffix holds at least twice as many non-locations."""
    locs = set(locations)
    inside = outside = 0
    for t in range(size, 0, -1):
        if t in locs:
            inside += 1
        else:
            outside += 1
        if 2 * inside > outside:
            return False
    return True


# ------------------------------------------------------------------ exact pmf


def _fraction_parts(text: str) -> tuple[int, int]:
    num, den = text.split("/")
    return int(num), int(den)


def check_pmf(n: int, out: dict, trefoil: str | None) -> list[str]:
    """crossing_pmf(n).to_json(): masses are k/2^n, sum to 1, ends are right.

    trefoil is the trefoil's knot_probability at n ("num/den"), or None to
    skip that comparison.
    """
    errors = []
    if out.get("n") != n:
        return [f"pmf reports n={out.get('n')}, asked {n}"]
    den = 1 << n
    unk_num, unk_den = _fraction_parts(out["unknot"])
    masses = {int(c): _fraction_parts(p) for c, p in out["pmf"].items()}
    if unk_den != den or any(d != den for _, d in masses.values()):
        errors.append(f"n={n}: a denominator is not 2^{n}")
    if sorted(masses) != list(range(3, n + 1)):
        errors.append(f"n={n}: crossing numbers are not 3..{n}")
    total = unk_num + sum(num for num, _ in masses.values())
    if total != den:
        errors.append(f"n={n}: masses sum to {Fraction(total, den)}, not 1")
    if masses.get(n) != (2, den):
        errors.append(f"n={n}: mass at c=n is {masses.get(n)}, not 2/2^n "
                      "(the two alternating words)")
    if trefoil is not None and n >= 3 and masses.get(3) != _fraction_parts(trefoil):
        errors.append(f"n={n}: mass at c=3 differs from the trefoil probability")
    return errors


def check_pmf_oracle(n: int, out: dict, crossing_counts: dict[int, int]) -> list[str]:
    """The pmf equals the brute-force crossing histogram over all 2^n words."""
    got = {0: _fraction_parts(out["unknot"])[0]}
    got.update((int(c), _fraction_parts(p)[0]) for c, p in out["pmf"].items())
    got = {c: k for c, k in got.items() if k}
    want = {c: k for c, k in crossing_counts.items() if k}
    if got != want:
        diff = sorted(c for c in set(got) | set(want) if got.get(c) != want.get(c))
        return [f"n={n}: pmf differs from exhaustive enumeration at c={diff[:5]}"]
    return []


# ---------------------------------------------------------------------- decay


def check_decay_class(word: str, got: dict, want: dict) -> list[str]:
    """knot_class(word) names the knot computed from the rewriting rules."""
    for key in ("canonical", "crossing_number", "ell0", "ell1", "r"):
        if got.get(key) != want[key]:
            return [f"knot_class({word!r}).{key} = {got.get(key)!r}, "
                    f"expected {want[key]!r}"]
    return []


def check_decay_ladder(gaps: list[tuple[int, float]]) -> list[int]:
    """Indices along an increasing-n ladder where |rate - log2 alpha| did not
    strictly decrease."""
    return [i for i in range(1, len(gaps))
            if not gaps[i][1] < gaps[i - 1][1]]


def check_decay_rate(n: int, rate: float, gap: float) -> list[str]:
    if not (-1.0 < rate < 0.0) or not math.isclose(gap, abs(rate - LOG2_ALPHA),
                                                    rel_tol=1e-9, abs_tol=1e-12):
        return [f"n={n}: rate {rate} and gap {gap} are inconsistent"]
    return []


def check_probability_oracle(n: int, canonical: str, prob: str,
                             counts: dict[str, int]) -> list[str]:
    """knot_probability equals count/2^n from exhaustive enumeration."""
    num, den = _fraction_parts(prob)
    if den != 1 << n or num != counts.get(canonical, 0):
        return [f"n={n} {canonical}: probability {prob}, enumeration counts "
                f"{counts.get(canonical, 0)}/{1 << n}"]
    return []


# --------------------------------------------------------------------- sample


def check_sample_counts(count: int, counts: dict) -> list[str]:
    if sum(counts.values()) != count or any(k < 0 for k in counts.values()):
        return [f"sample counts sum to {sum(counts.values())}, asked {count}"]
    return []


def check_sample_pooled(n: int, pooled: dict[int, int], exact: dict[int, Fraction]
                        ) -> list[str]:
    """Pooled histogram within SAMPLE_SE_LIMIT binomial standard errors of exact.

    Bins with an expected count below SAMPLE_MIN_EXPECTED are merged into
    one tail bin so the normal approximation holds in every tested bin.
    """
    total = sum(pooled.values())
    if total == 0:
        return [f"n={n}: empty pooled sample"]
    if set(pooled) - set(exact):
        return [f"n={n}: sampled crossing numbers {sorted(set(pooled) - set(exact))[:5]} "
                "have exact mass 0"]
    bins: list[tuple[str, float, int]] = []
    tail_p, tail_k = 0.0, 0
    for c, p in exact.items():
        p = float(p)
        if p * total >= SAMPLE_MIN_EXPECTED:
            bins.append((f"c={c}", p, pooled.get(c, 0)))
        else:
            tail_p += p
            tail_k += pooled.get(c, 0)
    if tail_p > 0:
        bins.append(("tail", tail_p, tail_k))
    errors = []
    for name, p, k in bins:
        se = math.sqrt(p * (1 - p) / total)
        if abs(k / total - p) > SAMPLE_SE_LIMIT * se + 1e-12:
            errors.append(f"n={n} {name}: sampled {k / total:.5f}, exact {p:.5f}, "
                          f"{abs(k / total - p) / se:.1f} standard errors apart")
    return errors


# ------------------------------------------------------------------------ cli


def _pmf_from_cli(fmt: str, stdout: str) -> dict[int, tuple[int, int]]:
    if fmt == "json":
        out = json.loads(stdout)
        masses = {0: _fraction_parts(out["unknot"])}
        masses.update((int(c), _fraction_parts(p)) for c, p in out["pmf"].items())
        return masses
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        return {int(r[0]): (int(r[1]), int(r[2])) for r in rows[1:]}
    masses = {}
    for line in stdout.splitlines():
        m = re.match(r"c=(\d+)(?: \(unknot\))?: (\d+/\d+) = ", line)
        if not m:
            raise ValueError(f"unparsed pmf line {line[:60]!r}")
        masses[int(m.group(1))] = _fraction_parts(m.group(2))
    return masses


def check_cli(op: dict, rc: int, stdout: str, refs: dict) -> list[str]:
    """Check one CLI process: its exit code, then what it printed.

    refs holds the references the parent computed for this op (see
    run.py: cli_references); kinds without a reference need none.
    """
    if rc != op["expect"]:
        return [f"{op['kind']}: exit {rc}, expected {op['expect']}"]
    if op["expect"] != 0:
        return []
    try:
        return _CLI_CHECKS[op["kind"]](op, stdout, refs)
    except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return [f"{op['kind']}: unparsable output ({type(exc).__name__}: {exc})"]


def _cli_reduce(op, stdout, refs):
    word = op["word"]
    if op.get("format") == "json":
        out = json.loads(stdout)
        got = out["reduced"]
        t = got if got not in UNKNOT_FORMS else ""
        if out["crossing_number"] != (len(run_lengths(t)) if t else 0):
            return [f"reduce json: crossing_number {out['crossing_number']} "
                    f"disagrees with {got!r}"]
    else:
        got = stdout.strip()
    if moves(got):
        return [f"reduce: {got[:40]!r} still has a legal move"]
    if len(got) % 3 != len(word) % 3:
        return [f"reduce: length {len(got)} differs from {len(word)} mod 3"]
    if "terminals" in refs:
        terminals = refs["terminals"]
        if got not in terminals or (len(terminals) > 1
                                    and not all(t in UNKNOT_FORMS for t in terminals)):
            return [f"reduce {word}: {got!r} not the terminal of every move order "
                    f"{sorted(terminals)}"]
    return []


def _cli_moves(op, stdout, refs):
    want = [f"{k}@{p}: {t}" for k, p, t in moves(op["word"])]
    got = stdout.strip().splitlines()
    if got != (want or ["(no moves)"]):
        return [f"moves: {len(got)} lines, expected {len(want)} legal moves"]
    return []


def _cli_class(op, stdout, refs):
    want = knot_key(op["word"], op.get("chiral", False))
    return check_decay_class(op["word"][:40], json.loads(stdout), want)


def _cli_prob(op, stdout, refs):
    num, den = _fraction_parts(stdout.split(" = ")[0])
    if den != 1 << op["n"] or not 0 < num <= den:
        return [f"prob: {num}/{den} is not a probability with denominator 2^{op['n']}"]
    return []


def _cli_rate(op, stdout, refs):
    m = re.match(r"log2 rate (\S+)  target (\S+)  gap (\S+)", stdout)
    rate, target, gap = (float(m.group(i)) for i in (1, 2, 3))
    if abs(target - LOG2_ALPHA) > 1e-6 or abs(gap - abs(rate - target)) > 2e-6 \
            or not -1 < rate < 0:
        return [f"rate: {stdout.strip()[:80]!r} is inconsistent"]
    return []


def _cli_pmf(op, stdout, refs):
    n = op["n"]
    masses = _pmf_from_cli(op.get("format", "text"), stdout)
    den = 1 << n
    if any(d != den for _, d in masses.values()):
        return [f"pmf --n {n}: a denominator is not 2^{n}"]
    if sum(k for k, _ in masses.values()) != den:
        return [f"pmf --n {n}: fractions do not sum to 1"]
    return []


def _cli_enumerate(op, stdout, refs):
    n = op["n"]
    out = json.loads(stdout)
    counts = [int(v) for v in out["counts"].values()]
    crossing = {int(c): int(v) for c, v in out["crossing_counts"].items()}
    if sum(counts) != 1 << n:
        return [f"enumerate --n {n}: counts sum to {sum(counts)}, not 2^{n}"]
    want = {c: k for c, k in refs["pmf_numerators"].items() if k}
    if crossing != want:
        return [f"enumerate --n {n}: crossing histogram differs from crossing_pmf"]
    return []


def _cli_insertions(op, stdout, refs):
    lines = stdout.strip().splitlines()
    found, summary = lines[:-1], lines[-1]
    base, m = op["word"], op["m"]
    if summary != f"({len(found)} words)" or len(set(found)) != len(found):
        return [f"insertions: summary {summary!r} does not match {len(found)} words"]
    if len(found) != refs["count_full"]:
        return [f"insertions {base} --m {m}: {len(found)} words, closed formula "
                f"says {refs['count_full']}"]
    target = full_reduce(base)
    for u in found:
        if len(u) != len(base) + 3 * m or full_reduce(u) != target:
            return [f"insertions: {u!r} does not reduce to {target!r}"]
    return []


def _cli_trace(op, stdout, refs):
    last = stdout.strip().splitlines()[-1]
    size = len(op["word"]) + 3 * op["m"]
    expect_ok = feasible(size, op["locations"])
    if not expect_ok:
        return [] if last == "result: failure" else [f"trace: {last!r}, expected failure"]
    m = re.fullmatch(r"result: success ([01]+)", last)
    if not m:
        return [f"trace: {last!r}, expected success"]
    word = m.group(1)
    if len(word) != size or internal_reduce(word) != internal_reduce(op["word"]):
        return [f"trace: {word!r} is not {op['word']!r} plus {op['m']} triples"]
    return []


def _cli_render(op, stdout, refs):
    m = re.fullmatch(r"wrote (\S+) \((\d+) bytes\)", stdout.strip())
    if not m:
        return [f"render: unexpected output {stdout.strip()[:60]!r}"]
    with open(refs["svg_path"], encoding="utf-8") as fh:
        text = fh.read()
    if len(text) != int(m.group(2)):
        return [f"render: file holds {len(text)} bytes, reported {m.group(2)}"]
    root = ET.fromstring(text.encode("utf-8"))
    if root.tag != "{http://www.w3.org/2000/svg}svg" or not root.get("viewBox"):
        return [f"render: root element {root.tag!r} is not an svg"]
    strands = [el for el in root if el.get("class") == "strand"]
    if len(strands) < len(op["word"]):
        return [f"render: {len(strands)} strand pieces for {len(op['word'])} crossings"]
    return []


def _cli_selfcheck(op, stdout, refs):
    lines = stdout.strip().splitlines()
    bad = [line for line in lines if not line.startswith("PASS  ")]
    if not lines or bad:
        return [f"selfcheck: {bad[0][:80] if bad else 'no output'}"]
    return []


_CLI_CHECKS = {
    "reduce": _cli_reduce, "moves": _cli_moves, "class": _cli_class,
    "prob": _cli_prob, "rate": _cli_rate, "pmf": _cli_pmf,
    "enumerate": _cli_enumerate, "insertions": _cli_insertions,
    "trace": _cli_trace, "render": _cli_render, "selfcheck": _cli_selfcheck,
}
