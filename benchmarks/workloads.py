"""Seeded inputs of the four workloads.

Each function maps a workload seed to one round: the fixed list of
operations a run repeats, and how often (in operations) the round times
the machine's speed (calibration.py).  Sizes sit in narrow seed-jittered
bands, so two seeds give different inputs of nearly the same cost.
Nothing here imports the program; the knot catalogue is built with the
benchmark's own word calculus (checks.py).
"""

from __future__ import annotations

import itertools
import random

from checks import knot_key, orbit

#: rungs of the pmf ladder below and above the cluster: seven consecutive
#: valid lengths from a seeded start near PMF_CLUSTER, whose middle one is
#: the median operation
PMF_LOW = (301, 400)
PMF_CLUSTER = 440
PMF_HIGH = (550, 649)
#: small lengths whose pmf is compared with exhaustive enumeration
PMF_ORACLE = (10, 12, 13, 15, 16)

#: rungs of the decay ladder, run at both residues 0 and 1 mod 3
DECAY_RUNGS = (1500, 2000, 2500, 3000)
#: lengths at which every knot's probability is compared with enumeration
DECAY_ORACLE = (15, 16)

#: (n, count, workers) of the sampler calls; half use two workers
SAMPLE_CALLS = ([(300, 1500, w) for w in (1, 2, 1, 2, 1, 2, 1, 2, 1)]
                + [(30, 5000, w) for w in (2, 1, 2)])


def valid(n: int) -> bool:
    return n % 3 != 2


def _rung(rng: random.Random, base: int, width: int = 6) -> int:
    return rng.choice([n for n in range(base, base + width + 1) if valid(n)])


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _valid_length(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([n for n in range(lo, hi + 1) if valid(n)])


def knot_catalogue() -> list[dict]:
    """The 26 two-bridge knots with 3 to 8 crossings, as reduced words.

    Reduced words have first and last runs of length 1 and inner runs of
    length 1 or 2; one canonical word is kept per symmetry orbit.
    """
    seen: dict[str, dict] = {}
    for c in range(3, 9):
        for inner in itertools.product((1, 2), repeat=c - 2):
            lengths = (1,) + inner + (1,)
            w = "".join(("1" if i % 2 == 0 else "0") * k for i, k in enumerate(lengths))
            if not valid(len(w)):
                continue
            key = knot_key(w)
            seen.setdefault(key["canonical"], key)
    catalogue = sorted(seen.values(), key=lambda k: (k["crossing_number"], k["canonical"]))
    if len(catalogue) != 26:
        raise AssertionError(f"expected 26 two-bridge knots, built {len(catalogue)}")
    return catalogue


def _disguise(rng: random.Random, reduced: str) -> str:
    """A random unreduced word of the same knot: 000/111 at random places,
    then external affixes."""
    w = reduced
    for _ in range(rng.randint(2, 6)):
        i = rng.randint(0, len(w))
        w = w[:i] + rng.choice(("000", "111")) + w[i:]
    for _ in range(rng.randint(0, 2)):
        w = rng.choice(("001", "110")) + w
    for _ in range(rng.randint(0, 2)):
        w = w + rng.choice(("011", "100"))
    return w


def pmf_round(seed: int) -> dict:
    rng = random.Random(f"pmf-{seed}")
    start = _rung(rng, PMF_CLUSTER)
    cluster = [n for n in range(start, start + 11) if valid(n)][:7]
    lengths = ([_rung(rng, b) for b in PMF_LOW] + cluster
               + [_rung(rng, b) for b in PMF_HIGH])
    ops = [{"n": n} for n in lengths]
    return {"ops": ops, "oracle": sorted(rng.sample(PMF_ORACLE, 2)), "calibrate_every": 2}


def decay_round(seed: int) -> dict:
    rng = random.Random(f"decay-{seed}")
    knots = knot_catalogue()
    lengths = []
    for residue in (0, 1):
        for base in DECAY_RUNGS:
            n = base + 3 * rng.randint(0, 3)
            lengths.append(n + (residue - n) % 3)
    ops = []
    for n in lengths:
        for k in knots:
            rep = rng.choice(sorted(orbit(k["canonical"])))
            ops.append({"n": n, "word": _disguise(rng, rep),
                        "canonical": k["canonical"]})
    return {"ops": ops, "oracle": list(DECAY_ORACLE), "calibrate_every": len(knots),
            "oracle_words": {k["canonical"]: _disguise(rng, k["canonical"])
                             for k in knots}}


def sample_round(seed: int) -> dict:
    rng = random.Random(f"sample-{seed}")
    seeds = rng.sample(range(1, 2**31), len(SAMPLE_CALLS))
    ops = [{"n": n, "count": count, "seed": s, "workers": w}
           for (n, count, w), s in zip(SAMPLE_CALLS, seeds)]
    return {"ops": ops, "calibrate_every": 2}


def cli_round(seed: int, svg_dir: str) -> dict:
    """A seeded mix of CLI commands; each op is one process."""
    rng = random.Random(f"cli-{seed}")
    knots = knot_catalogue()
    ops: list[dict] = []

    def add(kind, argv, expect=0, **fields):
        ops.append({"kind": kind, "argv": [kind] + argv, "expect": expect, **fields})

    w = _word(rng, _valid_length(rng, 10, 13))
    add("reduce", [w], word=w)
    w = _word(rng, _valid_length(rng, 1000, 1300))
    add("reduce", [w, "--format", "json"], word=w, format="json")
    w = _word(rng, _valid_length(rng, 200, 1000))
    add("moves", [w], word=w)
    w = _word(rng, _valid_length(rng, 300, 800))
    add("class", [w, "--chiral", "--format", "json"], word=w, chiral=True)

    knot = rng.choice(knots)["canonical"]
    n = _valid_length(rng, 2500, 3000)
    add("prob", [_disguise(rng, knot), "--n", str(n)], n=n)
    knot = rng.choice(knots)["canonical"]
    n = _valid_length(rng, 2000, 3000)
    add("rate", ["--word", _disguise(rng, knot), "--n", str(n)], n=n)
    for fmt in ("text", "json", "csv"):
        n = _valid_length(rng, 100, 300)
        add("pmf", ["--n", str(n), "--format", fmt], n=n, format=fmt)

    add("enumerate", ["--n", "13", "--format", "json"], n=13)

    base = rng.choice([k["canonical"] for k in knots if len(k["canonical"]) <= 8])
    m = rng.randint(2, 3)
    add("insertions", [base, "--m", str(m)], word=base, m=m)
    w = _word(rng, rng.randint(3, 8))
    m = rng.randint(2, 4)
    size = len(w) + 3 * m
    locations = sorted(rng.sample(range(1, size + 1), rng.randint(0, m)))
    add("trace", [w, "--m", str(m), "--locations", ",".join(map(str, locations))],
        word=w, m=m, locations=locations)
    w = _word(rng, _valid_length(rng, 10, 40))
    add("render", [w, "--out", f"{svg_dir}/render-{seed}.svg"], word=w,
        svg=f"{svg_dir}/render-{seed}.svg")

    add("selfcheck", [])
    add("selfcheck", ["--deep"])

    # invalid inputs exit 2; an oversized enumeration trips its guard (3)
    bad = _word(rng, 8)
    add("reduce", [bad[:4] + "2" + bad[4:]], expect=2)
    add("pmf", ["--n", str(3 * rng.randint(10, 100) + 2)], expect=2)
    add("enumerate", ["--n", str(rng.choice((25, 28)))], expect=3)
    return {"ops": ops, "calibrate_every": 6}
