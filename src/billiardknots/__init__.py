"""Random two-bridge knots from billiard-table diagrams.

Binary words encode the crossing choices of a slope-one billiard trajectory
on a 3-row table; this package implements the reduction/insertion calculus
on such words, exact knot and crossing-number distributions, brute-force
and Monte Carlo cross-validation, and an SVG renderer, all behind one CLI.

Only the sampler needs numpy, whose import is most of a CLI process's
start-up, so it and its names load on first access (PEP 562).
"""

import importlib

from .counting import (
    binomial,
    binomial_lt,
    count_full,
    count_full_row,
    count_internal,
    feasible_count,
)
from .distributions import (
    ALPHA,
    BETA,
    AsymptoticReport,
    BetaSummary,
    CrossingPmf,
    ExactProb,
    alpha_rate,
    beta_summary,
    crossing_pmf,
    knot_probability,
    phi,
    phi_gradient,
)
from .insertions import (
    ExternalDecomposition,
    LocationSet,
    ReconstructionTrace,
    decompose_external,
    is_feasible,
    location_map,
    member,
    reconstruct,
    witnesses,
)
from .oracle import (
    ExactDist,
    ResourceGuardError,
    all_terminal_words,
    crossing_pmf_by_double_sum,
    enumerate_insertions,
    exact_distribution,
    reduce_by_moves,
    tally_terminals,
)
from .render import BilliardGeometry, billiard_geometry, render_svg
from .words import (
    CHIRAL,
    MIRROR_IDENTIFIED,
    UNKNOT_CLASS,
    KnotClass,
    ReductionMove,
    RunDecomposition,
    Word,
    apply_move,
    available_moves,
    complement,
    crossing_number,
    is_reduced,
    knot_class,
    reduce,
    reduce_runs,
    resize,
    reverse,
    runs,
    symmetry,
    symmetry_orbit,
)

__version__ = "0.1.0"

_SAMPLER_NAMES = ("SampleReport", "sample_pmf", "tv_distance")


def __getattr__(name):
    # import_module, not `from . import sampler`: the latter asks this
    # package for the attribute first and would recurse back here
    if name == "sampler" or name in _SAMPLER_NAMES:
        sampler = importlib.import_module(".sampler", __name__)
        return sampler if name == "sampler" else getattr(sampler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
