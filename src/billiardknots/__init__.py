"""Random two-bridge knots from billiard-table diagrams.

Binary words encode the crossing choices of a slope-one billiard trajectory
on a 3-row table; this package implements the reduction/insertion calculus
on such words, exact knot and crossing-number distributions, brute-force
and Monte Carlo cross-validation, and an SVG renderer, all behind one CLI.
"""

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
from .sampler import SampleReport, sample_pmf, tv_distance
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
