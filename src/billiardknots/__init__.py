"""Random two-bridge knots from billiard-table diagrams.

Binary words encode the crossing choices of a slope-one billiard trajectory
on a 3-row table; this package implements the reduction/insertion calculus
on such words, exact knot and crossing-number distributions, brute-force
and Monte Carlo cross-validation, and an SVG renderer, all behind one CLI.

Importing the package loads none of its modules: each public name, and
each module named in _EXPORTS, is imported on first access (PEP 562).  So
a CLI process compiles only the modules its command uses, and numpy, which
only the sampler needs, loads only with the sampler's names.  The sampler's
names stay out of __all__, so ``import *`` does not load numpy either.  The
value types are typing.NamedTuple classes, not data classes, which load inspect.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports through the package
_EXPORTS = {
    "counting": ("binomial", "binomial_lt", "count_full", "count_internal",
                 "feasible_count"),
    "distributions": ("ALPHA", "BETA", "AsymptoticReport", "BetaSummary",
                      "CrossingPmf", "ExactProb", "alpha_rate", "beta_summary",
                      "crossing_pmf", "knot_probability", "phi", "phi_gradient"),
    "insertions": ("ReconstructionTrace", "is_feasible", "location_map",
                   "reconstruct"),
    "oracle": ("ExactDist", "all_terminal_words", "crossing_pmf_by_double_sum",
               "enumerate_insertions", "exact_distribution", "reduce_by_moves",
               "tally_terminals"),
    "render": ("BilliardGeometry", "billiard_geometry", "render_svg"),
    "words": ("CHIRAL", "MIRROR_IDENTIFIED", "UNKNOT_CLASS", "KnotClass",
              "ReductionMove", "ResourceGuardError", "Word", "apply_move",
              "available_moves", "complement", "crossing_number", "is_reduced",
              "knot_class", "reduce", "reduce_runs", "resize", "reverse",
              "symmetry_orbit"),
    "sampler": ("SampleReport", "sample_pmf", "tv_distance"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for name in (*_EXPORTS, *_HOME)
           if name != "sampler" and _HOME.get(name) != "sampler"]


def __getattr__(name):
    # import_module, not `from . import x`: the latter asks this package
    # for the attribute first and would recurse back here
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
