"""Solver registry: look up set-cover algorithms by name.

The repair engine, the benchmarks, and the CLI all select algorithms
through this registry, so the four paper algorithms and the exact solver
share one namespace:

========================  =====================================================
name                      algorithm
========================  =====================================================
``greedy``                Algorithm 1, plain greedy (O(n³) / O(n²) bounded)
``modified-greedy``       Algorithms 2-5, priority queue (O(n²logn)/O(nlogn))
``layer``                 layer algorithm, full subtraction per iteration
``modified-layer``        layer algorithm on the priority-queue structures
``exact``                 branch and bound, small instances only
``exact-decomposed``      exact per connected component, greedy fallback
``lp-rounding``           LP relaxation + frequency rounding (needs scipy)
========================  =====================================================

Every algorithm additionally exists on two **engines**: the ``object``
engine (the per-``WeightedSet`` reference implementations above) and the
``flat`` engine (:mod:`repro.setcover.flat` - CSR incidence arrays,
bitsets, lazy-decrease queues).  Both return byte-identical covers; the
flat engine is near-linear in total incidence and is what ``auto``
resolves to.  :func:`get_solver` takes the engine as a keyword (default
``object``, the historical behaviour); :func:`resolve_solver_engine`
validates the config/CLI spelling.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.exceptions import SetCoverError
from repro.setcover.decompose import solve_by_components
from repro.setcover.exact import exact_cover
from repro.setcover.flat import (
    flat_exact_cover,
    flat_greedy_cover,
    flat_layer_cover,
    flat_modified_greedy_cover,
    flat_modified_layer_cover,
)
from repro.setcover.greedy import greedy_cover
from repro.setcover.instance import SetCoverInstance
from repro.setcover.layer import layer_cover, modified_layer_cover
from repro.setcover.modified_greedy import modified_greedy_cover
from repro.setcover.result import Cover

Solver = Callable[[SetCoverInstance], Cover]

#: Valid solver-engine spellings (config ``runtime.solver_engine``,
#: CLI ``--solver-engine``).
SOLVER_ENGINES = ("auto", "flat", "object")


def resolve_solver_engine(engine: str = "auto") -> str:
    """Validate an engine spelling and resolve ``auto``.

    ``auto`` always resolves to ``flat``: the pure-Python flat baseline
    needs no optional dependency (NumPy merely accelerates the incidence
    build under the ``[kernel]`` extra), and it dominates the object
    engine at every scale.
    """
    if engine not in SOLVER_ENGINES:
        raise SetCoverError(
            f"unknown solver engine {engine!r}; choose from {SOLVER_ENGINES}"
        )
    return "flat" if engine == "auto" else engine


def exact_decomposed_cover(instance: SetCoverInstance) -> Cover:
    """Exact per connected component, modified greedy on oversized ones.

    Repair instances decompose into many small components (one per group
    of mutually-inconsistent tuples), so this computes truly optimal
    covers on databases far beyond the monolithic exact solver's reach;
    only components above the exact solver's element limit fall back to
    the O(n log n) approximation.
    """
    from repro.setcover.exact import MAX_EXACT_ELEMENTS

    return solve_by_components(
        instance,
        exact_cover,
        max_component_elements=MAX_EXACT_ELEMENTS,
        fallback=modified_greedy_cover,
    )


def _lp_rounding(instance: SetCoverInstance) -> Cover:
    # Imported lazily so the core library stays scipy-free.
    from repro.setcover.lp import lp_rounding_cover

    return lp_rounding_cover(instance)


def greedy_pruned_cover(instance: SetCoverInstance) -> Cover:
    """Greedy followed by redundancy pruning (see ``minimize_cover``)."""
    from repro.setcover.verify import minimize_cover

    return minimize_cover(instance, modified_greedy_cover(instance))


def layer_pruned_cover(instance: SetCoverInstance) -> Cover:
    """Modified layer followed by redundancy pruning.

    Pruning pays off most for the layer algorithm, whose per-layer batch
    commits frequently contain mutually-redundant sets; on the paper's
    workload the pruned layer covers undercut even greedy's.
    """
    from repro.setcover.verify import minimize_cover

    return minimize_cover(instance, modified_layer_cover(instance))


def flat_exact_decomposed_cover(instance: SetCoverInstance) -> Cover:
    """``exact-decomposed`` on the flat engine (same policy, flat solvers)."""
    from repro.setcover.exact import MAX_EXACT_ELEMENTS

    return solve_by_components(
        instance,
        flat_exact_cover,
        max_component_elements=MAX_EXACT_ELEMENTS,
        fallback=flat_modified_greedy_cover,
    )


def flat_greedy_pruned_cover(instance: SetCoverInstance) -> Cover:
    """``greedy+prune`` on the flat engine."""
    from repro.setcover.verify import minimize_cover

    return minimize_cover(instance, flat_modified_greedy_cover(instance))


def flat_layer_pruned_cover(instance: SetCoverInstance) -> Cover:
    """``layer+prune`` on the flat engine."""
    from repro.setcover.verify import minimize_cover

    return minimize_cover(instance, flat_modified_layer_cover(instance))


SOLVERS: Mapping[str, Solver] = {
    "greedy": greedy_cover,
    "modified-greedy": modified_greedy_cover,
    "layer": layer_cover,
    "modified-layer": modified_layer_cover,
    "exact": exact_cover,
    "exact-decomposed": exact_decomposed_cover,
    "lp-rounding": _lp_rounding,
    "greedy+prune": greedy_pruned_cover,
    "layer+prune": layer_pruned_cover,
}

#: Flat-engine twins, keyed like :data:`SOLVERS`.  ``lp-rounding`` has no
#: flat implementation (it is scipy-bound, not incidence-bound) and falls
#: back to the object path.
FLAT_SOLVERS: Mapping[str, Solver] = {
    "greedy": flat_greedy_cover,
    "modified-greedy": flat_modified_greedy_cover,
    "layer": flat_layer_cover,
    "modified-layer": flat_modified_layer_cover,
    "exact": flat_exact_cover,
    "exact-decomposed": flat_exact_decomposed_cover,
    "greedy+prune": flat_greedy_pruned_cover,
    "layer+prune": flat_layer_pruned_cover,
}

#: The paper's recommended default (fastest, same quality as greedy).
DEFAULT_SOLVER = "modified-greedy"


def get_solver(name: str | Solver, engine: str = "auto") -> Solver:
    """Resolve a solver by registry name (or pass a callable through).

    ``engine`` selects the implementation family: ``auto`` (default,
    currently ``flat``), ``flat`` (the CSR/bitset core), or ``object``
    (the per-``WeightedSet`` reference solvers).  Both families return
    byte-identical covers.  Callables pass through
    unchanged regardless of engine; names without a flat twin
    (``lp-rounding``) resolve to the object solver on every engine.
    """
    if callable(name):
        return name
    key = name.lower()
    try:
        solver = SOLVERS[key]
    except KeyError:
        raise SetCoverError(
            f"unknown set-cover algorithm {name!r}; choose from {sorted(SOLVERS)}"
        ) from None
    if resolve_solver_engine(engine) == "flat":
        return FLAT_SOLVERS.get(key, solver)
    return solver
