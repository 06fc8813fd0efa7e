"""Connected-component decomposition of set-cover instances.

Repair MWSCP instances are *clustered*: a violation set only shares fixes
with violation sets touching the same tuples, so the element/set incidence
graph splits into many small connected components (one per "infected"
group of tuples - e.g. one per household in the census workload).  The
components are independent subproblems:

* any solver runs on each component separately with identical results for
  greedy-style algorithms (their choices never interact across
  components);
* the **exact** solver becomes feasible on large databases whose
  components are small - optimal repairs for real inconsistency profiles,
  something the monolithic branch-and-bound can never do;
* the layer algorithm actually *improves* under decomposition: its global
  minimum-ratio subtraction couples unrelated components (a cheap set in
  one component delays zeroing in another), so per-component layering can
  only produce lighter covers.

``decompose`` returns the components; ``solve_by_components`` runs a
solver per component and stitches the covers back together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.setcover.instance import SetCoverInstance, WeightedSet
from repro.setcover.result import Cover


@dataclass(frozen=True)
class Component:
    """One connected component of an instance, with id mappings back.

    ``element_ids[i]`` / ``set_ids[j]`` give the original ids of the
    component-local element ``i`` / set ``j``.
    """

    instance: SetCoverInstance
    element_ids: tuple[int, ...]
    set_ids: tuple[int, ...]


def decompose(instance: SetCoverInstance) -> tuple[Component, ...]:
    """Split an instance into its connected components.

    Two elements are connected when some set contains both; sets join the
    component of their elements.  Sets with no elements are dropped (they
    can never be part of a sensible cover).  Components are ordered by
    their smallest element id, elements and sets keep relative order, so
    the decomposition is deterministic.
    """
    parent = list(range(instance.n_elements))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    for weighted_set in instance.sets:
        elements = weighted_set.elements
        for other in elements[1:]:
            union(elements[0], other)

    members: dict[int, list[int]] = {}
    for element in range(instance.n_elements):
        members.setdefault(find(element), []).append(element)
    # One pass over the sets, bucketed by component root: each bucket
    # keeps the sets' relative order.
    buckets: dict[int, list[WeightedSet]] = {}
    for weighted_set in instance.sets:
        if weighted_set.elements:
            buckets.setdefault(find(weighted_set.elements[0]), []).append(
                weighted_set
            )

    components: list[Component] = []
    for root in sorted(members, key=lambda r: members[r][0]):
        element_ids = tuple(members[root])
        local_of = {e: i for i, e in enumerate(element_ids)}
        bucket = buckets.get(root, ())
        local_sets = [
            WeightedSet(
                index,
                weighted_set.weight,
                tuple(local_of[e] for e in weighted_set.elements),
                weighted_set.payload,
            )
            for index, weighted_set in enumerate(bucket)
        ]
        components.append(
            Component(
                instance=SetCoverInstance(len(element_ids), local_sets),
                element_ids=element_ids,
                set_ids=tuple(s.set_id for s in bucket),
            )
        )
    return tuple(components)


def _solver_name(solver: Callable[[SetCoverInstance], Cover]) -> str:
    # Flat-engine twins are named ``flat_<object name>``; the prefix is
    # stripped so decomposed covers carry the same ``algorithm`` label on
    # both engines (the funnel compares labels, stats carry the engine).
    name = getattr(solver, "__name__", "solver")
    return name[5:] if name.startswith("flat_") else name


def solve_by_components(
    instance: SetCoverInstance,
    solver: Callable[[SetCoverInstance], Cover],
    max_component_elements: int | None = None,
    fallback: Callable[[SetCoverInstance], Cover] | None = None,
) -> Cover:
    """Solve each connected component independently and merge the covers.

    ``max_component_elements`` + ``fallback`` support the practical
    "exact where feasible" policy: components larger than the limit are
    handed to the fallback approximation instead of the main solver.

    The merged ``stats`` carry the component counts plus the key-wise sum
    of every per-component solver stat (heap operations, layers, B&B
    nodes, ...), so decomposition no longer discards solver bookkeeping.
    """
    components = decompose(instance)
    oversized = 0
    selected: list[int] = []
    total_weight = 0.0
    iterations = 0
    merged_stats: dict[str, "int | float | str"] = {}
    label_stats: dict[str, list[str]] = {}
    for component in components:
        use = solver
        if (
            max_component_elements is not None
            and component.instance.n_elements > max_component_elements
        ):
            if fallback is None:
                raise ValueError(
                    f"component with {component.instance.n_elements} elements "
                    f"exceeds the limit {max_component_elements} and no "
                    "fallback solver was given"
                )
            use = fallback
            oversized += 1
        cover = use(component.instance)
        selected.extend(component.set_ids[i] for i in cover.selected)
        total_weight += cover.weight
        iterations += cover.iterations
        for key, value in cover.stats.items():
            if isinstance(value, str):
                # Label stats (e.g. ``solver_engine``) cannot be summed;
                # they survive the merge when every component agrees.
                label_stats.setdefault(key, []).append(value)
                continue
            # Int counts stay int (see repro.obs.stats for the schema);
            # any float contribution makes the sum float.
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    continue  # non-numeric solver stat: nothing sensible to merge
            merged_stats[key] = merged_stats.get(key, 0) + value
    for key, values in label_stats.items():
        if len(values) == len(components) and all(v == values[0] for v in values):
            merged_stats[key] = values[0]

    label = _solver_name(solver)
    if oversized:
        label = f"{label}, fallback={_solver_name(fallback)}"
    merged_stats["components"] = len(components)
    merged_stats["oversized_components"] = oversized
    return Cover(
        selected=tuple(selected),
        weight=total_weight,
        algorithm=f"by-components({label})",
        iterations=iterations,
        stats=merged_stats,
    )


def component_size_histogram(
    components: Sequence[Component],
) -> dict[int, int]:
    """``{component element count: how many components}`` for diagnostics."""
    histogram: dict[int, int] = {}
    for component in components:
        size = component.instance.n_elements
        histogram[size] = histogram.get(size, 0) + 1
    return dict(sorted(histogram.items()))
