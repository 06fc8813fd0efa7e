"""Compile denial constraints into columnar detection plans.

The interpreted detector (:mod:`repro.violations.detector`) re-derives a
denial's join structure on every call and evaluates it tuple-by-tuple
through Python closures.  The detection kernels instead *compile* each
:class:`~repro.constraints.denial.DenialConstraint` once into a
:class:`ConstraintPlan` - the columnar analogue of Algorithm 2's SQL-view
formulation, where each constraint becomes one select-project-join query:

* per-atom **local filters**: variable/constant built-ins ``x θ c`` and
  intra-atom repeated variables, evaluable as vectorized masks over one
  relation's columns (the SQL ``WHERE`` clauses on a single alias);
* **join variables**: variables spanning several atoms, i.e. the equality
  join edges of the view;
* **resolved comparisons**: variable/variable built-ins ``x θ y + c``
  mapped to ``(atom, position)`` slots, so an executor can gather both
  sides without re-walking the constraint.

:func:`order_atoms` implements the selectivity-driven join planner: given
the *measured* post-filter candidate count of every atom it produces a
left-deep join order that starts from the most selective atom and prefers
equality-connected expansions (hash/sort joins) over order-connected ones
(sorted interval lookups) over cartesian products.

The plan is engine-agnostic plain data - :mod:`repro.violations.kernels`
executes it with NumPy, and tests can interpret it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

from repro.constraints.atoms import Comparator
from repro.constraints.denial import DenialConstraint

#: Planner preference classes, best first (lower sorts earlier).
_EQUALITY_EDGE = 0
_ORDER_EDGE = 1
_WEAK_EDGE = 2       # ≠ only: barely filters, but still beats a blind product
_DISCONNECTED = 3


@dataclass(frozen=True)
class LocalFilter:
    """One vectorizable single-atom condition ``column[position] θ constant``."""

    position: int
    comparator: Comparator
    constant: int


@dataclass(frozen=True)
class AtomPlan:
    """Per-atom slice of the plan: relation scan + local masks.

    ``intra_equalities`` lists the position groups of variables repeated
    *within* the atom (each group must be pairwise equal); ``filters``
    apply each var/constant built-in at every position its variable
    occupies in this atom, mirroring the interpreted
    ``_local_predicate`` exactly.
    """

    atom_index: int
    relation_name: str
    filters: tuple[LocalFilter, ...]
    intra_equalities: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ResolvedComparison:
    """A variable/variable built-in with its variables kept by name.

    Executors resolve each side to a concrete ``(atom, position)`` slot
    through :attr:`ConstraintPlan.var_slots` at join time (the slot used
    depends on which atoms are already joined).
    """

    left: str
    comparator: Comparator
    right: str
    offset: int

    @property
    def is_equality(self) -> bool:
        return self.comparator is Comparator.EQ

    @property
    def is_order(self) -> bool:
        return self.comparator in (
            Comparator.LT,
            Comparator.GT,
            Comparator.LE,
            Comparator.GE,
        )


@dataclass(frozen=True)
class ConstraintPlan:
    """The compiled columnar form of one denial constraint."""

    constraint: DenialConstraint
    atoms: tuple[AtomPlan, ...]
    comparisons: tuple[ResolvedComparison, ...]
    #: variable -> ((atom_index, first position in that atom), ...)
    var_slots: Mapping[str, tuple[tuple[int, int], ...]]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def join_variables_with(
        self, bound_atoms: set[int], atom_index: int
    ) -> Iterator[tuple[str, tuple[int, int], int]]:
        """Variables linking ``atom_index`` to the already-bound atoms.

        Yields ``(variable, bound_slot, new_position)`` triples - the
        equality-join keys of the next left-deep join step.
        """
        for variable, slots in self.var_slots.items():
            atoms_of = [a for a, _ in slots]
            if atom_index not in atoms_of:
                continue
            bound_slot = next(
                (slot for slot in slots if slot[0] in bound_atoms), None
            )
            if bound_slot is None:
                continue
            new_position = next(p for a, p in slots if a == atom_index)
            yield variable, bound_slot, new_position

    def comparisons_ready_at(
        self, bound_atoms: set[int], atom_index: int
    ) -> tuple[ResolvedComparison, ...]:
        """Comparisons decidable once ``atom_index`` joins ``bound_atoms``.

        A comparison is *ready* when both variables become bound and it
        was not already decidable on the bound set alone (those fired at
        an earlier step).
        """
        after = bound_atoms | {atom_index}
        ready = []
        for comparison in self.comparisons:
            left_atoms = {a for a, _ in self.var_slots[comparison.left]}
            right_atoms = {a for a, _ in self.var_slots[comparison.right]}
            decidable_before = bool(left_atoms & bound_atoms) and bool(
                right_atoms & bound_atoms
            )
            decidable_after = bool(left_atoms & after) and bool(right_atoms & after)
            if decidable_after and not decidable_before:
                ready.append(comparison)
        return tuple(ready)


@lru_cache(maxsize=None)
def compile_plan(constraint: DenialConstraint) -> ConstraintPlan:
    """Compile (and memoize) the columnar plan of one constraint.

    Every linear-denial shape compiles: data-dependent limitations (e.g.
    an order comparison over a non-integer column) surface at execution
    time, not here.
    """
    var_slots: dict[str, list[tuple[int, int]]] = {}
    for atom_index, atom in enumerate(constraint.relation_atoms):
        seen_here: set[str] = set()
        for position, variable in enumerate(atom.variables):
            if variable in seen_here:
                continue
            seen_here.add(variable)
            var_slots.setdefault(variable, []).append((atom_index, position))

    atoms = []
    for atom_index, atom in enumerate(constraint.relation_atoms):
        filters = tuple(
            LocalFilter(positions[0], builtin.comparator, builtin.constant)
            for builtin in constraint.builtins
            if (positions := atom.positions_of(builtin.variable))
        )
        intra = tuple(
            positions
            for variable in dict.fromkeys(atom.variables)
            if len(positions := atom.positions_of(variable)) > 1
        )
        atoms.append(
            AtomPlan(atom_index, atom.relation_name, filters, intra)
        )

    comparisons = tuple(
        ResolvedComparison(c.left, c.comparator, c.right, c.offset)
        for c in constraint.variable_comparisons
    )
    return ConstraintPlan(
        constraint,
        tuple(atoms),
        comparisons,
        {v: tuple(slots) for v, slots in var_slots.items()},
    )


def _edge_class(
    plan: ConstraintPlan, bound_atoms: set[int], atom_index: int
) -> int:
    """How well ``atom_index`` connects to the bound set (planner classes)."""
    if any(True for _ in plan.join_variables_with(bound_atoms, atom_index)):
        return _EQUALITY_EDGE
    best = _DISCONNECTED
    for comparison in plan.comparisons_ready_at(bound_atoms, atom_index):
        if comparison.is_equality:
            return _EQUALITY_EDGE
        if comparison.is_order:
            best = min(best, _ORDER_EDGE)
        else:
            best = min(best, _WEAK_EDGE)
    return best


def order_atoms(
    plan: ConstraintPlan,
    counts: "list[int] | tuple[int, ...]",
    forced_first: int | None = None,
) -> tuple[int, ...]:
    """Selectivity-driven left-deep join order over the plan's atoms.

    ``counts[i]`` is the measured candidate cardinality of atom ``i``
    after its local filters.  The order starts from the most selective
    atom (or ``forced_first``, used by anchored detection to put the
    changed-tuple atom up front) and greedily appends the cheapest
    remaining atom, preferring equality-joinable atoms, then atoms
    reachable through an order comparison (interval lookup), then ``≠``
    neighbours, and only then a cartesian expansion.  Ties break on the
    original atom index, keeping the order deterministic.
    """
    n = plan.n_atoms
    if len(counts) != n:
        raise ValueError(f"need {n} candidate counts, got {len(counts)}")
    if forced_first is not None:
        order = [forced_first]
    else:
        order = [min(range(n), key=lambda i: (counts[i], i))]
    remaining = set(range(n)) - set(order)
    bound = set(order)
    while remaining:
        chosen = min(
            remaining,
            key=lambda i: (_edge_class(plan, bound, i), counts[i], i),
        )
        order.append(chosen)
        bound.add(chosen)
        remaining.remove(chosen)
    return tuple(order)
