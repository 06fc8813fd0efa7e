"""The :class:`DenialConstraint` model and its derived structure.

A denial constraint ``∀x̄ ¬(A₁ ∧ … ∧ A_m)`` is *violated* by a set of
tuples that can be assigned to its database atoms so that all variable
bindings are consistent and all built-ins hold.  This module provides the
constraint object, schema validation, assignment evaluation (used both by
the violation detector and by the ``S(t, t′)`` substitution test of
Definition 2.6), and the per-attribute comparison view that Definition 2.8
needs to build mono-local fixes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.constraints.atoms import BuiltinAtom, RelationAtom, VariableComparison
from repro.exceptions import ConstraintError
from repro.model.schema import Schema
from repro.model.tuples import Tuple


@dataclass(frozen=True)
class DenialConstraint:
    """A linear denial constraint.

    Parameters
    ----------
    relation_atoms:
        The database atoms, in syntactic order.
    builtins:
        Variable/constant comparisons ``x θ c``.
    variable_comparisons:
        Variable/variable built-ins ``x = y`` / ``x ≠ y``.
    name:
        Optional identifier used in reports and violation-set labels.
    """

    relation_atoms: tuple[RelationAtom, ...]
    builtins: tuple[BuiltinAtom, ...] = ()
    variable_comparisons: tuple[VariableComparison, ...] = ()
    name: str = ""
    _occurrences: dict = field(init=False, repr=False, compare=False, hash=False)

    def __init__(
        self,
        relation_atoms: Iterable[RelationAtom],
        builtins: Iterable[BuiltinAtom] = (),
        variable_comparisons: Iterable[VariableComparison] = (),
        name: str = "",
    ) -> None:
        object.__setattr__(self, "relation_atoms", tuple(relation_atoms))
        object.__setattr__(self, "builtins", tuple(builtins))
        object.__setattr__(
            self, "variable_comparisons", tuple(variable_comparisons)
        )
        object.__setattr__(self, "name", name)
        if not self.relation_atoms:
            raise ConstraintError("a denial constraint needs at least one database atom")
        occurrences: dict[str, list[tuple[int, int]]] = {}
        for atom_index, atom in enumerate(self.relation_atoms):
            for position, variable in enumerate(atom.variables):
                occurrences.setdefault(variable, []).append((atom_index, position))
        for builtin in self.builtins:
            if builtin.variable not in occurrences:
                raise ConstraintError(
                    f"built-in {builtin} uses variable {builtin.variable!r} "
                    "that appears in no database atom"
                )
        for comparison in self.variable_comparisons:
            for variable in (comparison.left, comparison.right):
                if variable not in occurrences:
                    raise ConstraintError(
                        f"built-in {comparison} uses variable {variable!r} "
                        "that appears in no database atom"
                    )
        object.__setattr__(self, "_occurrences", occurrences)

    # -- structure ----------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        """All variables, in first-occurrence order."""
        return tuple(self._occurrences)

    def occurrences(self, variable: str) -> tuple[tuple[int, int], ...]:
        """``(atom_index, position)`` pairs where ``variable`` occurs."""
        return tuple(self._occurrences.get(variable, ()))

    @property
    def join_variables(self) -> frozenset[str]:
        """Variables occurring in two or more database-atom positions.

        These express equality joins; locality condition (a) requires the
        attributes they bind to be hard.
        """
        return frozenset(
            v for v, occ in self._occurrences.items() if len(occ) > 1
        )

    @property
    def builtin_variables(self) -> frozenset[str]:
        """Variables mentioned by any built-in atom."""
        names = {b.variable for b in self.builtins}
        for comparison in self.variable_comparisons:
            names.add(comparison.left)
            names.add(comparison.right)
        return frozenset(names)

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Relation names of the database atoms (with repetitions)."""
        return tuple(a.relation_name for a in self.relation_atoms)

    # -- schema-aware views --------------------------------------------------

    def validate(self, schema: Schema) -> None:
        """Check the constraint is well-formed against ``schema``.

        Verifies relations exist, atom arities match, and every variable in
        a variable/constant built-in binds at least one position.
        """
        for atom in self.relation_atoms:
            relation = schema.relation(atom.relation_name)
            if len(atom.variables) != relation.arity:
                raise ConstraintError(
                    f"{self.label}: atom {atom} has {len(atom.variables)} "
                    f"variables but {relation.name!r} has arity {relation.arity}"
                )

    def bound_attributes(self, variable: str, schema: Schema) -> tuple[tuple[str, str], ...]:
        """The ``(relation, attribute)`` pairs a variable binds to."""
        pairs = []
        for atom_index, position in self.occurrences(variable):
            atom = self.relation_atoms[atom_index]
            relation = schema.relation(atom.relation_name)
            pairs.append((relation.name, relation.attributes[position].name))
        return tuple(pairs)

    def attributes_in_builtins(self, schema: Schema) -> frozenset[tuple[str, str]]:
        """``A_B(ic)``: attributes occurring in built-in atoms (Section 2)."""
        pairs: set[tuple[str, str]] = set()
        for variable in self.builtin_variables:
            pairs.update(self.bound_attributes(variable, schema))
        return frozenset(pairs)

    def comparisons_on(
        self, schema: Schema, relation_name: str, attribute_name: str
    ) -> tuple[BuiltinAtom, ...]:
        """Normalized var/constant built-ins over one attribute.

        Returns the built-ins (with ``≤``/``≥`` rewritten to strict form,
        footnote 2) whose variable binds ``relation_name.attribute_name``.
        This is the comparison list Definition 2.8 reads to compute
        ``MLF(t, ic, A)``.
        """
        result: list[BuiltinAtom] = []
        for builtin in self.builtins:
            bound = self.bound_attributes(builtin.variable, schema)
            if (relation_name, attribute_name) in bound:
                result.extend(builtin.normalized())
        return tuple(result)

    # -- evaluation ----------------------------------------------------------

    def evaluate_assignment(self, assignment: Sequence[Tuple]) -> bool:
        """Check one tuple-per-atom assignment satisfies the denial body.

        ``assignment[i]`` is the tuple assigned to ``relation_atoms[i]``.
        Returns True when variable bindings are consistent and every
        built-in holds - i.e. the assignment *witnesses a violation*.
        """
        if len(assignment) != len(self.relation_atoms):
            raise ConstraintError(
                f"{self.label}: assignment has {len(assignment)} tuples for "
                f"{len(self.relation_atoms)} atoms"
            )
        bindings: dict[str, object] = {}
        for atom, tup in zip(self.relation_atoms, assignment):
            if tup.relation.name != atom.relation_name:
                return False
            for position, variable in enumerate(atom.variables):
                value = tup.values[position]
                if variable in bindings:
                    if bindings[variable] != value:
                        return False
                else:
                    bindings[variable] = value
        for builtin in self.builtins:
            if not builtin.evaluate(bindings[builtin.variable]):
                return False
        for comparison in self.variable_comparisons:
            if not comparison.evaluate(
                bindings[comparison.left], bindings[comparison.right]
            ):
                return False
        return True

    def violated_by(self, tuples: Iterable[Tuple]) -> bool:
        """True when some assignment over ``tuples`` satisfies the body.

        This is the test ``I ⊭ ic`` on a small tuple set: used for the
        minimality part of Definition 2.4 and for the substitution check in
        ``S(t, t′)``.  Exponential in the number of atoms, which is small
        (denials in practice have 1-3 atoms).
        """
        pool = list(tuples)
        per_atom: list[list[Tuple]] = []
        for atom in self.relation_atoms:
            candidates = [t for t in pool if t.relation.name == atom.relation_name]
            if not candidates:
                return False
            per_atom.append(candidates)
        for assignment in itertools.product(*per_atom):
            if self.evaluate_assignment(assignment):
                return True
        return False

    # -- display --------------------------------------------------------------

    @property
    def label(self) -> str:
        """The constraint name, or a generated description."""
        return self.name or f"ic[{self}]"

    def __str__(self) -> str:
        parts: list[str] = [str(a) for a in self.relation_atoms]
        parts.extend(str(b) for b in self.builtins)
        parts.extend(str(c) for c in self.variable_comparisons)
        return "NOT(" + ", ".join(parts) + ")"

    def __hash__(self) -> int:
        return hash(
            (
                self.relation_atoms,
                self.builtins,
                self.variable_comparisons,
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenialConstraint):
            return NotImplemented
        return (
            self.relation_atoms == other.relation_atoms
            and self.builtins == other.builtins
            and self.variable_comparisons == other.variable_comparisons
        )

    def __iter__(self) -> Iterator[RelationAtom]:
        return iter(self.relation_atoms)
