"""Explanations: why is a tuple inconsistent, and what are its options?

Data-cleaning users need to *inspect* before they trust a repair.  Given a
tuple, :func:`explain_tuple` reports the violation sets it participates in
(with the co-violating tuples and the constraint texts) and the candidate
mono-local fixes with their weights and coverage - the exact information
the set-cover solver weighs.  :func:`explain_repair` post-hoc annotates
every change of a computed repair with the violations it was covering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.constraints.denial import DenialConstraint
from repro.fixes.mlf import FixCandidate
from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple, TupleRef
from repro.repair.builder import RepairProblem, build_repair_problem
from repro.repair.result import CellChange, RepairResult
from repro.violations.detector import ViolationSet


@dataclass(frozen=True)
class TupleExplanation:
    """Everything the repair machinery knows about one tuple."""

    ref: TupleRef
    tuple: Tuple
    violations: tuple[ViolationSet, ...]
    candidates: tuple[FixCandidate, ...]

    @property
    def degree(self) -> int:
        """``Deg(t, IC)`` of the tuple."""
        return len(self.violations)

    def summary(self) -> str:
        """Human-readable report."""
        lines = [f"tuple {self.tuple!r}  (degree {self.degree})"]
        for violation in self.violations:
            partners = [
                repr(t) for t in violation.sorted_tuples() if t != self.tuple
            ]
            with_text = f" with {', '.join(partners)}" if partners else ""
            lines.append(
                f"  violates {violation.constraint.label}: "
                f"{violation.constraint}{with_text}"
            )
        if self.candidates:
            lines.append("  candidate fixes:")
            for candidate in sorted(self.candidates, key=lambda c: c.weight):
                lines.append(f"    - {candidate.describe()}")
        elif self.violations:
            lines.append("  (no single-attribute fix on this tuple)")
        return "\n".join(lines)


def explain_tuple(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    relation_name: str,
    key: tuple,
    problem: RepairProblem | None = None,
) -> TupleExplanation:
    """Explain one tuple's inconsistency and repair options.

    Pass a prebuilt ``problem`` to amortize the reduction when explaining
    many tuples.
    """
    if problem is None:
        problem = build_repair_problem(instance, tuple(constraints))
    tup = instance.get(relation_name, key)
    violations = tuple(v for v in problem.violations if tup in v)
    candidates = tuple(
        weighted_set.payload
        for weighted_set in problem.setcover.sets
        if weighted_set.payload.ref == tup.ref
    )
    return TupleExplanation(
        ref=tup.ref, tuple=tup, violations=violations, candidates=candidates
    )


@dataclass(frozen=True)
class ChangeExplanation:
    """One applied change, annotated with the violations it covered."""

    change: CellChange
    covered: tuple[ViolationSet, ...]

    def summary(self) -> str:
        labels = ", ".join(
            f"{v.constraint.label}{{{', '.join(repr(t) for t in v.sorted_tuples())}}}"
            for v in self.covered
        )
        return f"{self.change}  covering  {labels or '(subsumed duplicate)'}"


def explain_repair(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    result: RepairResult,
) -> tuple[ChangeExplanation, ...]:
    """Annotate a repair's changes with the violations each one solved.

    A change is credited with every original violation set that the
    corresponding single-attribute update solves on its own (changes
    merged from several mono-local fixes each keep their own coverage).
    """
    constraints = tuple(constraints)
    problem = build_repair_problem(instance, constraints)
    explanations: list[ChangeExplanation] = []
    for change in result.changes:
        covered: list[ViolationSet] = []
        old = instance.resolve(change.ref)
        new = old.replace({change.attribute: change.new_value})
        for violation in problem.violations:
            if old not in violation:
                continue
            substituted = [t for t in violation.tuples if t != old]
            substituted.append(new)
            if not violation.constraint.violated_by(substituted):
                covered.append(violation)
        explanations.append(
            ChangeExplanation(change=change, covered=tuple(covered))
        )
    return tuple(explanations)
