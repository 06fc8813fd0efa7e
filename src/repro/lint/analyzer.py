"""The analyzer: runs every lint pass over ``(schema, constraints)``.

Pure static analysis - no :class:`~repro.model.instance.DatabaseInstance`
is ever constructed or consulted.  Pass order (and therefore diagnostic
order) is :data:`PASSES`:

1. ``validity`` - constraints failing schema validation get ``LINT001``
   and are excluded from the later passes (their structure cannot be
   trusted);
2. ``satisfiability`` - dead bodies (``LINT010``) and mergeable
   redundant bounds (``LINT011``);
3. ``redundancy`` - subsumed constraints (``LINT020``) and exact
   duplicates (``LINT021``), among the live (non-dead) constraints;
4. ``locality`` - all failing Section-2 conditions
   (``LINT030``-``LINT032``);
5. ``bounds`` - the predicted layer-algorithm approximation factor
   (``LINT040``) and constraints without candidate fixes (``LINT041``);
6. ``compilability`` - constraints whose kernel execution is
   data-dependent (``LINT050``);
7. ``pushdownability`` - constraints whose SQL pushdown execution is
   data-dependent (``LINT051``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.constraints.atoms import BuiltinAtom, Comparator
from repro.constraints.denial import DenialConstraint
from repro.exceptions import ConstraintError, SchemaError
from repro.lint.bounds import predicted_max_frequency
from repro.lint.compilability import (
    KERNEL_CONDITIONAL,
    PUSHDOWN_CONDITIONAL,
    classify_constraint,
    classify_pushdown,
)
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.locality import locality_diagnostics
from repro.lint.satisfiability import body_is_satisfiable
from repro.lint.subsumption import subsumption_analysis
from repro.model.schema import Schema

PASSES = (
    "validity",
    "satisfiability",
    "redundancy",
    "locality",
    "bounds",
    "compilability",
    "pushdownability",
)

#: Codes marking a constraint safe to remove without changing any
#: violation set (dead bodies, subsumed constraints, duplicates).
REMOVABLE_CODES = ("LINT010", "LINT020", "LINT021")


def _redundant_bound_diagnostics(
    constraint: DenialConstraint,
) -> tuple[Diagnostic, ...]:
    """``LINT011`` for variables with several same-direction bounds."""
    normalized: list[BuiltinAtom] = []
    for builtin in constraint.builtins:
        normalized.extend(builtin.normalized())
    counts: dict[tuple[str, Comparator], int] = {}
    for builtin in normalized:
        if builtin.comparator in (Comparator.LT, Comparator.GT):
            key = (builtin.variable, builtin.comparator)
            counts[key] = counts.get(key, 0) + 1
    diagnostics: list[Diagnostic] = []
    for (variable, comparator), count in sorted(
        counts.items(), key=lambda item: (item[0][0], item[0][1].value)
    ):
        if count <= 1:
            continue
        diagnostics.append(
            Diagnostic(
                code="LINT011",
                severity=Severity.INFO,
                constraint=constraint.label,
                message=(
                    f"{constraint.label}: {count} '{comparator.value}' "
                    f"bounds on variable {variable!r} are redundant - the "
                    "conjunction is governed by the tightest one"
                ),
                details={
                    "variable": variable,
                    "comparator": comparator.value,
                    "count": count,
                },
                suggestion=(
                    "keep only the tightest bound (simplify_constraints "
                    "does this automatically)"
                ),
            )
        )
    return tuple(diagnostics)


def lint_constraints(
    schema: Schema,
    constraints: Iterable[DenialConstraint],
    *,
    passes: Sequence[str] | None = None,
) -> LintReport:
    """Run the static analyzer; returns the full diagnostic report.

    ``passes`` restricts which passes run (default: all of
    :data:`PASSES`); ``validity`` always runs because the other passes
    need schema-consistent constraints.
    """
    selected = tuple(PASSES if passes is None else passes)
    for name in selected:
        if name not in PASSES:
            raise ValueError(f"unknown lint pass {name!r}; choose from {PASSES}")
    constraints = tuple(constraints)
    diagnostics: list[Diagnostic] = []

    # -- validity ------------------------------------------------------------
    valid: list[DenialConstraint] = []
    for constraint in constraints:
        try:
            constraint.validate(schema)
        except (ConstraintError, SchemaError) as error:
            diagnostics.append(
                Diagnostic(
                    code="LINT001",
                    severity=Severity.ERROR,
                    constraint=constraint.label,
                    message=str(error),
                    details={"constraint_text": str(constraint)},
                    suggestion=(
                        "fix the constraint's atoms to match the schema's "
                        "relations and arities"
                    ),
                )
            )
            continue
        valid.append(constraint)

    # -- satisfiability ------------------------------------------------------
    dead: set[int] = set()
    if "satisfiability" in selected:
        for index, constraint in enumerate(valid):
            if not body_is_satisfiable(constraint):
                dead.add(index)
                diagnostics.append(
                    Diagnostic(
                        code="LINT010",
                        severity=Severity.WARNING,
                        constraint=constraint.label,
                        message=(
                            f"{constraint.label}: body is unsatisfiable over "
                            "the integers - the constraint can never be "
                            "violated (dead constraint)"
                        ),
                        details={"constraint_text": str(constraint)},
                        suggestion=(
                            "remove the constraint, or fix the contradictory "
                            "comparisons"
                        ),
                    )
                )
                continue
            diagnostics.extend(_redundant_bound_diagnostics(constraint))

    # -- redundancy ----------------------------------------------------------
    if "redundancy" in selected:
        live_indices = [i for i in range(len(valid)) if i not in dead]
        live = [valid[i] for i in live_indices]
        result = subsumption_analysis(live)
        for local_index, kept_index in result.duplicates:
            constraint = live[local_index]
            kept = live[kept_index]
            diagnostics.append(
                Diagnostic(
                    code="LINT021",
                    severity=Severity.INFO,
                    constraint=constraint.label,
                    message=(
                        f"{constraint.label}: exact duplicate of "
                        f"{kept.label} - only the first copy matters"
                    ),
                    details={"duplicate_of": kept.label},
                    suggestion="remove the duplicate constraint",
                )
            )
        for local_index, subsumer_index in result.subsumed:
            constraint = live[local_index]
            subsumer = live[subsumer_index]
            diagnostics.append(
                Diagnostic(
                    code="LINT020",
                    severity=Severity.WARNING,
                    constraint=constraint.label,
                    message=(
                        f"{constraint.label}: subsumed by {subsumer.label} - "
                        "every violation of it contains a violation of "
                        f"{subsumer.label}, so it never changes a repair"
                    ),
                    details={"subsumed_by": subsumer.label},
                    suggestion=(
                        "remove the subsumed constraint to shrink the "
                        "set-cover instance"
                    ),
                )
            )

    # -- locality ------------------------------------------------------------
    if "locality" in selected:
        diagnostics.extend(locality_diagnostics(valid, schema))

    # -- bounds --------------------------------------------------------------
    if "bounds" in selected and valid:
        predicted = predicted_max_frequency(valid, schema)
        positive = {
            label: bound for label, bound in predicted.items() if bound > 0
        }
        for constraint in valid:
            if predicted.get(constraint.label, 0) == 0:
                diagnostics.append(
                    Diagnostic(
                        code="LINT041",
                        severity=Severity.WARNING,
                        constraint=constraint.label,
                        message=(
                            f"{constraint.label}: approximation factor is "
                            "unbounded - no flexible attribute yields "
                            "candidate fixes, so its violations make the "
                            "set-cover instance uncoverable"
                        ),
                        details={"predicted_frequency": 0},
                        suggestion=(
                            "this mirrors locality condition (b): add a "
                            "comparison over a flexible attribute or use "
                            "tuple-deletion repairs"
                        ),
                    )
                )
        if positive:
            factor = max(positive.values())
            diagnostics.append(
                Diagnostic(
                    code="LINT040",
                    severity=Severity.INFO,
                    message=(
                        "layer algorithm predicted approximation factor: "
                        f"f <= {factor} (static bound on candidate-fix "
                        "frequency from constraint/attribute overlap)"
                    ),
                    details={
                        "predicted_frequency": factor,
                        "per_constraint": dict(predicted),
                    },
                    suggestion="",
                )
            )

    # -- compilability -------------------------------------------------------
    if "compilability" in selected:
        for constraint in valid:
            classification = classify_constraint(constraint, schema)
            if classification.unconditional:
                continue
            attributes = ", ".join(
                f"{relation}.{attribute}"
                for relation, attribute in classification.conditional_attributes
            )
            diagnostics.append(
                Diagnostic(
                    code=KERNEL_CONDITIONAL,
                    severity=Severity.WARNING,
                    constraint=constraint.label,
                    message=(
                        f"{constraint.label}: kernel compilability is "
                        f"data-dependent - order/offset comparisons need "
                        f"integer values in hard attribute(s) {attributes}; "
                        "engine=auto falls back to the interpreted detector "
                        "when they hold non-integers"
                    ),
                    details={
                        "attributes": [
                            list(pair)
                            for pair in classification.conditional_attributes
                        ],
                        "required_slots": [
                            list(slot)
                            for slot in classification.required_slots
                        ],
                    },
                    suggestion=(
                        "ensure the listed columns are integer-valued to "
                        "keep the constraint on the kernel"
                    ),
                )
            )

    # -- pushdownability -----------------------------------------------------
    if "pushdownability" in selected:
        for constraint in valid:
            classification = classify_pushdown(constraint, schema)
            if classification.unconditional:
                continue
            attributes = ", ".join(
                f"{relation}.{attribute}"
                for relation, attribute in classification.conditional_attributes
            )
            diagnostics.append(
                Diagnostic(
                    code=PUSHDOWN_CONDITIONAL,
                    severity=Severity.WARNING,
                    constraint=constraint.label,
                    message=(
                        f"{constraint.label}: SQL pushdown executability is "
                        f"data-dependent - order/offset comparisons over "
                        f"hard attribute(s) {attributes} follow SQL type "
                        "ordering/coercion instead of Python semantics when "
                        "they hold non-integers; the backend refuses such "
                        "data and engine=auto falls back in-memory"
                    ),
                    details={
                        "attributes": [
                            list(pair)
                            for pair in classification.conditional_attributes
                        ],
                        "required_slots": [
                            list(slot)
                            for slot in classification.required_slots
                        ],
                    },
                    suggestion=(
                        "ensure the listed columns are integer-valued, or "
                        "request an in-memory engine to avoid the pushdown "
                        "refusal"
                    ),
                )
            )

    return LintReport(diagnostics=tuple(diagnostics))


def removable_constraints(report: LintReport) -> tuple[str, ...]:
    """Labels the analyzer marked safe to drop (dead/subsumed/duplicate).

    Removing exactly these constraints preserves every violation set's
    coverage: dead constraints have no violations, and each subsumed or
    duplicated constraint's violations contain violations of a kept one
    (tested property).
    """
    labels: list[str] = []
    for diagnostic in report:
        if diagnostic.code in REMOVABLE_CODES and diagnostic.constraint:
            if diagnostic.constraint not in labels:
                labels.append(diagnostic.constraint)
    return tuple(labels)
