"""The static constraint-program compiler.

:func:`compile_program` turns ``(schema, constraints)`` into a
:class:`~repro.plan.program.CompiledProgram` in four passes, all pure
static analysis over the existing :mod:`repro.lint` machinery:

1. **canonicalization** - rerun the lint satisfiability/subsumption
   passes; constraints with provably unsatisfiable bodies (``LINT010``,
   an *exact* verdict) are eliminated from execution with a ``LINT060``
   provenance record - a dead constraint has zero violations on every
   instance, so skipping its detection is byte-identical by
   construction.  Subsumed and duplicate constraints (``LINT020`` /
   ``LINT021``) are *kept executing*: removal preserves violation
   coverage but not byte-identity of the computed repair, and byte
   parity with the unplanned path is this compiler's hard contract.
   Their lint diagnostics stay in the plan as advisory provenance.
2. **strict classification** - per-constraint kernel/pushdown
   compilability (:func:`repro.lint.compilability.classify_constraint`)
   records the hard attributes that make compiled execution
   data-dependent; ``strict=True`` turns them into ``LINT061`` blockers.
   Which engine actually runs stays a runtime decision of the detector
   (``engine="auto"``), which needs the loaded instance.
3. **solver pre-selection** - the locality verdict and the predicted
   MWSC max-frequency bound ``f`` (:mod:`repro.lint.bounds`) are
   resolved once.
4. **fingerprinting** - the canonical JSON of ``(schema, constraints)``
   is hashed (SHA-256) so the runtime can refuse stale plans.

``strict=True`` refuses (:class:`~repro.exceptions.PlanError`) any
program with a constraint whose compiled execution cannot be
*statically guaranteed* - i.e. its kernel/pushdown classification is
conditional (``LINT050``/``LINT051``), so the interpreted fallback may
trigger at runtime.  A missing optional dependency (NumPy) is not a
strict failure: it says nothing about the constraint itself.
"""

from __future__ import annotations

from typing import Iterable

from repro.constraints.denial import DenialConstraint
from repro.exceptions import PlanError
from repro.lint.analyzer import lint_constraints
from repro.lint.bounds import builtin_attribute_overlap, constraint_frequency
from repro.lint.compilability import classify_constraint
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.satisfiability import body_is_satisfiable
from repro.model.schema import Schema
from repro.plan.program import (
    DOWNGRADED,
    ELIMINATED,
    EXECUTE,
    SKIP,
    CompiledProgram,
    EnginePlan,
    SolverPlan,
    program_fingerprint,
)


def compile_program(
    schema: Schema,
    constraints: Iterable[DenialConstraint],
    *,
    strict: bool = False,
) -> CompiledProgram:
    """Compile ``(schema, constraints)`` into a :class:`CompiledProgram`.

    Raises :class:`~repro.exceptions.PlanError` when any constraint
    fails schema validation (``LINT001`` - its structure cannot be
    planned), or, under ``strict=True``, when any executed constraint
    is only conditionally compilable (see the module docstring).
    """
    constraints = tuple(constraints)
    lint = lint_constraints(schema, constraints)

    invalid = lint.by_code("LINT001")
    if invalid:
        raise PlanError(
            f"cannot compile: {len(invalid)} constraint(s) fail schema "
            "validation (LINT001)",
            diagnostics=invalid,
        )

    satisfiable = [body_is_satisfiable(c) for c in constraints]
    # The f bound counts candidate-fix overlaps among constraints that
    # can actually produce violations; dead bodies contribute none.
    live = [c for c, ok in zip(constraints, satisfiable) if ok]
    overlap = builtin_attribute_overlap(live, schema)
    provenance: list[Diagnostic] = []
    strict_blockers: list[Diagnostic] = []
    entries: list[EnginePlan] = []
    for index, constraint in enumerate(constraints):
        # Computed per constraint object, not per label: label-keyed
        # lookups would conflate distinct constraints sharing a name.
        predicted = constraint_frequency(constraint, schema, overlap)
        if not satisfiable[index]:
            # Exact verdict: the body has no satisfying assignment over
            # the integers, so I(D, ic) = ∅ on every instance and the
            # entry contributes nothing to detection, candidates, or
            # the MWSC instance.  Eliminating it is byte-identical.
            provenance.append(
                Diagnostic(
                    code=ELIMINATED,
                    severity=Severity.INFO,
                    constraint=constraint.label,
                    message=(
                        f"{constraint.label}: eliminated by plan - body is "
                        "unsatisfiable (exact verdict), detection skipped"
                    ),
                    details={"index": index, "reason": "unsatisfiable-body"},
                    suggestion="remove the constraint from the configuration",
                )
            )
            entries.append(
                EnginePlan(
                    index=index,
                    label=constraint.label,
                    text=str(constraint),
                    action=SKIP,
                    data_dependent=(),
                    predicted_frequency=predicted,
                )
            )
            continue

        classification = classify_constraint(constraint, schema)
        if not classification.unconditional:
            strict_blockers.append(
                Diagnostic(
                    code=DOWNGRADED,
                    severity=Severity.WARNING,
                    constraint=constraint.label,
                    message=(
                        f"{constraint.label}: compiled execution is "
                        "data-dependent - hard attribute(s) "
                        + ", ".join(
                            f"{r}.{a}"
                            for r, a in classification.conditional_attributes
                        )
                        + " may force the interpreted fallback at runtime"
                    ),
                    details={
                        "index": index,
                        "conditional_attributes": [
                            list(pair)
                            for pair in classification.conditional_attributes
                        ],
                    },
                    suggestion=(
                        "mark the attribute(s) flexible or accept the "
                        "runtime fallback (non-strict compilation)"
                    ),
                )
            )
        entries.append(
            EnginePlan(
                index=index,
                label=constraint.label,
                text=str(constraint),
                action=EXECUTE,
                data_dependent=classification.conditional_attributes,
                predicted_frequency=predicted,
            )
        )

    if strict and strict_blockers:
        raise PlanError(
            f"strict compilation failed: {len(strict_blockers)} "
            "constraint(s) are not statically compilable (runtime may "
            "fall back to the interpreted engine)",
            diagnostics=strict_blockers,
        )

    locality_errors = [
        d
        for code in ("LINT030", "LINT031", "LINT032")
        for d in lint.by_code(code)
    ]
    executed = [e for e in entries if e.executed]
    solver = SolverPlan(
        predicted_max_frequency=max(
            (e.predicted_frequency for e in executed), default=0
        ),
        locality_ok=not locality_errors,
    )
    return CompiledProgram(
        fingerprint=program_fingerprint(schema, constraints),
        entries=tuple(entries),
        solver=solver,
        lint=lint,
        provenance=tuple(provenance),
    )
