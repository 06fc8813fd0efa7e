"""The :class:`CompiledProgram` artifact and its content fingerprint.

A compiled program is the *static* half of a repair run: everything
that follows from ``(schema, constraint set)`` alone, frozen into a
serializable artifact so that per-call re-analysis (lint passes,
locality checking, dead-constraint elimination, the frequency bound
``f``) happens once per configuration instead of once per
``repair_database`` call.  Which detection engine runs is a runtime
fact - it depends on the loaded instance - and is not part of a plan.

The artifact is keyed by a **content fingerprint**: a SHA-256 digest
over the canonical JSON form of the schema and the constraint list (in
order - violation output order follows constraint order, so order is
semantic).  The on-disk cache (:mod:`repro.plan.cache`) stores one
artifact per fingerprint.

A plan handed to the runtime is validated with :meth:`CompiledProgram.
require_match` - a fingerprint mismatch raises
:class:`~repro.exceptions.StalePlanError` (code ``LINT062``), never
silently applies a stale plan.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.constraints.denial import DenialConstraint
from repro.exceptions import PlanError, StalePlanError
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.model.schema import Schema

#: Serialization format version; bumped on incompatible artifact changes.
PLAN_FORMAT_VERSION = 2

#: Plan provenance codes (continuing the stable ``LINTxxx`` space).
ELIMINATED = "LINT060"  # constraint eliminated by plan (dead body)
DOWNGRADED = "LINT061"  # compiled execution is data-dependent (--strict)
STALE = "LINT062"       # plan fingerprint / cache entry is stale

#: Entry actions.
EXECUTE = "execute"
SKIP = "skip"


def schema_document(schema: Schema) -> dict[str, Any]:
    """Canonical JSON form of a schema (order-preserving, role-complete)."""
    return {
        "relations": [
            {
                "name": relation.name,
                "key": list(relation.key),
                "attributes": [
                    {
                        "name": attribute.name,
                        "role": attribute.role.value,
                        "weight": attribute.weight,
                    }
                    for attribute in relation.attributes
                ],
            }
            for relation in schema
        ]
    }


def constraint_documents(
    constraints: Sequence[DenialConstraint],
) -> list[dict[str, str]]:
    """Canonical JSON form of a constraint list (order is semantic)."""
    return [
        {"name": constraint.name, "text": str(constraint)}
        for constraint in constraints
    ]


def fingerprint_document(
    schema: Schema, constraints: Sequence[DenialConstraint]
) -> dict[str, Any]:
    """Everything the fingerprint covers, as one JSON document."""
    return {
        "version": PLAN_FORMAT_VERSION,
        "schema": schema_document(schema),
        "constraints": constraint_documents(constraints),
    }


def canonical_json(document: Mapping[str, Any]) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def program_fingerprint(
    schema: Schema, constraints: Iterable[DenialConstraint]
) -> str:
    """Stable SHA-256 hex digest of ``(schema, constraints)``."""
    document = fingerprint_document(schema, tuple(constraints))
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class EnginePlan:
    """The static verdict for one constraint.

    ``action`` is ``"execute"`` or ``"skip"`` (a dead body, ``LINT060``).
    ``data_dependent`` lists the ``(relation, attribute)`` pairs that
    make kernel/pushdown execution data-dependent (``LINT050`` /
    ``LINT051``): the runtime may fall back to the interpreted engine
    for this constraint.  ``predicted_frequency`` is the constraint's
    share of the static ``f`` bound.
    """

    index: int
    label: str
    text: str
    action: str
    data_dependent: tuple[tuple[str, str], ...]
    predicted_frequency: int

    @property
    def executed(self) -> bool:
        """True when the runtime runs this constraint's detection."""
        return self.action == EXECUTE

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "text": self.text,
            "action": self.action,
            "data_dependent": [list(pair) for pair in self.data_dependent],
            "predicted_frequency": self.predicted_frequency,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EnginePlan":
        return cls(
            index=int(data["index"]),
            label=str(data["label"]),
            text=str(data["text"]),
            action=str(data["action"]),
            data_dependent=tuple(
                (str(relation), str(attribute))
                for relation, attribute in data["data_dependent"]
            ),
            predicted_frequency=int(data["predicted_frequency"]),
        )


@dataclass(frozen=True)
class SolverPlan:
    """Static solver pre-selection.

    ``predicted_max_frequency`` is the static bound on the MWSC element
    frequency ``f`` (the layer algorithm's approximation factor);
    ``locality_ok`` whether the Section-2 locality conditions all hold,
    letting the runtime skip ``check_local_set`` re-analysis.
    """

    predicted_max_frequency: int
    locality_ok: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "predicted_max_frequency": self.predicted_max_frequency,
            "locality_ok": self.locality_ok,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverPlan":
        return cls(
            predicted_max_frequency=int(data["predicted_max_frequency"]),
            locality_ok=bool(data["locality_ok"]),
        )


def stale_plan_error(
    expected: str, actual: str, *, context: str = ""
) -> StalePlanError:
    """Build the structured refusal for a fingerprint mismatch."""
    suffix = f" ({context})" if context else ""
    diagnostic = Diagnostic(
        code=STALE,
        severity=Severity.ERROR,
        constraint=None,
        message=(
            "compiled plan is stale: fingerprint "
            f"{expected[:12]}… does not match the live schema/constraints "
            f"fingerprint {actual[:12]}…{suffix}"
        ),
        details={"expected": expected, "actual": actual},
        suggestion="recompile the plan with `repro compile`",
    )
    return StalePlanError(
        diagnostic.message,
        expected=expected,
        actual=actual,
        diagnostics=(diagnostic,),
    )


@dataclass(frozen=True)
class CompiledProgram:
    """The serializable result of static constraint-program compilation.

    ``entries`` has one :class:`EnginePlan` per input constraint, in
    input order (dead constraints are present with ``action="skip"`` so
    indices line up); ``solver`` the static solver pre-selection;
    ``lint`` the full lint report the compiler ran; ``provenance`` the
    plan-added diagnostics (``LINT060``).
    """

    fingerprint: str
    entries: tuple[EnginePlan, ...]
    solver: SolverPlan
    lint: LintReport = field(compare=False)
    provenance: tuple[Diagnostic, ...] = ()
    version: int = PLAN_FORMAT_VERSION

    # -- structure -----------------------------------------------------------

    @property
    def executed_entries(self) -> tuple[EnginePlan, ...]:
        """Entries the runtime actually detects (dead ones skipped)."""
        return tuple(e for e in self.entries if e.executed)

    @property
    def skipped_entries(self) -> tuple[EnginePlan, ...]:
        """Entries statically eliminated from execution."""
        return tuple(e for e in self.entries if not e.executed)

    def entry(self, index: int) -> EnginePlan:
        """The entry for the ``index``-th input constraint."""
        return self.entries[index]

    # -- validation ----------------------------------------------------------

    def require_match(
        self, schema: Schema, constraints: Sequence[DenialConstraint]
    ) -> None:
        """Refuse to apply this plan to anything but its own inputs.

        Raises :class:`~repro.exceptions.StalePlanError` (``LINT062``)
        when the live ``(schema, constraints)`` fingerprint differs from
        the one this program was compiled from, and
        :class:`~repro.exceptions.PlanError` on a structural mismatch
        (entry count vs. constraint count - a corrupted artifact).
        """
        actual = program_fingerprint(schema, tuple(constraints))
        if actual != self.fingerprint:
            raise stale_plan_error(self.fingerprint, actual)
        if len(self.entries) != len(tuple(constraints)):
            raise PlanError(
                f"corrupt plan: {len(self.entries)} entries for "
                f"{len(tuple(constraints))} constraints despite matching "
                "fingerprint"
            )

    def executed_constraints(
        self, constraints: Sequence[DenialConstraint]
    ) -> tuple[DenialConstraint, ...]:
        """The caller's constraint objects this plan executes, in order."""
        return tuple(constraints[e.index] for e in self.executed_entries)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "entries": [entry.to_dict() for entry in self.entries],
            "solver": self.solver.to_dict(),
            "lint": self.lint.to_dict(),
            "provenance": [d.to_dict() for d in self.provenance],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CompiledProgram":
        version = int(data.get("version", -1))
        if version != PLAN_FORMAT_VERSION:
            raise PlanError(
                f"unsupported plan format version {version} "
                f"(this build reads version {PLAN_FORMAT_VERSION})"
            )
        return cls(
            fingerprint=str(data["fingerprint"]),
            entries=tuple(
                EnginePlan.from_dict(entry) for entry in data["entries"]
            ),
            solver=SolverPlan.from_dict(data["solver"]),
            lint=LintReport.from_dict(data["lint"]),
            provenance=tuple(
                Diagnostic.from_dict(d) for d in data.get("provenance", ())
            ),
            version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "CompiledProgram":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise PlanError(f"unreadable plan artifact: {error}") from error
        if not isinstance(data, dict):
            raise PlanError("unreadable plan artifact: not a JSON object")
        return cls.from_dict(data)
