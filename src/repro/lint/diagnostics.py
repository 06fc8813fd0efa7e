"""Structured diagnostics of the static constraint analyzer.

This module is deliberately dependency-free (no imports from the rest of
:mod:`repro`): the constraint modules re-export diagnostics through thin
wrappers (e.g. :class:`~repro.exceptions.LocalityError` carries them), so
anything here importing :mod:`repro.constraints` would be a cycle.

Diagnostic codes are stable API:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
LINT001   error     constraint does not validate against the schema
LINT010   warning   denial body is unsatisfiable (dead constraint)
LINT011   info      redundant comparison bounds within one constraint
LINT020   warning   constraint subsumed by another (safe to drop)
LINT021   info      exact duplicate of an earlier constraint
LINT030   error     locality condition (a) fails
LINT031   error     locality condition (b) fails
LINT032   error     locality condition (c) fails
LINT040   info      predicted layer-algorithm approximation factor
LINT041   warning   approximation factor unbounded (no candidate fixes)
LINT050   warning   kernel compilability is data-dependent (may fall
                    back to the interpreted engine)
LINT051   warning   SQL pushdown compilability is data-dependent (may
                    fall back to the kernel/interpreted engines)
LINT060   info      constraint eliminated by the plan compiler (dead
                    body: its violation set is empty on every instance)
LINT061   warning   compiled (kernel/pushdown) execution of a constraint
                    is data-dependent, which ``repro compile --strict``
                    refuses
LINT062   warning   plan cache entry is stale (fingerprint mismatch);
                    the plan was recompiled instead of reused
========  ========  =====================================================

The ``LINT06x`` range is emitted by the static plan compiler
(:mod:`repro.plan`), not the linter, but shares this namespace so a
single table documents every code a report can carry.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

_GATES = ("error", "warning", "info", "never")


class Severity(enum.Enum):
    """Severity of one diagnostic; orders ``error > warning > info``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Numeric severity, higher is worse."""
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        """Parse a severity from its lowercase name."""
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown severity {name!r}; choose from "
                         f"{[m.value for m in cls]}")


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer.

    ``constraint`` is the label of the constraint the finding is about
    (empty for set-level findings such as the predicted approximation
    factor); ``details`` is a machine-readable payload whose keys depend
    on the code; ``suggestion`` is a human-readable fix hint.
    """

    code: str
    severity: Severity
    message: str
    constraint: str = ""
    details: Mapping[str, Any] = field(default_factory=dict)
    suggestion: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (round-trips via :meth:`from_dict`)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "constraint": self.constraint,
            "details": dict(self.details),
            "suggestion": self.suggestion,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Diagnostic":
        """Rebuild a diagnostic from :meth:`to_dict` output."""
        return cls(
            code=str(data["code"]),
            severity=Severity.from_name(str(data["severity"])),
            message=str(data["message"]),
            constraint=str(data.get("constraint", "")),
            details=dict(data.get("details", {})),
            suggestion=str(data.get("suggestion", "")),
        )


@dataclass(frozen=True)
class LintReport:
    """All diagnostics of one analyzer run, in pass order."""

    diagnostics: tuple[Diagnostic, ...] = ()

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    # -- views ---------------------------------------------------------------

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        """Diagnostics of error severity."""
        return self._of(Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        """Diagnostics of warning severity."""
        return self._of(Severity.WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        """Diagnostics of info severity."""
        return self._of(Severity.INFO)

    def _of(self, severity: Severity) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is severity)

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        """Diagnostics with a given ``LINTxxx`` code."""
        return tuple(d for d in self.diagnostics if d.code == code)

    def for_constraint(self, label: str) -> tuple[Diagnostic, ...]:
        """Diagnostics attached to one constraint label."""
        return tuple(d for d in self.diagnostics if d.constraint == label)

    @property
    def max_severity(self) -> Severity | None:
        """Worst severity present, ``None`` for a clean report."""
        if not self.diagnostics:
            return None
        return max((d.severity for d in self.diagnostics), key=lambda s: s.rank)

    def gated(self, fail_on: str) -> bool:
        """True when the report should fail a ``--fail-on`` gate.

        ``fail_on`` is ``"error"`` / ``"warning"`` / ``"info"`` (fail when
        any diagnostic is at least that severe) or ``"never"``.
        """
        if fail_on not in _GATES:
            raise ValueError(
                f"unknown gate {fail_on!r}; choose from {_GATES}"
            )
        if fail_on == "never":
            return False
        worst = self.max_severity
        return worst is not None and worst.rank >= Severity.from_name(fail_on).rank

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (round-trips via :meth:`from_dict`)."""
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LintReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            diagnostics=tuple(
                Diagnostic.from_dict(entry) for entry in data["diagnostics"]
            )
        )

    def to_json(self, indent: int | None = None) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "LintReport":
        """Parse :meth:`to_json` output back into a report."""
        return cls.from_dict(json.loads(text))
