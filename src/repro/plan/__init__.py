"""Static constraint-program compilation (``repro compile``).

A compiler from ``(schema, constraint set)`` to a serializable,
content-fingerprinted :class:`~repro.plan.program.CompiledProgram`: the
paper's static properties (the Section-2 locality conditions, the
max-frequency bound ``f``, constraints whose bodies can never be
satisfied) are all derivable before any data loads, so they are derived
*once* and the runtime reuses the artifact -
``repair_database(plan=...)``,
:class:`~repro.repair.incremental.IncrementalRepairer` and
:class:`~repro.repair.streaming.StreamingRepairer` skip per-call
re-analysis, and an on-disk cache (:class:`~repro.plan.cache.PlanCache`)
makes the artifact durable across processes.

Which detection engine runs stays a runtime decision of
:mod:`repro.violations.detector`: it needs the loaded instance.

Hard contract: planned and unplanned runs produce **byte-identical**
repairs (property-tested across detection × solver engines), and a plan
whose fingerprint no longer matches the live inputs is refused with
:class:`~repro.exceptions.StalePlanError` - never silently applied.
"""

from repro.exceptions import PlanError, StalePlanError
from repro.plan.cache import PlanCache, default_cache_dir
from repro.plan.compiler import compile_program
from repro.plan.explain import render_plan_text
from repro.plan.program import (
    DOWNGRADED,
    ELIMINATED,
    PLAN_FORMAT_VERSION,
    STALE,
    CompiledProgram,
    EnginePlan,
    SolverPlan,
    program_fingerprint,
)

__all__ = [
    "DOWNGRADED",
    "ELIMINATED",
    "PLAN_FORMAT_VERSION",
    "STALE",
    "CompiledProgram",
    "EnginePlan",
    "PlanCache",
    "PlanError",
    "SolverPlan",
    "StalePlanError",
    "compile_program",
    "default_cache_dir",
    "program_fingerprint",
    "render_plan_text",
]
