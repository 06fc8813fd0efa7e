"""The end-to-end repair engine (Algorithm 6).

``repair_database`` chains the full pipeline: violation detection →
MWSCP construction → approximate set cover → repair construction →
(optional) verification that the result satisfies the constraints.

With ``trace=True`` the run is recorded by the :mod:`repro.obs` layer:
one ``repair`` root span with a stage span per Figure-1 box (``detect``,
``reduce``, ``solve``, ``apply``, ``verify``), per-constraint detection
spans and per-solver spans nested inside.
``RepairResult.elapsed_seconds`` then becomes a thin view over the stage
spans (same keys as the untraced dict, so no caller changes), and
``RepairResult.trace`` carries the full :class:`~repro.obs.spans.Trace`.
Tracing never alters the computation: traced and untraced runs produce
byte-identical repairs.
"""

from __future__ import annotations

import logging
import time
from contextlib import ExitStack
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.plan.program import CompiledProgram

from repro.constraints.denial import DenialConstraint
from repro.exceptions import RepairError
from repro.fixes.distance import CITY_DISTANCE, DistanceMetric, get_metric
from repro.model.instance import DatabaseInstance
from repro.obs import Tracer, as_tracer, normalize_solver_stats
from repro.repair.apply import apply_cover
from repro.repair.builder import build_repair_problem
from repro.repair.result import RepairResult
from repro.setcover.solvers import DEFAULT_SOLVER, get_solver, resolve_solver_engine
from repro.violations.detector import ViolationSet, find_all_violations, is_consistent
from repro.violations.kernels import resolve_engine

logger = logging.getLogger(__name__)

#: Span name → ``elapsed_seconds`` key (the ``reduce`` stage keeps its
#: historical ``build`` key so serialized results stay comparable).
_STAGE_KEYS = {
    "detect": "detect",
    "reduce": "build",
    "solve": "solve",
    "apply": "apply",
    "verify": "verify",
}


def _stage_view(root_span) -> dict[str, float]:
    """``elapsed_seconds`` derived from the stage spans of a traced run."""
    return {
        _STAGE_KEYS[child.name]: child.duration or 0.0
        for child in root_span.children
        if child.category == "stage" and child.name in _STAGE_KEYS
    }


def repair_database(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    algorithm: str = DEFAULT_SOLVER,
    metric: str | DistanceMetric = CITY_DISTANCE,
    verify: bool = True,
    check_locality: bool = True,
    violations: Sequence[ViolationSet] | None = None,
    simplify: bool = False,
    solver_engine: str = "auto",
    preflight: bool = False,
    trace: "bool | Tracer" = False,
    plan: "CompiledProgram | None" = None,
) -> RepairResult:
    """Compute an (approximate) attribute-update repair of ``instance``.

    Parameters
    ----------
    instance:
        The inconsistent database ``D``.  Never mutated.
    constraints:
        A local set of linear denial constraints ``IC``.
    algorithm:
        Set-cover solver name: ``greedy``, ``modified-greedy`` (default),
        ``layer``, ``modified-layer``, or ``exact`` (small inputs only).
    metric:
        Distance metric for Δ (``l1``, ``l2``, or ``l0``).
    verify:
        Re-check ``D(C) |= IC`` after repairing; a failure raises
        :class:`RepairError` (it would indicate non-local input slipping
        through, or a solver bug).
    check_locality:
        Validate locality up front (disabled by the cardinality
        transformation, whose output is local by construction).
    violations:
        Optionally reuse a precomputed ``I(D, IC)``.  Otherwise detection
        and verification run the detector's ``auto`` engine (SQL pushdown
        for a backend-resident instance, else the NumPy kernel when
        importable, else the interpreted enumeration, falling back per
        constraint); ``solver_stats["detection_engine"]`` names it.
    simplify:
        Preprocess the constraint set first (merge redundant bounds, drop
        unsatisfiable and duplicate denials) - semantics-preserving, see
        :mod:`repro.constraints.simplify`.  Incompatible with a
        precomputed ``violations`` list (whose constraint objects would
        not match the simplified set).
    solver_engine:
        Set-cover solver engine: ``auto`` (default; the flat CSR/bitset
        core of :mod:`repro.setcover.flat`), ``flat``, or ``object``
        (the per-``WeightedSet`` reference solvers).  Both engines
        return byte-identical covers, hence identical repairs.
    preflight:
        Run the static constraint analyzer (:mod:`repro.lint`) first and
        raise :class:`~repro.exceptions.LintError` - with the full
        report attached - when it finds error-severity diagnostics.
    trace:
        ``True`` records the run with a fresh
        :class:`~repro.obs.Tracer` (returned via ``RepairResult.trace``);
        an existing tracer nests this run into a larger trace (the
        cardinality engine and the incremental repairer do this).
        Tracing observes only - the repair is byte-identical either way.
    plan:
        A precompiled :class:`~repro.plan.program.CompiledProgram` for
        exactly this ``(schema, constraints)`` pair.  The static
        analysis the plan already holds is skipped per call: preflight
        reads the stored lint report, locality re-checking is skipped
        when the plan proved it, statically dead constraints are
        eliminated from detection and verification (provably
        byte-identical - their violation sets are empty on every
        instance).  Detection picks its engine exactly as without a
        plan.  A plan whose fingerprint does not match raises
        :class:`~repro.exceptions.StalePlanError`; ``simplify=True`` is
        incompatible (it would change the constraint set out from under
        the fingerprint).  Planned and unplanned runs produce
        byte-identical repairs.

    Returns
    -------
    RepairResult
        The repaired instance plus distance, change log and solver stats.
        ``elapsed_seconds`` splits the wall clock per stage (``detect``,
        ``build``, ``solve``, ``apply``, ``verify``); ``solver_stats``
        follows the schema of :mod:`repro.obs.stats`; ``trace`` carries
        the span tree of a traced run.
    """
    constraints = tuple(constraints)
    if plan is not None:
        if simplify:
            raise RepairError(
                "simplify=True cannot be combined with a compiled plan - "
                "the plan's fingerprint covers the unsimplified constraint "
                "set; compile the simplified set instead"
            )
        plan.require_match(instance.schema, constraints)
    if preflight:
        from repro.exceptions import LintError
        from repro.lint.analyzer import lint_constraints

        # The plan already ran the analyzer at compile time over the
        # fingerprint-matched constraint set; reuse its report.
        report = (
            plan.lint
            if plan is not None
            else lint_constraints(instance.schema, constraints)
        )
        if report.gated("error"):
            raise LintError(
                f"constraint lint preflight failed: "
                f"{len(report.errors)} error(s)",
                report=report,
            )
    if plan is not None and check_locality and plan.solver.locality_ok:
        # Locality was proven statically at compile time.
        check_locality = False
    if simplify:
        if violations is not None:
            raise RepairError(
                "simplify=True cannot be combined with precomputed violations"
            )
        from repro.constraints.simplify import simplify_constraints

        constraints = simplify_constraints(constraints)
    # Statically dead constraints can never be violated, so a planned run
    # detects and verifies only the executed subset (identical verdicts,
    # less work).
    executed = (
        plan.executed_constraints(constraints) if plan is not None else constraints
    )
    metric = get_metric(metric)
    solver_engine = resolve_solver_engine(solver_engine)
    engine = resolve_engine("auto", instance)
    tracer = as_tracer(trace)
    # A trace created here is finished here; a caller-provided tracer is
    # left open so several pipeline calls can share one trace.
    owns_trace = tracer.enabled and not isinstance(trace, Tracer)

    with ExitStack() as ctx:
        ctx.enter_context(tracer.activate())
        root = ctx.enter_context(
            tracer.span(
                "repair",
                category="pipeline",
                algorithm=str(algorithm),
                engine=engine,
                solver_engine=solver_engine,
                tuples=len(instance),
                constraints=len(constraints),
            )
        )

        started = time.perf_counter()
        with tracer.span("detect", category="stage") as detect_span:
            if violations is None:
                violations = find_all_violations(instance, executed)
            detect_span.tag(violations=len(violations))
        if tracer.enabled:
            from repro.violations.degree import degree_of_database

            tracer.metrics.gauge("inconsistency_degree").set_max(
                degree_of_database(violations)
            )
        detected = time.perf_counter()

        with tracer.span("reduce", category="stage") as reduce_span:
            problem = build_repair_problem(
                instance,
                constraints,
                metric=metric,
                check_locality=check_locality,
                violations=violations,
            )
            reduce_span.tag(
                sets=len(problem.setcover.sets),
                elements=problem.setcover.n_elements,
            )
        built = time.perf_counter()

        if problem.is_consistent:
            root.tag(consistent=True)
            root_elapsed = {
                "detect": detected - started,
                "build": built - detected,
            }
            result_trace = None
            if tracer.enabled:
                detect_span.close()
                reduce_span.close()
                root_elapsed = {
                    "detect": detect_span.duration or 0.0,
                    "build": reduce_span.duration or 0.0,
                }
                if owns_trace:
                    result_trace = _finish_after(ctx, tracer)
            return RepairResult(
                repaired=instance.copy(),
                algorithm=str(algorithm),
                cover_weight=0.0,
                distance=0.0,
                changes=(),
                violations_before=0,
                verified=True,
                metric=metric.name,
                elapsed_seconds=root_elapsed,
                trace=result_trace,
            )

        logger.info(
            "repair: %d violations, %d candidate fixes, solving with %s",
            len(problem.violations),
            len(problem.setcover.sets),
            algorithm if isinstance(algorithm, str) else getattr(algorithm, "__name__", "?"),
        )
        with tracer.span("solve", category="stage") as solve_span:
            cover = get_solver(algorithm, solver_engine)(problem.setcover)
            solve_span.tag(weight=cover.weight, selected=len(cover.selected))
        solved = time.perf_counter()
        logger.info(
            "repair: cover weight %g with %d sets in %.3fs",
            cover.weight,
            len(cover.selected),
            solved - built,
        )

        with tracer.span("apply", category="stage") as apply_span:
            repaired, changes, distance = apply_cover(problem, cover)
            apply_span.tag(changes=len(changes), distance=distance)
        applied = time.perf_counter()

        verified = False
        if verify:
            with tracer.span("verify", category="stage") as verify_span:
                if not is_consistent(repaired, executed):
                    remaining = find_all_violations(repaired, executed)
                    raise RepairError(
                        f"repair left {len(remaining)} violations - the constraint "
                        "set is not local or the cover construction is inconsistent; "
                        f"first remaining violation: {remaining[0]!r}"
                    )
                verified = True
                verify_span.tag(consistent=True)

        solver_stats = dict(cover.stats)
        solver_stats["detection_engine"] = engine
        # Flat-engine covers stamp themselves; anything else (including a
        # flat request served by an object-only solver like lp-rounding)
        # ran the object code path.
        solver_stats.setdefault("solver_engine", "object")
        elapsed = {
            "detect": detected - started,
            "build": built - detected,
            "solve": solved - built,
            "apply": applied - solved,
            "verify": time.perf_counter() - applied if verify else 0.0,
        }
        result_trace = None
        if tracer.enabled:
            root.close()
            # The thin view: the same keys, now read off the stage spans.
            elapsed = {**elapsed, **_stage_view(root)}
            if owns_trace:
                result_trace = _finish_after(ctx, tracer)
        return RepairResult(
            repaired=repaired,
            algorithm=cover.algorithm,
            cover_weight=cover.weight,
            distance=distance,
            changes=changes,
            violations_before=len(problem.violations),
            verified=verified,
            metric=metric.name,
            solver_iterations=cover.iterations,
            solver_stats=normalize_solver_stats(solver_stats),
            elapsed_seconds=elapsed,
            trace=result_trace,
        )


def _finish_after(ctx: ExitStack, tracer: Tracer):
    """Close all open spans of ``ctx`` and snapshot the finished trace."""
    ctx.close()
    return tracer.finish()
