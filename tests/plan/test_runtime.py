"""Detection at run time, with and without a compiled plan.

A plan holds static analysis only; which engine runs each constraint is
the detector's ``auto`` decision in both cases.  These tests pin the
runtime side: planned detection agrees with unplanned detection, an
engine refusal falls through and lands on the
``detect_engine_fallbacks{constraint,engine}`` counter whether or not a
plan is in use, and constraints the plan eliminated are never detected -
by ``repair_database``, ``IncrementalRepairer`` or the repair service.
"""

from __future__ import annotations

import pytest

from repro import IncrementalRepairer, parse_denials, repair_database
from repro.exceptions import KernelError, PushdownError
from repro.obs.trace import Tracer
from repro.plan import compile_program
from repro.service import JobRequest, run_jobs
from repro.storage import SqliteBackend
from repro.violations.detector import find_all_violations, is_consistent
from repro.workloads.clientbuy import CLIENT_BUY_CONSTRAINTS, client_buy_workload

#: Dead (``id < 10`` and ``id > 20``), yet local: the ``a < 18`` bound
#: points the same way as in ic1/ic2, so the plan's locality proof holds
#: and the incremental repairer accepts the set.
DEAD = "ic_dead: NOT(Client(id, a, c), id < 10, id > 20, a < 18)\n"


@pytest.fixture(scope="module")
def workload():
    return client_buy_workload(60, inconsistency_ratio=0.5, seed=7)


@pytest.fixture(scope="module")
def with_dead(workload):
    constraints = parse_denials(CLIENT_BUY_CONSTRAINTS + DEAD)
    program = compile_program(workload.schema, constraints)
    assert [e.label for e in program.skipped_entries] == ["ic_dead"]
    assert program.solver.locality_ok
    return constraints, program


def _fallbacks(tracer: Tracer, engine: str) -> dict[str, float]:
    found = {}
    for counter in tracer.metrics.counters():
        labels = dict(counter.labels)
        if counter.name == "detect_engine_fallbacks" and labels["engine"] == engine:
            found[labels["constraint"]] = counter.value
    return found


def _spy_detected(monkeypatch) -> list[str]:
    """Record the label of every constraint whole-instance detection runs."""
    import repro.violations.detector as detector

    seen: list[str] = []
    real = detector.find_violations

    def spy(instance, constraint, *args, **kwargs):
        seen.append(constraint.label)
        return real(instance, constraint, *args, **kwargs)

    monkeypatch.setattr(detector, "find_violations", spy)
    return seen


def _refusing_kernel(monkeypatch) -> None:
    """Make ``auto`` pick the kernel, then have it refuse every constraint."""
    import repro.violations.detector as detector
    import repro.violations.kernels as kernels

    def refuse(instance, constraint):
        raise KernelError("synthetic refusal")

    monkeypatch.setattr(kernels, "kernel_available", lambda: True)
    monkeypatch.setattr(detector, "kernel_witnesses", refuse)


class TestPlannedFindViolations:
    def test_agrees_with_unplanned_detection(self, workload):
        program = compile_program(workload.schema, workload.constraints)
        expected = find_all_violations(workload.instance, workload.constraints)
        planned = repair_database(
            workload.instance, workload.constraints, plan=program
        )
        unplanned = repair_database(workload.instance, workload.constraints)
        assert planned.violations_before == len(expected)
        assert planned.changes == unplanned.changes

    def test_runtime_refusal_falls_through_and_is_recorded(
        self, workload, monkeypatch
    ):
        """A kernel refusal under ``auto`` falls through to the
        interpreted engine and lands on ``detect_engine_fallbacks`` - once
        in detect and once in verify per constraint - identically for
        planned and unplanned runs."""
        expected = repair_database(workload.instance, workload.constraints)
        _refusing_kernel(monkeypatch)
        program = compile_program(workload.schema, workload.constraints)
        for plan in (None, program):
            tracer = Tracer()
            result = repair_database(
                workload.instance, workload.constraints, plan=plan, trace=tracer
            )
            assert result.changes == expected.changes
            assert _fallbacks(tracer, "kernel") == {"ic1": 2, "ic2": 2}
            assert _fallbacks(tracer, "pushdown") == {}

    def test_verify_refusal_is_recorded(self, workload, monkeypatch):
        """Verification counts its fallbacks like detection does: with the
        violations supplied, every recorded fallback is verify's own."""
        violations = find_all_violations(workload.instance, workload.constraints)
        expected = repair_database(workload.instance, workload.constraints)
        _refusing_kernel(monkeypatch)
        tracer = Tracer()
        result = repair_database(
            workload.instance,
            workload.constraints,
            violations=violations,
            trace=tracer,
        )
        assert result.verified
        assert result.changes == expected.changes
        assert _fallbacks(tracer, "kernel") == {"ic1": 1, "ic2": 1}

    @pytest.mark.parametrize("planned", [False, True], ids=["unplanned", "planned"])
    def test_pushdown_refusal_is_recorded(self, workload, monkeypatch, planned):
        import repro.violations.detector as detector

        def refuse(instance, constraint, max_violations):
            raise PushdownError("synthetic refusal")

        monkeypatch.setattr(detector, "pushdown_used_sets", refuse)
        program = (
            compile_program(workload.schema, workload.constraints)
            if planned
            else None
        )
        expected = repair_database(workload.instance, workload.constraints)
        backend = SqliteBackend.from_instance(workload.instance)
        try:
            resident = backend.load_instance(workload.schema)
            tracer = Tracer()
            result = repair_database(
                resident, workload.constraints, plan=program, trace=tracer
            )
        finally:
            backend.close()
        assert result.changes == expected.changes
        assert _fallbacks(tracer, "pushdown") == {"ic1": 1, "ic2": 1}

    def test_consistency_probe_refusal_is_recorded(self, workload, monkeypatch):
        """A pushdown refusal in ``is_consistent`` falls back in memory
        and is counted, like a refusal in detection."""
        import repro.violations.detector as detector

        def refuse(instance, constraint):
            raise PushdownError("synthetic refusal")

        monkeypatch.setattr(detector, "pushdown_has_witness", refuse)
        with SqliteBackend.from_instance(workload.instance) as backend:
            resident = backend.load_instance(workload.schema)
            tracer = Tracer()
            with tracer.activate():
                consistent = is_consistent(resident, workload.constraints)
        assert not consistent
        # ic1 already has a witness in memory, so the probe stops there.
        assert _fallbacks(tracer, "pushdown") == {"ic1": 1}

    def test_last_engine_refusal_propagates(self, workload, monkeypatch):
        """Only ``auto`` absorbs refusals; an explicitly requested
        engine's refusal is a real error, plan or not."""
        _refusing_kernel(monkeypatch)
        program = compile_program(workload.schema, workload.constraints)
        for constraints in (
            workload.constraints,
            program.executed_constraints(workload.constraints),
        ):
            with pytest.raises(KernelError):
                find_all_violations(workload.instance, constraints, engine="kernel")
            with pytest.raises(KernelError):
                is_consistent(workload.instance, constraints, engine="kernel")


class TestPlannedFindAll:
    def test_skipped_entries_never_detected(self, workload, with_dead, monkeypatch):
        constraints, program = with_dead
        seen = _spy_detected(monkeypatch)
        planned = repair_database(workload.instance, constraints, plan=program)
        assert "ic_dead" not in seen
        assert seen == ["ic1", "ic2"]
        unplanned = repair_database(workload.instance, workload.constraints)
        assert planned.changes == unplanned.changes

    def test_incremental_skips_dead_entries(self, workload, with_dead, monkeypatch):
        import repro.repair.incremental as incremental

        constraints, program = with_dead
        seen: list[str] = []
        for name in ("find_all_violations", "find_violations_involving", "is_consistent"):
            real = getattr(incremental, name)

            def spy(instance, checked, *args, _real=real, **kwargs):
                seen.extend(c.label for c in checked)
                return _real(instance, checked, *args, **kwargs)

            monkeypatch.setattr(incremental, name, spy)
        repairer = IncrementalRepairer(workload.instance, constraints, plan=program)
        repairer.update("Client", (0,), a=15, c=60)
        result = repairer.commit(verify=True)
        assert result.changes
        assert seen and "ic_dead" not in seen

    def test_service_skips_dead_entries(self, workload, with_dead, monkeypatch):
        constraints, _ = with_dead
        seen = _spy_detected(monkeypatch)
        (view,), _ = run_jobs(
            [JobRequest(workload.instance, tuple(constraints))], workers=1
        )
        assert view.status == "succeeded", view.error
        assert seen and "ic_dead" not in seen
