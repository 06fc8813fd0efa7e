"""The CompiledProgram artifact: fingerprint, round-trip, stale refusal."""

from __future__ import annotations

import json

import pytest

from repro.constraints.parser import parse_denials
from repro.exceptions import PlanError, StalePlanError
from repro.plan import (
    PLAN_FORMAT_VERSION,
    STALE,
    CompiledProgram,
    compile_program,
    program_fingerprint,
)
from repro.workloads.clientbuy import CLIENT_BUY_CONSTRAINTS, client_buy_schema
from repro.workloads.finance import finance_schema


def _clientbuy():
    return client_buy_schema(), parse_denials(CLIENT_BUY_CONSTRAINTS)


class TestFingerprint:
    def test_stable_across_calls(self):
        schema, constraints = _clientbuy()
        assert program_fingerprint(schema, constraints) == program_fingerprint(
            schema, constraints
        )

    def test_sha256_hex(self):
        schema, constraints = _clientbuy()
        fingerprint = program_fingerprint(schema, constraints)
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # raises if not hex

    def test_constraint_order_is_semantic(self):
        """Violation output order follows constraint order, so swapping
        two constraints is a different program."""
        schema, constraints = _clientbuy()
        assert len(constraints) >= 2
        swapped = (constraints[1], constraints[0]) + tuple(constraints[2:])
        assert program_fingerprint(schema, constraints) != program_fingerprint(
            schema, swapped
        )

    def test_different_schema_different_fingerprint(self):
        _, constraints = _clientbuy()
        a = program_fingerprint(client_buy_schema(), constraints)
        b = program_fingerprint(finance_schema(), constraints)
        assert a != b

    def test_dropping_a_constraint_changes_it(self):
        schema, constraints = _clientbuy()
        assert program_fingerprint(schema, constraints) != program_fingerprint(
            schema, constraints[:-1]
        )

    def test_availability_not_in_fingerprint(self, monkeypatch):
        """Engine availability is a runtime fact: with or without NumPy
        the compiled artifact - fingerprint included - is the same."""
        import repro.model.columnar as columnar
        import repro.violations.kernels as kernels

        schema, constraints = _clientbuy()
        with_kernel = compile_program(schema, constraints)
        for module in (columnar, kernels):
            monkeypatch.setattr(module, "kernel_available", lambda: False)
        without = compile_program(schema, constraints)
        assert with_kernel.fingerprint == without.fingerprint
        assert with_kernel.to_json() == without.to_json()


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        schema, constraints = _clientbuy()
        program = compile_program(schema, constraints)
        restored = CompiledProgram.from_json(program.to_json())
        assert restored.fingerprint == program.fingerprint
        assert restored.entries == program.entries
        assert restored.solver == program.solver
        assert restored.version == PLAN_FORMAT_VERSION
        # the lint report is compare=False; check its payload separately
        assert restored.lint.to_dict() == program.lint.to_dict()

    def test_round_tripped_plan_still_validates(self):
        schema, constraints = _clientbuy()
        program = compile_program(schema, constraints)
        CompiledProgram.from_json(program.to_json()).require_match(
            schema, constraints
        )

    def test_unknown_version_refused(self):
        schema, constraints = _clientbuy()
        data = compile_program(schema, constraints).to_dict()
        data["version"] = PLAN_FORMAT_VERSION + 1
        with pytest.raises(PlanError, match="version"):
            CompiledProgram.from_dict(data)

    def test_version_1_artifact_refused(self):
        """Artifacts of the first format (engine chains, cost estimates,
        an availability map) are refused, not half-read."""
        schema, constraints = _clientbuy()
        data = compile_program(schema, constraints).to_dict()
        data["version"] = 1
        data["availability"] = {"kernel": True, "pushdown": True}
        for entry in data["entries"]:
            entry["engines"] = ["pushdown", "kernel", "interpreted"]
            entry["cost"] = {"work": 1.0}
        with pytest.raises(PlanError, match="version 1"):
            CompiledProgram.from_json(json.dumps(data))

    def test_missing_version_refused(self):
        schema, constraints = _clientbuy()
        data = compile_program(schema, constraints).to_dict()
        del data["version"]
        with pytest.raises(PlanError, match="version"):
            CompiledProgram.from_dict(data)

    def test_garbage_json_refused(self):
        with pytest.raises(PlanError, match="unreadable"):
            CompiledProgram.from_json("{not json")

    def test_non_object_json_refused(self):
        with pytest.raises(PlanError, match="unreadable"):
            CompiledProgram.from_json(json.dumps([1, 2, 3]))


class TestRequireMatch:
    def test_matching_inputs_pass(self):
        schema, constraints = _clientbuy()
        compile_program(schema, constraints).require_match(schema, constraints)

    def test_stale_plan_refused_with_structured_error(self):
        """A plan compiled for different constraints never applies
        silently: StalePlanError carries both fingerprints and a
        LINT062 diagnostic."""
        schema, constraints = _clientbuy()
        program = compile_program(schema, constraints)
        live = constraints[:-1]
        with pytest.raises(StalePlanError) as excinfo:
            program.require_match(schema, live)
        error = excinfo.value
        assert error.expected == program.fingerprint
        assert error.actual == program_fingerprint(schema, live)
        assert error.expected != error.actual
        codes = [d.code for d in error.diagnostics]
        assert codes == [STALE]
        assert error.diagnostics[0].details["expected"] == error.expected

    def test_schema_drift_is_stale_too(self):
        schema, constraints = _clientbuy()
        program = compile_program(schema, constraints)
        with pytest.raises(StalePlanError):
            program.require_match(finance_schema(), constraints)

    def test_entry_structure(self):
        schema, constraints = _clientbuy()
        program = compile_program(schema, constraints)
        assert len(program.entries) == len(constraints)
        for index, entry in enumerate(program.entries):
            assert entry.index == index
            assert entry.label == constraints[index].label
            assert entry.data_dependent == ()
            assert entry.executed
