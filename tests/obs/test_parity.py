"""Tracing must never change a repair: traced vs untraced parity.

The observability layer's core promise is that it only *observes* -
``repair_database(..., trace=True)`` returns the byte-identical repair
(same changes, same cover, same serialized form) as the untraced call,
for every approximation algorithm, and a traced detector call returns
the untraced violation sets on both in-memory detection engines.
"""

from __future__ import annotations

import json

import pytest

from repro import find_all_violations, repair_database
from repro.model import kernel_available
from repro.obs import Tracer
from repro.repair.serialize import change_to_dict

APPROXIMATIONS = ["greedy", "modified-greedy", "layer", "modified-layer"]
ENGINES = ["interpreted"] + (["kernel"] if kernel_available() else [])


def _comparable(result):
    """Everything a repair produced except the observability payloads."""
    return {
        "changes": json.dumps(
            [change_to_dict(c) for c in result.changes], sort_keys=True
        ),
        "cover_weight": result.cover_weight,
        "distance": result.distance,
        "violations_before": result.violations_before,
        "verified": result.verified,
        "solver_iterations": result.solver_iterations,
        "repaired": result.repaired,
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("algorithm", APPROXIMATIONS)
def test_traced_run_is_byte_identical(small_clientbuy, algorithm, engine):
    instance, constraints = small_clientbuy.instance, small_clientbuy.constraints
    # The pipeline picks its detection engine, so a forced engine is
    # checked at the detector level.
    untraced_violations = find_all_violations(instance, constraints, engine=engine)
    tracer = Tracer()
    with tracer.activate():
        traced_violations = find_all_violations(instance, constraints, engine=engine)
    assert len(tracer.finish()) > 0
    assert traced_violations == untraced_violations

    untraced = repair_database(instance, constraints, algorithm=algorithm)
    traced = repair_database(instance, constraints, algorithm=algorithm, trace=True)
    assert untraced.trace is None
    assert traced.trace is not None and len(traced.trace) > 0
    assert _comparable(traced) == _comparable(untraced)


@pytest.mark.parametrize("algorithm", APPROXIMATIONS)
def test_parity_on_paper_example(paper_pub, algorithm):
    untraced = repair_database(
        paper_pub.instance, paper_pub.constraints, algorithm=algorithm
    )
    traced = repair_database(
        paper_pub.instance,
        paper_pub.constraints,
        algorithm=algorithm,
        trace=True,
    )
    assert _comparable(traced) == _comparable(untraced)
    # The stats schema is identical too - tracing adds no keys there.
    assert dict(traced.solver_stats) == dict(untraced.solver_stats)
