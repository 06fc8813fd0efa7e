"""Property-based engine parity: pushdown vs kernel vs interpreted.

Parametrized over every available SQL backend - sqlite always, DuckDB
only when the optional ``repro[duckdb]`` extra is installed (the DuckDB
leg skips cleanly otherwise).  The property: for any random detection
workload, every constraint either pushes down to a byte-identical
result, or is refused with :class:`PushdownError` (never a wrong
answer), in which case ``engine="auto"`` still matches the interpreted
baseline through the fallback.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Attribute,
    DatabaseInstance,
    Relation,
    Schema,
    parse_denial,
    parse_denials,
)
from repro.exceptions import PushdownError
from repro.storage import SqliteBackend, duckdb_available
from repro.violations.detector import find_all_violations, find_violations
from repro.workloads import random_detection_workload


def _backend_classes():
    classes = [pytest.param(SqliteBackend, id="sqlite")]
    if duckdb_available():
        from repro.storage import DuckDBBackend

        classes.append(pytest.param(DuckDBBackend, id="duckdb"))
    else:
        classes.append(
            pytest.param(
                None,
                id="duckdb",
                marks=pytest.mark.skip(reason="duckdb not installed"),
            )
        )
    return classes


BACKENDS = _backend_classes()


def _assert_engines_agree(backend_cls, instance, constraints):
    """Pushdown is byte-identical or refuses; ``auto`` is always identical."""
    interpreted = find_all_violations(instance, constraints, engine="interpreted")
    with backend_cls.from_instance(instance) as backend:
        loaded = backend.load_instance(instance.schema)
        assert loaded == instance
        # auto must match byte-for-byte whether it pushes down or not.
        assert find_all_violations(loaded, constraints, engine="auto") == interpreted
        for constraint in constraints:
            expected = find_violations(instance, constraint, engine="interpreted")
            try:
                pushed = find_violations(loaded, constraint, engine="pushdown")
            except PushdownError:
                continue  # refused, never wrong - auto already checked
            assert pushed == expected


@pytest.mark.parametrize("backend_cls", BACKENDS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_engines_agree_on_random_workloads(backend_cls, seed):
    workload = random_detection_workload(seed, n_clients=14, n_constraints=5)
    _assert_engines_agree(backend_cls, workload.instance, workload.constraints)


#: A join from a hard *non-key* group attribute to a key (``R.g = S.k``)
#: plus a single-table range rule; ``R`` may be empty.
JOIN_GROUP_SCHEMA = Schema(
    [
        Relation(
            "R",
            [Attribute.hard("k"), Attribute.hard("g"), Attribute.flexible("x")],
            key=["k"],
        ),
        Relation("S", [Attribute.hard("k"), Attribute.flexible("y")], key=["k"]),
    ]
)
JOIN_GROUP_CONSTRAINTS = tuple(
    parse_denials(
        [
            "join_rule: NOT(R(k, g, x), S(g, y), x < 10, y > 5)",
            "range_rule: NOT(S(k, y), y > 20)",
        ]
    )
)


@st.composite
def join_group_instances(draw):
    n_r = draw(st.integers(min_value=0, max_value=10))
    n_s = draw(st.integers(min_value=1, max_value=8))
    instance = DatabaseInstance(JOIN_GROUP_SCHEMA)
    for i in range(n_s):
        instance.insert_row("S", (i, draw(st.integers(0, 30))))
    for i in range(n_r):
        group = draw(st.integers(0, n_s - 1))
        instance.insert_row("R", (i, group, draw(st.integers(0, 20))))
    return instance


@pytest.mark.parametrize("backend_cls", BACKENDS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(instance=join_group_instances())
def test_engines_agree_on_join_group_instances(backend_cls, instance):
    _assert_engines_agree(backend_cls, instance, JOIN_GROUP_CONSTRAINTS)


#: Offset comparisons (``x θ y + c``) are the subtlest SQL translation:
#: the offset moves to the RHS as literal arithmetic, and operand order
#: must survive the round-trip.  Exercised across every comparator.
OFFSET_CONSTRAINTS = (
    "NOT(Buy(x, i, p), Buy(y, i2, p2), x < y, p > p2 + 5)",
    "NOT(Buy(x, i, p), Buy(y, i2, p2), x < y, p < p2 - 3)",
    "NOT(Buy(x, i, p), Buy(y, i2, p2), x < y, p >= p2 + 10)",
    "NOT(Buy(x, i, p), Buy(y, i2, p2), x < y, p <= p2 - 7)",
    "NOT(Buy(x, i, p), Buy(y, i2, p2), x < y, p = p2 + 2)",
    "NOT(Buy(x, i, p), Buy(y, i2, p2), x < y, p != p2 + 1)",
    "NOT(Client(x, a, c), Buy(x, i, p), p > a + 4)",
)


@pytest.mark.parametrize("backend_cls", BACKENDS)
@pytest.mark.parametrize("text", OFFSET_CONSTRAINTS)
def test_offset_comparison_round_trip(backend_cls, text):
    workload = random_detection_workload(21, n_clients=20, n_constraints=1)
    constraint = parse_denial(text)
    expected = find_violations(workload.instance, constraint, engine="interpreted")
    with backend_cls.from_instance(workload.instance) as backend:
        loaded = backend.load_instance(workload.schema)
        assert find_violations(loaded, constraint, engine="pushdown") == expected
