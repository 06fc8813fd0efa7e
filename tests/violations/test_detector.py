"""Unit tests for violation-set detection (Definition 2.4)."""

import pytest

from repro import (
    Attribute,
    ConstraintError,
    DatabaseInstance,
    Relation,
    Schema,
    find_all_violations,
    find_violations,
    is_consistent,
    parse_denial,
)
from repro.violations import violations_of_tuple


@pytest.fixture
def schema():
    return Schema(
        [
            Relation(
                "Client",
                [Attribute.hard("id"), Attribute.flexible("a"), Attribute.flexible("c")],
                key=["id"],
            ),
            Relation(
                "Buy",
                [Attribute.hard("id"), Attribute.hard("i"), Attribute.flexible("p")],
                key=["id", "i"],
            ),
        ]
    )


class TestSingleAtom:
    def test_each_violating_tuple_is_a_singleton_set(self, schema):
        instance = DatabaseInstance.from_rows(
            schema, {"Client": [(1, 15, 60), (2, 15, 10), (3, 40, 90)], "Buy": []}
        )
        constraint = parse_denial("NOT(Client(id, a, c), a < 18, c > 50)")
        violations = find_violations(instance, constraint)
        assert len(violations) == 1
        (violation,) = violations
        assert len(violation) == 1
        assert next(iter(violation))["id"] == 1

    def test_consistent_instance_has_no_violations(self, schema):
        instance = DatabaseInstance.from_rows(
            schema, {"Client": [(1, 30, 60)], "Buy": [(1, 0, 99)]}
        )
        constraint = parse_denial("NOT(Client(id, a, c), a < 18, c > 50)")
        assert find_violations(instance, constraint) == ()

    def test_le_boundary(self, schema):
        instance = DatabaseInstance.from_rows(
            schema, {"Client": [(1, 17, 0), (2, 18, 0)], "Buy": []}
        )
        constraint = parse_denial("NOT(Client(id, a, c), a <= 17)")
        violations = find_violations(instance, constraint)
        assert [next(iter(v))["id"] for v in violations] == [1]


class TestJoins:
    def test_two_atom_join(self, schema):
        instance = DatabaseInstance.from_rows(
            schema,
            {
                "Client": [(1, 15, 0), (2, 40, 0)],
                "Buy": [(1, 0, 30), (1, 1, 10), (2, 0, 99)],
            },
        )
        constraint = parse_denial(
            "NOT(Buy(id, i, p), Client(id, a, c), a < 18, p > 25)"
        )
        violations = find_violations(instance, constraint)
        assert len(violations) == 1
        (violation,) = violations
        names = sorted(t.relation.name for t in violation)
        assert names == ["Buy", "Client"]
        assert {t.key for t in violation} == {(1, 0), (1,)}

    def test_multiple_join_witnesses(self, schema):
        # one minor with two expensive purchases: two violation sets.
        instance = DatabaseInstance.from_rows(
            schema,
            {"Client": [(1, 15, 0)], "Buy": [(1, 0, 30), (1, 1, 40)]},
        )
        constraint = parse_denial(
            "NOT(Buy(id, i, p), Client(id, a, c), a < 18, p > 25)"
        )
        assert len(find_violations(instance, constraint)) == 2

    def test_self_join_minimality(self, schema):
        # NOT(Client(x,...), Client(y,...)) with both atoms satisfiable by
        # ONE tuple: the singleton is the violation set, pairs are not
        # minimal (Definition 2.4).
        instance = DatabaseInstance.from_rows(
            schema, {"Client": [(1, 15, 0), (2, 16, 0)], "Buy": []}
        )
        constraint = parse_denial(
            "NOT(Client(x, a, c), Client(y, b, d), a < 18, b < 18)"
        )
        violations = find_violations(instance, constraint)
        assert all(len(v) == 1 for v in violations)
        assert len(violations) == 2

    def test_self_join_with_inequality_needs_two_tuples(self, schema):
        instance = DatabaseInstance.from_rows(
            schema, {"Client": [(1, 15, 0), (2, 16, 0)], "Buy": []}
        )
        constraint = parse_denial(
            "NOT(Client(x, a, c), Client(y, b, d), x != y, a < 18, b < 18)"
        )
        violations = find_violations(instance, constraint)
        assert len(violations) == 1           # {t1, t2} as an unordered set
        assert len(violations[0]) == 2

    def test_key_join_via_repeated_variable(self, schema):
        # joining Buy and Client on the shared 'id' variable only pairs
        # matching keys - no cartesian blowup of violation sets.
        instance = DatabaseInstance.from_rows(
            schema,
            {
                "Client": [(i, 15, 0) for i in range(10)],
                "Buy": [(i, 0, 30) for i in range(10)],
            },
        )
        constraint = parse_denial(
            "NOT(Buy(id, i, p), Client(id, a, c), a < 18, p > 25)"
        )
        assert len(find_violations(instance, constraint)) == 10


class TestAcrossConstraints:
    def test_paper_example_25(self, paper_pub):
        """Example 2.5: I(D,ic1)={{t1},{t2}}, I(D,ic2)={{t1}}, I(D,ic3)={{t1,p1}}."""
        violations = find_all_violations(paper_pub.instance, paper_pub.constraints)
        by_ic = {}
        for violation in violations:
            by_ic.setdefault(violation.constraint.name, []).append(
                sorted((t.relation.name, t.key) for t in violation)
            )
        assert by_ic["ic1"] == [[("Paper", ("B1",))], [("Paper", ("C2",))]]
        assert by_ic["ic2"] == [[("Paper", ("B1",))]]
        assert by_ic["ic3"] == [[("Paper", ("B1",)), ("Pub", (235,))]]

    def test_violations_of_tuple(self, paper_pub):
        violations = find_all_violations(paper_pub.instance, paper_pub.constraints)
        t1 = paper_pub.instance.get("Paper", ("B1",))
        t3 = paper_pub.instance.get("Paper", ("E3",))
        assert len(violations_of_tuple(violations, t1)) == 3
        assert violations_of_tuple(violations, t3) == ()

    def test_is_consistent(self, paper_pub):
        assert not is_consistent(paper_pub.instance, paper_pub.constraints)
        consistent = DatabaseInstance.from_rows(
            paper_pub.schema,
            {"Paper": [("E3", 1, 70, 1)], "Pub": [(100, "E3", 80)]},
        )
        assert is_consistent(consistent, paper_pub.constraints)

    def test_max_violations_guard(self, schema):
        instance = DatabaseInstance.from_rows(
            schema, {"Client": [(i, 15, 60) for i in range(100)], "Buy": []}
        )
        constraint = parse_denial("NOT(Client(id, a, c), a < 18, c > 50)")
        with pytest.raises(ConstraintError, match="refusing"):
            find_violations(instance, constraint, max_violations=10)

    def test_violation_set_helpers(self, paper_pub):
        violations = find_all_violations(paper_pub.instance, paper_pub.constraints)
        ic3_violation = [v for v in violations if v.constraint.name == "ic3"][0]
        ordered = ic3_violation.sorted_tuples()
        assert [t.relation.name for t in ordered] == ["Paper", "Pub"]
        assert "ic3" in repr(ic3_violation)
        assert len(ic3_violation) == 2
