"""Unit + property tests for constraint simplification."""

from hypothesis import given, settings, strategies as st

from repro import Attribute, DatabaseInstance, Relation, Schema, parse_denial
from repro.constraints.simplify import simplify_constraint, simplify_constraints
from repro.violations import find_all_violations


SCHEMA = Schema(
    [
        Relation(
            "R",
            [Attribute.hard("k"), Attribute.flexible("x"), Attribute.flexible("y")],
            key=["k"],
        )
    ]
)


class TestSimplifyConstraint:
    def test_merges_upper_bounds(self):
        constraint = parse_denial("NOT(R(k, x, y), x < 5, x < 9)")
        simplified = simplify_constraint(constraint)
        assert len(simplified.builtins) == 1
        assert simplified.builtins[0].constant == 5

    def test_merges_lower_bounds(self):
        constraint = parse_denial("NOT(R(k, x, y), x > 2, x > 7)")
        simplified = simplify_constraint(constraint)
        assert len(simplified.builtins) == 1
        assert simplified.builtins[0].constant == 7

    def test_normalizes_le_ge(self):
        constraint = parse_denial("NOT(R(k, x, y), x <= 4, x < 9)")
        simplified = simplify_constraint(constraint)
        (builtin,) = simplified.builtins
        assert (builtin.comparator.value, builtin.constant) == ("<", 5)

    def test_dead_range_dropped(self):
        # over the integers, x > 5 and x < 6 has no solution.
        constraint = parse_denial("NOT(R(k, x, y), x > 5, x < 6)")
        assert simplify_constraint(constraint) is None

    def test_live_tight_range_kept(self):
        # x > 5 and x < 7 admits x = 6.
        constraint = parse_denial("NOT(R(k, x, y), x > 5, x < 7)")
        assert simplify_constraint(constraint) is not None

    def test_conflicting_equalities_dropped(self):
        constraint = parse_denial("NOT(R(k, x, y), k = 1, k = 2, x < 5)")
        assert simplify_constraint(constraint) is None

    def test_equality_outside_range_dropped(self):
        constraint = parse_denial("NOT(R(k, x, y), k = 10, k < 5, x > 0)")
        assert simplify_constraint(constraint) is None

    def test_name_and_atoms_preserved(self):
        constraint = parse_denial("keep: NOT(R(k, x, y), x < 5, x < 9, y > 1)")
        simplified = simplify_constraint(constraint)
        assert simplified.name == "keep"
        assert simplified.relation_atoms == constraint.relation_atoms


class TestCrossAtomDeadBodies:
    """Regression: dead bodies built from variable comparisons used to be
    invisible to the per-variable bound merging."""

    def test_comparison_cycle_dropped(self):
        constraint = parse_denial(
            "NOT(R(k1, x, y), R(k2, x2, y2), k1 < k2, k2 < k1)"
        )
        assert simplify_constraint(constraint) is None

    def test_offset_cycle_dropped(self):
        # k1 < k2 + 1 ∧ k2 < k1 - 1 collapses to k1 < k1, dead over ℤ.
        constraint = parse_denial(
            "NOT(R(k1, x, y), R(k2, x2, y2), k1 < k2 + 1, k2 < k1 - 1)"
        )
        assert simplify_constraint(constraint) is None

    def test_bound_comparison_interaction_dropped(self):
        # k1 < 5 ∧ k2 > 8 ∧ k1 > k2 is jointly unsatisfiable.
        constraint = parse_denial(
            "NOT(R(k1, x, y), R(k2, x2, y2), k1 < 5, k2 > 8, k1 > k2)"
        )
        assert simplify_constraint(constraint) is None

    def test_live_comparisons_kept(self):
        constraint = parse_denial(
            "NOT(R(k1, x, y), R(k2, x2, y2), k1 < k2, x > 3)"
        )
        simplified = simplify_constraint(constraint)
        assert simplified is not None
        assert simplified.variable_comparisons == constraint.variable_comparisons


class TestSimplifySet:
    def test_duplicates_removed(self):
        constraints = [
            parse_denial("a: NOT(R(k, x, y), x < 5)"),
            parse_denial("b: NOT(R(k, x, y), x < 5, x < 9)"),  # same after merge
            parse_denial("c: NOT(R(k, x, y), y > 3)"),
        ]
        simplified = simplify_constraints(constraints)
        assert [c.name for c in simplified] == ["a", "c"]

    def test_dead_constraints_dropped_from_set(self):
        constraints = [
            parse_denial("NOT(R(k, x, y), x > 9, x < 5)"),
            parse_denial("NOT(R(k, x, y), y > 3)"),
        ]
        assert len(simplify_constraints(constraints)) == 1


@st.composite
def random_bodies(draw):
    n_bounds = draw(st.integers(1, 4))
    parts = []
    for _ in range(n_bounds):
        variable = draw(st.sampled_from(["x", "y"]))
        op = draw(st.sampled_from(["<", ">", "<=", ">="]))
        constant = draw(st.integers(-10, 10))
        parts.append(f"{variable} {op} {constant}")
    return parse_denial("NOT(R(k, x, y), " + ", ".join(parts) + ")")


@given(random_bodies(), st.lists(
    st.tuples(st.integers(-15, 15), st.integers(-15, 15)),
    min_size=0, max_size=8, unique=True,
))
@settings(max_examples=150, deadline=None)
def test_simplification_preserves_violations(constraint, rows):
    instance = DatabaseInstance.from_rows(
        SCHEMA, {"R": [(i, x, y) for i, (x, y) in enumerate(rows)]}
    )
    original = find_all_violations(instance, [constraint])
    simplified = simplify_constraints([constraint])
    reduced = find_all_violations(instance, simplified)
    as_sets = lambda vs: {frozenset(t.ref for t in v) for v in vs}
    assert as_sets(original) == as_sets(reduced)
