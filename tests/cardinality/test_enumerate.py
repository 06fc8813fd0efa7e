"""Golden test: Example 5.4's full deletion-repair set."""

from repro import is_consistent
from repro.cardinality.engine import all_optimal_deletion_repairs


class TestExample54Enumeration:
    def test_exactly_four_repairs(self, deletion_demo):
        repairs = all_optimal_deletion_repairs(
            deletion_demo.instance, deletion_demo.constraints
        )
        assert len(repairs) == 4

    def test_repairs_match_paper(self, deletion_demo):
        repairs = all_optimal_deletion_repairs(
            deletion_demo.instance, deletion_demo.constraints
        )
        materialized = {
            (
                frozenset(t.values for t in r.tuples("P")),
                frozenset(t.values for t in r.tuples("T")),
            )
            for r in repairs
        }
        expected = {
            (frozenset({(1, "c")}), frozenset({("e", 4)})),           # D1
            (frozenset({(1, "b")}), frozenset({("e", 4)})),           # D2
            (frozenset({(1, "c"), (2, "e")}), frozenset()),           # D3
            (frozenset({(1, "b"), (2, "e")}), frozenset()),           # D4
        }
        assert materialized == expected

    def test_all_consistent_and_equal_cardinality(self, deletion_demo):
        repairs = all_optimal_deletion_repairs(
            deletion_demo.instance, deletion_demo.constraints
        )
        sizes = {len(r) for r in repairs}
        assert sizes == {2}          # 4 tuples minus 2 deletions each
        for repair in repairs:
            assert is_consistent(repair, deletion_demo.constraints)

    def test_table_weights_shrink_the_repair_set(self, deletion_demo):
        # with deletions from T costing 10, only the T-preserving repairs
        # remain optimal.
        repairs = all_optimal_deletion_repairs(
            deletion_demo.instance,
            deletion_demo.constraints,
            table_weights={"T": 10.0},
        )
        assert len(repairs) == 2
        for repair in repairs:
            assert repair.count("T") == 1
