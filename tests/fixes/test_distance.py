"""Unit tests for the Δ-distance (Definition 2.1)."""

import pytest

from repro import (
    CITY_DISTANCE,
    EUCLIDEAN_DISTANCE,
    ZERO_ONE_DISTANCE,
    Attribute,
    InstanceError,
    Relation,
    ReproError,
    Schema,
    Tuple,
    database_delta,
    tuple_delta,
)
from repro.fixes.distance import get_metric


@pytest.fixture
def schema():
    return Schema(
        [
            Relation(
                "R",
                [
                    Attribute.hard("k"),
                    Attribute.flexible("x", weight=1.0),
                    Attribute.flexible("y", weight=0.5),
                    Attribute.hard("h"),
                ],
                key=["k"],
            )
        ]
    )


class TestMetrics:
    def test_l1(self):
        assert CITY_DISTANCE(3, 10) == 7.0
        assert CITY_DISTANCE(10, 3) == 7.0
        assert CITY_DISTANCE(5, 5) == 0.0

    def test_l2(self):
        assert EUCLIDEAN_DISTANCE(3, 10) == 49.0
        assert EUCLIDEAN_DISTANCE(5, 5) == 0.0

    def test_l0(self):
        assert ZERO_ONE_DISTANCE(3, 10) == 1.0
        assert ZERO_ONE_DISTANCE(5, 5) == 0.0

    @pytest.mark.parametrize(
        "name, metric",
        [
            ("l1", CITY_DISTANCE),
            ("city", CITY_DISTANCE),
            ("L2", EUCLIDEAN_DISTANCE),
            ("euclidean", EUCLIDEAN_DISTANCE),
            ("l0", ZERO_ONE_DISTANCE),
            ("zero-one", ZERO_ONE_DISTANCE),
        ],
    )
    def test_get_metric_by_name(self, name, metric):
        assert get_metric(name) is metric

    def test_get_metric_passthrough(self):
        assert get_metric(CITY_DISTANCE) is CITY_DISTANCE

    def test_get_metric_unknown(self):
        with pytest.raises(ReproError):
            get_metric("manhattan-ish")


class TestTupleDelta:
    def test_weighted_sum(self, schema):
        relation = schema.relation("R")
        old = Tuple(relation, (1, 10, 20, "z"))
        new = Tuple(relation, (1, 13, 16, "z"))
        # 1.0*|10-13| + 0.5*|20-16| = 3 + 2
        assert tuple_delta(old, new) == 5.0

    def test_l2_weighted_sum(self, schema):
        relation = schema.relation("R")
        old = Tuple(relation, (1, 10, 20, "z"))
        new = Tuple(relation, (1, 13, 16, "z"))
        assert tuple_delta(old, new, EUCLIDEAN_DISTANCE) == 9.0 + 0.5 * 16

    def test_identical_tuples_zero(self, schema):
        relation = schema.relation("R")
        tup = Tuple(relation, (1, 10, 20, "z"))
        assert tuple_delta(tup, tup) == 0.0

    def test_hard_attributes_ignored(self, schema):
        relation = schema.relation("R")
        old = Tuple(relation, (1, 10, 20, "z"))
        new = Tuple(relation, (1, 10, 20, "other"))
        assert tuple_delta(old, new) == 0.0

    def test_different_relations_rejected(self, schema):
        other = Relation("S", [Attribute.hard("k")], key=["k"])
        with pytest.raises(InstanceError):
            tuple_delta(
                Tuple(schema.relation("R"), (1, 0, 0, "z")), Tuple(other, (1,))
            )

    def test_different_keys_rejected(self, schema):
        relation = schema.relation("R")
        with pytest.raises(InstanceError):
            tuple_delta(
                Tuple(relation, (1, 0, 0, "z")), Tuple(relation, (2, 0, 0, "z"))
            )


class TestDatabaseDelta:
    def test_paper_example_23(self, paper):
        """Example 2.3: Δ(D, D1) = 2 for the repair flipping EF twice."""
        original = paper.instance
        repaired = original.copy()
        repaired.replace_tuple(original.get("Paper", ("B1",)).replace(ef=0))
        repaired.replace_tuple(original.get("Paper", ("C2",)).replace(ef=0))
        assert database_delta(original, repaired) == 2.0

    def test_paper_example_23_d2(self, paper):
        """Δ(D, D2) = (1/20)*10 + (1/2)*1 + 1 = 2."""
        original = paper.instance
        repaired = original.copy()
        repaired.replace_tuple(
            original.get("Paper", ("B1",)).replace(prc=50, cf=1)
        )
        repaired.replace_tuple(original.get("Paper", ("C2",)).replace(ef=0))
        assert database_delta(original, repaired) == 2.0

    def test_paper_example_23_d3(self, paper):
        """Δ(D, D3) = 1 + (1/20)*30 = 2.5 (the non-minimal candidate D4)."""
        original = paper.instance
        repaired = original.copy()
        repaired.replace_tuple(
            original.get("Paper", ("B1",)).replace(prc=50, cf=1)
        )
        repaired.replace_tuple(original.get("Paper", ("C2",)).replace(prc=50))
        assert database_delta(original, repaired) == 2.5

    def test_identity_zero(self, paper):
        assert database_delta(paper.instance, paper.instance.copy()) == 0.0

    def test_requires_same_key_sets(self, paper):
        smaller = paper.instance.copy()
        smaller.delete("Paper", ("C2",))
        with pytest.raises(InstanceError):
            database_delta(paper.instance, smaller)
