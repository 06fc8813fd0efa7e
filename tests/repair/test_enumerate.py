"""Tests for optimal-repair enumeration (Definition 2.2's repair set)."""

import pytest

from repro import SetCoverError, database_delta, is_consistent
from repro.repair.enumerate import all_optimal_repairs
from repro.setcover import SetCoverInstance, exact_cover, is_cover
from repro.setcover.enumerate import enumerate_optimal_covers


class TestEnumerateCovers:
    def make(self, n, collections):
        return SetCoverInstance.from_collections(n, collections)

    def test_unique_optimum(self):
        instance = self.make(2, [(1.0, [0, 1]), (5.0, [0]), (5.0, [1])])
        covers = enumerate_optimal_covers(instance)
        assert covers == (frozenset({0}),)

    def test_tied_optima(self):
        instance = self.make(1, [(2.0, [0]), (2.0, [0]), (3.0, [0])])
        covers = enumerate_optimal_covers(instance)
        assert set(covers) == {frozenset({0}), frozenset({1})}

    def test_all_enumerated_are_optimal_covers(self):
        import random

        for seed in range(6):
            rng = random.Random(seed)
            n = rng.randint(2, 8)
            collections = [(float(rng.randint(1, 4)), [e]) for e in range(n)]
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, min(3, n))
                collections.append(
                    (float(rng.randint(1, 4)), sorted(rng.sample(range(n), size)))
                )
            instance = self.make(n, collections)
            optimum = exact_cover(instance).weight
            covers = enumerate_optimal_covers(instance)
            assert covers
            for cover in covers:
                assert is_cover(instance, cover)
                weight = sum(instance.sets[i].weight for i in cover)
                assert weight == pytest.approx(optimum)

    def test_empty_universe(self):
        assert enumerate_optimal_covers(self.make(0, [])) == (frozenset(),)

    def test_size_guard(self):
        instance = self.make(100, [(1.0, list(range(100)))])
        with pytest.raises(SetCoverError):
            enumerate_optimal_covers(instance, max_elements=64)

    def test_redundant_covers_excluded(self):
        # {0} covers everything; {0, 1} would be redundant even at equal
        # weight (1 has weight 0).
        instance = self.make(2, [(1.0, [0, 1]), (0.0, [0])])
        covers = enumerate_optimal_covers(instance)
        assert frozenset({0}) in covers
        assert all(1 not in cover or 0 not in cover for cover in covers)


class TestAllOptimalRepairs:
    def test_example_23_exactly_two_repairs(self, paper):
        """Example 2.3: 'D1 and D2 ... are the only repairs for D'."""
        repairs = all_optimal_repairs(paper.instance, paper.constraints)
        assert len(repairs) == 2
        materialized = {
            tuple(sorted(str(t.values) for t in r.tuples("Paper")))
            for r in repairs
        }
        d1 = tuple(sorted([
            str(("B1", 0, 40, 0)), str(("C2", 0, 20, 1)), str(("E3", 1, 70, 1)),
        ]))
        d2 = tuple(sorted([
            str(("B1", 1, 50, 1)), str(("C2", 0, 20, 1)), str(("E3", 1, 70, 1)),
        ]))
        assert materialized == {d1, d2}

    def test_all_repairs_consistent_and_minimal(self, paper):
        repairs = all_optimal_repairs(paper.instance, paper.constraints)
        distances = set()
        for repair in repairs:
            assert is_consistent(repair, paper.constraints)
            distances.add(database_delta(paper.instance, repair))
        assert distances == {2.0}

    def test_consistent_database_has_one_repair_itself(self, paper):
        from repro import DatabaseInstance

        consistent = DatabaseInstance.from_rows(
            paper.schema, {"Paper": [("E3", 1, 70, 1)]}
        )
        repairs = all_optimal_repairs(consistent, paper.constraints)
        assert len(repairs) == 1
        assert repairs[0] == consistent

    def test_enumeration_contains_engine_result(self, paper):
        from repro import repair_database

        repairs = all_optimal_repairs(paper.instance, paper.constraints)
        engine = repair_database(paper.instance, paper.constraints, algorithm="exact")
        assert any(r == engine.repaired for r in repairs)

    def test_l2_metric_changes_the_repair_set(self, paper):
        # under L2 the long prc move costs 5, so D2 is no longer optimal:
        # only D1 (flip both EF bits, cost 2) remains.
        repairs = all_optimal_repairs(paper.instance, paper.constraints, metric="l2")
        assert len(repairs) == 1
        assert repairs[0].get("Paper", ("B1",)).values == ("B1", 0, 40, 0)
