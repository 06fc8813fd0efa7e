"""Unit tests for cover minimization (redundancy pruning)."""

from repro.setcover import (
    SetCoverInstance,
    exact_cover,
    greedy_cover,
    is_cover,
    layer_cover,
    minimize_cover,
)
from repro.setcover.result import Cover
from repro.setcover.solvers import greedy_pruned_cover, layer_pruned_cover


def make(n, collections):
    return SetCoverInstance.from_collections(n, collections)


class TestMinimizeCover:
    def test_drops_redundant_set(self):
        instance = make(2, [(1.0, [0]), (1.0, [1]), (5.0, [0, 1])])
        cover = Cover((0, 1, 2), 7.0, "manual")
        pruned = minimize_cover(instance, cover)
        assert sorted(pruned.selected) == [0, 1]
        assert pruned.weight == 2.0
        assert pruned.algorithm == "manual+prune"
        assert pruned.stats["pruned_sets"] == 1

    def test_heaviest_dropped_first(self):
        # both 0 and 1 are individually redundant given {2}; dropping the
        # heavy one first keeps the cover light.
        instance = make(2, [(4.0, [0, 1]), (1.0, [0]), (1.0, [1])])
        cover = Cover((0, 1, 2), 6.0, "manual")
        pruned = minimize_cover(instance, cover)
        assert 0 not in pruned.selected
        assert pruned.weight == 2.0

    def test_irredundant_cover_untouched(self):
        instance = make(2, [(1.0, [0]), (1.0, [1])])
        cover = Cover((0, 1), 2.0, "manual")
        pruned = minimize_cover(instance, cover)
        assert pruned is cover

    def test_result_is_still_a_cover(self):
        import random

        for seed in range(10):
            rng = random.Random(seed)
            n = rng.randint(2, 20)
            collections = [(float(rng.randint(1, 9)), [e]) for e in range(n)]
            for _ in range(rng.randint(1, 10)):
                size = rng.randint(1, min(5, n))
                collections.append(
                    (float(rng.randint(1, 9)), sorted(rng.sample(range(n), size)))
                )
            instance = make(n, collections)
            cover = layer_cover(instance)
            pruned = minimize_cover(instance, cover)
            assert is_cover(instance, pruned.selected)
            assert pruned.weight <= cover.weight + 1e-9
            assert pruned.weight >= exact_cover(instance).weight - 1e-9


class TestPrunedSolvers:
    def test_layer_prune_beats_plain_layer_on_repair_problem(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
        from conftest import clientbuy_problem

        problem = clientbuy_problem(200, 0, tight_values=True)
        plain = layer_cover(problem.setcover)
        pruned = layer_pruned_cover(problem.setcover)
        greedy = greedy_cover(problem.setcover)
        assert pruned.weight < plain.weight
        # the headline of the ablation: pruned layer undercuts greedy here.
        assert pruned.weight <= greedy.weight

    def test_registry_names_work_in_engine(self, paper):
        from repro import is_consistent, repair_database

        for algorithm in ("greedy+prune", "layer+prune"):
            result = repair_database(
                paper.instance, paper.constraints, algorithm=algorithm
            )
            assert is_consistent(result.repaired, paper.constraints)

    def test_greedy_prune_never_worse(self):
        import random

        for seed in range(6):
            rng = random.Random(seed + 50)
            n = rng.randint(2, 15)
            collections = [(float(rng.randint(1, 9)), [e]) for e in range(n)]
            for _ in range(rng.randint(1, 8)):
                size = rng.randint(1, min(4, n))
                collections.append(
                    (float(rng.randint(1, 9)), sorted(rng.sample(range(n), size)))
                )
            instance = make(n, collections)
            assert (
                greedy_pruned_cover(instance).weight
                <= greedy_cover(instance).weight + 1e-9
            )
