"""Unit tests for the four approximation solvers and the exact solver.

Shared scenarios run against every algorithm; algorithm-specific behaviour
(greedy's harmonic worst case, layer's frequency bound) is tested
separately.
"""

import pytest

from repro import SetCoverError, UncoverableError
from repro.setcover import (
    SetCoverInstance,
    cover_weight,
    exact_cover,
    greedy_cover,
    is_cover,
    layer_cover,
    modified_greedy_cover,
    modified_layer_cover,
)
from repro.setcover.solvers import SOLVERS, get_solver
from repro.setcover.verify import redundant_sets

ALGORITHMS = [greedy_cover, modified_greedy_cover, layer_cover, modified_layer_cover, exact_cover]


def make(n, collections):
    return SetCoverInstance.from_collections(n, collections)


@pytest.mark.parametrize("solver", ALGORITHMS)
class TestAllSolvers:
    def test_single_set_instance(self, solver):
        instance = make(3, [(2.0, [0, 1, 2])])
        cover = solver(instance)
        assert cover.selected == (0,)
        assert cover.weight == 2.0

    def test_empty_universe(self, solver):
        cover = solver(make(0, []))
        assert cover.selected == ()
        assert cover.weight == 0.0

    def test_disjoint_sets_all_selected(self, solver):
        instance = make(4, [(1.0, [0]), (1.0, [1]), (1.0, [2]), (1.0, [3])])
        cover = solver(instance)
        assert sorted(cover.selected) == [0, 1, 2, 3]

    def test_produces_valid_cover(self, solver):
        instance = make(
            6,
            [
                (3.0, [0, 1, 2]),
                (2.0, [2, 3]),
                (2.0, [3, 4, 5]),
                (1.0, [0]),
                (1.0, [5]),
            ],
        )
        cover = solver(instance)
        assert is_cover(instance, cover.selected)
        assert cover.weight == pytest.approx(
            cover_weight(instance, cover.selected)
        )

    def test_uncoverable_raises(self, solver):
        with pytest.raises(UncoverableError):
            solver(make(2, [(1.0, [0])]))

    def test_zero_weight_sets_are_free(self, solver):
        instance = make(2, [(0.0, [0]), (5.0, [0, 1]), (0.0, [1])])
        cover = solver(instance)
        assert is_cover(instance, cover.selected)
        assert cover.weight == 0.0

    def test_duplicate_sets_tolerated(self, solver):
        instance = make(1, [(1.0, [0]), (1.0, [0])])
        cover = solver(instance)
        assert is_cover(instance, cover.selected)
        assert cover.weight == 1.0


class TestGreedyBehaviour:
    def test_picks_best_effective_weight(self):
        # set 0 covers 3 elements for weight 2 (0.67 each); set 1 covers one
        # element for 0.5. Greedy takes set 1 first, then set 0.
        instance = make(3, [(2.0, [0, 1, 2]), (0.5, [0])])
        cover = greedy_cover(instance)
        assert cover.selected == (1, 0)

    def test_harmonic_worst_case(self):
        # classic greedy trap: singletons 1/k vs one big set of weight 1+eps.
        k = 5
        collections = [(1.0 / (i + 1), [i]) for i in range(k)]
        collections.append((1.0 + 1e-9, list(range(k))))
        instance = make(k, collections)
        greedy = greedy_cover(instance)
        optimal = exact_cover(instance)
        assert optimal.weight == pytest.approx(1.0 + 1e-9)
        assert greedy.weight == pytest.approx(sum(1 / (i + 1) for i in range(k)))

    def test_stats_recorded(self):
        instance = make(2, [(1.0, [0]), (1.0, [1])])
        cover = greedy_cover(instance)
        assert cover.iterations == 2
        assert cover.algorithm == "greedy"
        assert "scanned_sets" in cover.stats


class TestModifiedGreedyEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_cover_as_greedy_on_random_instances(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(5, 40)
        sets = []
        for _ in range(rng.randint(3, 60)):
            size = rng.randint(1, min(6, n))
            sets.append(
                (rng.randint(1, 20) / 4.0, sorted(rng.sample(range(n), size)))
            )
        # ensure coverability
        sets.append((float(n), list(range(n))))
        instance = make(n, sets)
        assert greedy_cover(instance).selected == modified_greedy_cover(
            instance
        ).selected

    def test_heap_stats(self):
        instance = make(3, [(1.0, [0, 1]), (1.0, [1, 2]), (1.0, [2])])
        cover = modified_greedy_cover(instance)
        assert cover.algorithm == "modified-greedy"
        assert "heap_updates" in cover.stats


class TestLayerBehaviour:
    def test_prefers_cheap_ratio_first_layer(self):
        instance = make(2, [(1.0, [0]), (10.0, [0, 1]), (2.0, [1])])
        cover = layer_cover(instance)
        assert is_cover(instance, cover.selected)
        assert cover.weight == 3.0          # sets 0 and 2

    def test_frequency_recorded_in_stats(self):
        # The achieved approximation factor is the stat the static
        # LINT040 prediction upper-bounds.
        instance = make(2, [(1.0, [0]), (10.0, [0, 1]), (2.0, [1])])
        assert layer_cover(instance).stats["frequency"] == 2.0
        assert modified_layer_cover(instance).stats["frequency"] == 2.0

    def test_frequency_bound_holds(self):
        # layer approximates within max element frequency f.
        import random

        for seed in range(6):
            rng = random.Random(seed)
            n = rng.randint(4, 25)
            sets = [(float(rng.randint(1, 9)), [e]) for e in range(n)]
            for _ in range(rng.randint(1, 15)):
                size = rng.randint(1, min(5, n))
                sets.append(
                    (float(rng.randint(1, 9)), sorted(rng.sample(range(n), size)))
                )
            instance = make(n, sets)
            layer = layer_cover(instance)
            optimal = exact_cover(instance)
            f = instance.max_frequency
            assert layer.weight <= f * optimal.weight + 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_modified_layer_matches_plain_layer(self, seed):
        import random

        rng = random.Random(100 + seed)
        n = rng.randint(5, 40)
        sets = []
        for _ in range(rng.randint(3, 60)):
            size = rng.randint(1, min(6, n))
            sets.append(
                (float(rng.randint(1, 16)), sorted(rng.sample(range(n), size)))
            )
        sets.append((float(2 * n), list(range(n))))
        instance = make(n, sets)
        plain = layer_cover(instance)
        modified = modified_layer_cover(instance)
        assert plain.weight == pytest.approx(modified.weight, rel=1e-9)
        assert plain.selected == modified.selected


class TestExact:
    def test_finds_optimum(self):
        instance = make(
            4,
            [
                (10.0, [0, 1, 2, 3]),
                (3.0, [0, 1]),
                (3.0, [2, 3]),
                (1.0, [0]),
                (1.0, [1]),
                (1.0, [2]),
                (1.0, [3]),
            ],
        )
        cover = exact_cover(instance)
        assert cover.weight == 4.0
        assert sorted(cover.selected) == [3, 4, 5, 6]

    def test_never_worse_than_greedy(self):
        import random

        for seed in range(10):
            rng = random.Random(seed * 7)
            n = rng.randint(3, 18)
            sets = [(float(rng.randint(1, 9)), [e]) for e in range(n)]
            for _ in range(rng.randint(0, 12)):
                size = rng.randint(1, min(4, n))
                sets.append(
                    (float(rng.randint(1, 9)), sorted(rng.sample(range(n), size)))
                )
            instance = make(n, sets)
            assert (
                exact_cover(instance).weight
                <= greedy_cover(instance).weight + 1e-9
            )

    def test_size_guard(self):
        instance = make(100, [(1.0, list(range(100)))])
        with pytest.raises(SetCoverError):
            exact_cover(instance, max_elements=64)

    def test_node_stats(self):
        cover = exact_cover(make(1, [(1.0, [0])]))
        assert cover.algorithm == "exact"
        assert cover.stats["nodes"] >= 1


class TestRegistry:
    def test_all_registered(self):
        assert set(SOLVERS) == {
            "greedy",
            "modified-greedy",
            "layer",
            "modified-layer",
            "exact",
            "exact-decomposed",
            "lp-rounding",
            "greedy+prune",
            "layer+prune",
        }

    def test_get_solver_by_name(self):
        assert get_solver("GREEDY", engine="object") is greedy_cover

    def test_get_solver_passthrough(self):
        assert get_solver(greedy_cover) is greedy_cover

    def test_get_solver_unknown(self):
        with pytest.raises(SetCoverError):
            get_solver("quantum")


class TestVerifyHelpers:
    def test_is_cover(self):
        instance = make(2, [(1.0, [0]), (1.0, [1])])
        assert is_cover(instance, [0, 1])
        assert not is_cover(instance, [0])

    def test_cover_weight_counts_each_set_once(self):
        instance = make(2, [(1.0, [0]), (2.0, [1])])
        assert cover_weight(instance, [0, 1, 1]) == 3.0

    def test_redundant_sets(self):
        instance = make(2, [(1.0, [0]), (1.0, [1]), (1.0, [0, 1])])
        assert redundant_sets(instance, [0, 1, 2]) == (0, 1)
        assert redundant_sets(instance, [2]) == ()
