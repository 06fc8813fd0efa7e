"""Unit tests for connected-component decomposition of set-cover instances."""

import pytest

from repro.setcover import (
    SetCoverInstance,
    component_size_histogram,
    decompose,
    exact_cover,
    exact_decomposed_cover,
    greedy_cover,
    is_cover,
    modified_greedy_cover,
    solve_by_components,
)


def make(n, collections):
    return SetCoverInstance.from_collections(n, collections)


@pytest.fixture
def two_components():
    # component A: elements {0,1}; component B: elements {2,3,4}.
    return make(
        5,
        [
            (1.0, [0, 1]),
            (0.6, [0]),
            (0.6, [1]),
            (2.0, [2, 3, 4]),
            (0.5, [3]),
            (1.5, [2, 4]),
        ],
    )


class TestDecompose:
    def test_component_count_and_membership(self, two_components):
        components = decompose(two_components)
        assert len(components) == 2
        assert components[0].element_ids == (0, 1)
        assert components[1].element_ids == (2, 3, 4)
        assert components[0].set_ids == (0, 1, 2)
        assert components[1].set_ids == (3, 4, 5)

    def test_local_ids_are_consistent(self, two_components):
        components = decompose(two_components)
        component = components[1]
        local_set = component.instance.sets[2]     # original set 5: {2,4}
        original_elements = {
            component.element_ids[e] for e in local_set.elements
        }
        assert original_elements == {2, 4}
        assert component.set_ids[2] == 5

    def test_payloads_preserved(self):
        instance = SetCoverInstance.from_collections(
            1, [(1.0, [0])], payloads=["fix"]
        )
        (component,) = decompose(instance)
        assert component.instance.sets[0].payload == "fix"

    def test_fully_connected_is_one_component(self):
        instance = make(3, [(1.0, [0, 1]), (1.0, [1, 2])])
        assert len(decompose(instance)) == 1

    def test_singletons_are_their_own_components(self):
        instance = make(3, [(1.0, [0]), (1.0, [1]), (1.0, [2])])
        assert len(decompose(instance)) == 3

    def test_empty_sets_dropped(self):
        instance = make(1, [(1.0, [0]), (5.0, [])])
        (component,) = decompose(instance)
        assert component.set_ids == (0,)

    def test_empty_instance(self):
        assert decompose(make(0, [])) == ()

    def test_interleaved_sets_keep_relative_order(self):
        """Sets of different components interleaved in set order land in
        their own component, in original order, with local ids 0..k."""
        instance = make(
            4,
            [
                (1.0, [2, 3]),   # component {2,3}
                (2.0, [0]),      # component {0,1}
                (3.0, [3]),
                (4.0, [1, 0]),
                (5.0, [2]),
                (6.0, [1]),
            ],
        )
        first, second = decompose(instance)
        assert first.element_ids == (0, 1)
        assert first.set_ids == (1, 3, 5)
        assert [s.set_id for s in first.instance.sets] == [0, 1, 2]
        assert [s.weight for s in first.instance.sets] == [2.0, 4.0, 6.0]
        assert [s.elements for s in first.instance.sets] == [(0,), (1, 0), (1,)]
        assert second.element_ids == (2, 3)
        assert second.set_ids == (0, 2, 4)
        assert [s.elements for s in second.instance.sets] == [(0, 1), (1,), (0,)]

    def test_histogram(self, two_components):
        components = decompose(two_components)
        assert component_size_histogram(components) == {2: 1, 3: 1}


class TestSolveByComponents:
    def test_matches_monolithic_greedy(self, two_components):
        whole = greedy_cover(two_components)
        split = solve_by_components(two_components, greedy_cover)
        assert sorted(split.selected) == sorted(whole.selected)
        assert split.weight == pytest.approx(whole.weight)

    def test_matches_monolithic_exact(self, two_components):
        whole = exact_cover(two_components)
        split = solve_by_components(two_components, exact_cover)
        assert split.weight == pytest.approx(whole.weight)
        assert is_cover(two_components, split.selected)

    def test_oversized_fallback(self, two_components):
        cover = solve_by_components(
            two_components,
            exact_cover,
            max_component_elements=2,
            fallback=modified_greedy_cover,
        )
        assert is_cover(two_components, cover.selected)
        assert cover.stats["oversized_components"] == 1

    def test_oversized_without_fallback_raises(self, two_components):
        with pytest.raises(ValueError):
            solve_by_components(
                two_components, exact_cover, max_component_elements=2
            )

    def test_component_stats(self, two_components):
        cover = solve_by_components(two_components, greedy_cover)
        assert cover.stats["components"] == 2

    def test_stats_merged_across_components(self, two_components):
        """Numeric per-component solver stats sum; iterations accumulate."""
        per_component = [
            greedy_cover(c.instance) for c in decompose(two_components)
        ]
        merged = solve_by_components(two_components, greedy_cover)
        assert merged.iterations == sum(c.iterations for c in per_component)
        for key in per_component[0].stats:
            assert merged.stats[key] == pytest.approx(
                sum(float(c.stats[key]) for c in per_component)
            )

    def test_algorithm_label_names_solver(self, two_components):
        cover = solve_by_components(two_components, greedy_cover)
        assert cover.algorithm == "by-components(greedy_cover)"

    def test_algorithm_label_names_fallback(self, two_components):
        cover = solve_by_components(
            two_components,
            exact_cover,
            max_component_elements=2,
            fallback=modified_greedy_cover,
        )
        assert cover.algorithm == (
            "by-components(exact_cover, fallback=modified_greedy_cover)"
        )

    def test_fallback_unused_keeps_plain_label(self, two_components):
        cover = solve_by_components(
            two_components,
            exact_cover,
            max_component_elements=100,
            fallback=modified_greedy_cover,
        )
        assert cover.algorithm == "by-components(exact_cover)"
        assert cover.stats["oversized_components"] == 0


class TestDecomposeAdversarial:
    def test_decompose_is_deterministic(self):
        import random

        rng = random.Random(7)
        collections = []
        for _ in range(40):
            size = rng.randint(0, 4)   # includes empty sets
            collections.append(
                (1.0, rng.sample(range(30), size))
            )
        # every element needs some cover for solving, not for decompose
        instance = make(30, collections)
        first = decompose(instance)
        second = decompose(instance)
        assert [c.element_ids for c in first] == [c.element_ids for c in second]
        assert [c.set_ids for c in first] == [c.set_ids for c in second]
        # components are emitted in order of their smallest element.
        firsts = [c.element_ids[0] for c in first]
        assert firsts == sorted(firsts)

    def test_spanning_set_merges_would_be_components(self):
        # {0,1} and {2,3} would be two components; the set {1,2} bridges
        # them, so union-find must produce a single component of all four.
        instance = make(
            4,
            [
                (1.0, [0, 1]),
                (1.0, [2, 3]),
                (1.0, [1, 2]),
            ],
        )
        (component,) = decompose(instance)
        assert component.element_ids == (0, 1, 2, 3)
        assert component.set_ids == (0, 1, 2)

    def test_spanning_set_solved_as_one_unit(self):
        # without the bridge, two singleton-ish covers; with it, the
        # optimum uses the cheap spanning sets - decomposed solving must
        # find the same optimum as the monolithic exact solver.
        instance = make(
            4,
            [
                (1.0, [0, 1]),
                (1.0, [2, 3]),
                (0.1, [1, 2]),
                (5.0, [0]),
                (5.0, [3]),
            ],
        )
        split = solve_by_components(instance, exact_cover)
        whole = exact_cover(instance)
        assert split.weight == pytest.approx(whole.weight)
        assert sorted(split.selected) == sorted(whole.selected)

    def test_empty_sets_do_not_join_components(self):
        # an empty set touches no element, so it must neither appear in a
        # component nor accidentally merge the two real components.
        instance = make(
            2,
            [(1.0, [0]), (9.0, []), (1.0, [1])],
        )
        components = decompose(instance)
        assert len(components) == 2
        assert all(1 not in c.set_ids for c in components)
        cover = solve_by_components(instance, greedy_cover)
        assert is_cover(instance, cover.selected)
        assert 1 not in cover.selected

    def test_all_singleton_components(self):
        instance = make(6, [(float(i + 1), [i]) for i in range(6)])
        components = decompose(instance)
        assert len(components) == 6
        cover = solve_by_components(instance, modified_greedy_cover)
        assert sorted(cover.selected) == list(range(6))
        assert cover.weight == pytest.approx(sum(range(1, 7)))
        assert cover.stats["components"] == 6

    def test_uncoverable_component_surfaces_solver_error(self):
        # element 2 is in no set: the component solver must raise, and
        # decomposition must not mask it.
        from repro.exceptions import UncoverableError

        instance = make(3, [(1.0, [0, 1])])
        with pytest.raises(UncoverableError):
            solve_by_components(instance, greedy_cover)


class TestExactDecomposedSolver:
    def test_optimal_on_clustered_repair_problem(self, small_clientbuy):
        from repro import repair_database

        result = repair_database(
            small_clientbuy.instance,
            small_clientbuy.constraints,
            algorithm="exact-decomposed",
        )
        approx = repair_database(
            small_clientbuy.instance,
            small_clientbuy.constraints,
            algorithm="modified-greedy",
        )
        assert result.verified
        assert result.cover_weight <= approx.cover_weight + 1e-9

    def test_randomized_equivalence_with_exact(self):
        import random

        for seed in range(6):
            rng = random.Random(seed)
            # build several disjoint blocks to force components.
            collections = []
            base = 0
            for _ in range(rng.randint(2, 4)):
                size = rng.randint(2, 5)
                elements = list(range(base, base + size))
                collections.append((float(rng.randint(1, 9)), elements))
                for e in elements:
                    collections.append((float(rng.randint(1, 9)), [e]))
                base += size
            instance = make(base, collections)
            assert exact_decomposed_cover(instance).weight == pytest.approx(
                exact_cover(instance).weight
            )
