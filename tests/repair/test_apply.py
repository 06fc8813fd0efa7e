"""Unit tests for cover -> repair construction (Definition 3.2)."""

from repro import build_repair_problem, is_consistent
from repro.repair.apply import apply_cover, merge_cover_fixes
from repro.setcover import exact_cover, greedy_cover
from repro.setcover.result import Cover


def _cover_of(problem, fix_keys):
    """Build a Cover selecting the sets matching (key, attribute, value)."""
    selected = []
    for target in fix_keys:
        for weighted_set in problem.setcover.sets:
            candidate = weighted_set.payload
            if (
                candidate.ref.key_values,
                candidate.attribute,
                candidate.new_value,
            ) == target:
                selected.append(weighted_set.set_id)
                break
        else:
            raise AssertionError(f"no set for {target}")
    weight = sum(problem.setcover.sets[i].weight for i in selected)
    return Cover(tuple(selected), weight, "manual")


class TestMergeAndApply:
    def test_single_fix_per_tuple(self, paper):
        problem = build_repair_problem(paper.instance, paper.constraints)
        cover = _cover_of(problem, [(("B1",), "ef", 0), (("C2",), "ef", 0)])
        repaired, changes, distance = apply_cover(problem, cover)
        assert repaired.get("Paper", ("B1",))["ef"] == 0
        assert repaired.get("Paper", ("C2",))["ef"] == 0
        assert distance == 2.0
        assert len(changes) == 2
        assert is_consistent(repaired, paper.constraints)

    def test_example_33_c2_combines_two_fixes_of_one_tuple(self, paper_pub):
        """Cover C2 of Example 3.3 merges t1^2 and t1^3 into t1^5=(B1,1,50,1)."""
        problem = build_repair_problem(paper_pub.instance, paper_pub.constraints)
        cover = _cover_of(
            problem,
            [
                (("B1",), "prc", 50),
                (("B1",), "cf", 1),
                (("C2",), "ef", 0),
                ((235,), "pag", 40),
            ],
        )
        repaired, changes, distance = apply_cover(problem, cover)
        assert repaired.get("Paper", ("B1",)).values == ("B1", 1, 50, 1)
        assert repaired.get("Pub", (235,))["pag"] == 40
        assert is_consistent(repaired, paper_pub.constraints)
        assert len(changes) == 4

    def test_example_33_c3(self, paper_pub):
        """Cover C3 combines t1^3 and t1^4 into t1^6=(B1,1,70,1); p1 untouched."""
        problem = build_repair_problem(paper_pub.instance, paper_pub.constraints)
        cover = _cover_of(
            problem,
            [
                (("B1",), "prc", 70),
                (("B1",), "cf", 1),
                (("C2",), "ef", 0),
            ],
        )
        repaired, _changes, _distance = apply_cover(problem, cover)
        assert repaired.get("Paper", ("B1",)).values == ("B1", 1, 70, 1)
        assert repaired.get("Pub", (235,))["pag"] == 45
        assert is_consistent(repaired, paper_pub.constraints)

    def test_same_attribute_subsumption(self, paper_pub):
        """Two fixes of one (tuple, attribute): the farther (prc=70) wins."""
        problem = build_repair_problem(paper_pub.instance, paper_pub.constraints)
        cover = _cover_of(
            problem,
            [
                (("B1",), "prc", 50),
                (("B1",), "prc", 70),
                (("B1",), "cf", 1),
                (("C2",), "ef", 0),
            ],
        )
        merged = merge_cover_fixes(problem, cover.selected)
        b1 = merged[problem.instance.get("Paper", ("B1",)).ref]
        assert b1["prc"].new_value == 70
        repaired, changes, distance = apply_cover(problem, cover)
        assert repaired.get("Paper", ("B1",))["prc"] == 70
        # distance reflects the APPLIED updates, not the cover weight:
        # the subsumed prc=50 fix contributes nothing.
        assert distance < cover.weight
        assert is_consistent(repaired, paper_pub.constraints)

    def test_original_instance_untouched(self, paper):
        problem = build_repair_problem(paper.instance, paper.constraints)
        cover = greedy_cover(problem.setcover)
        apply_cover(problem, cover)
        assert paper.instance.get("Paper", ("B1",))["ef"] == 1

    def test_changes_are_deterministic_and_sorted(self, paper):
        problem = build_repair_problem(paper.instance, paper.constraints)
        cover = exact_cover(problem.setcover)
        _, changes_a, _ = apply_cover(problem, cover)
        _, changes_b, _ = apply_cover(problem, cover)
        assert changes_a == changes_b
        refs = [c.ref for c in changes_a]
        assert refs == sorted(refs)
