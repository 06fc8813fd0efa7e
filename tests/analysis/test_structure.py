"""Unit tests for conflict-structure analysis."""

from repro import find_all_violations
from repro.analysis.structure import analyze_structure, conflict_graph
from repro.repair import build_repair_problem
from repro.setcover.decompose import decompose
from repro.workloads import census_workload


class TestConflictGraph:
    def test_paper_example_graph(self, paper_pub):
        violations = find_all_violations(paper_pub.instance, paper_pub.constraints)
        graph = conflict_graph(violations)
        # conflicting tuples: t1, t2, p1; one edge t1 - p1 (from ic3).
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 1

    def test_consistent_database_empty_graph(self):
        graph = conflict_graph(())
        assert graph.number_of_nodes() == 0


class TestAnalyzeStructure:
    def test_paper_example_structure(self, paper_pub):
        structure = analyze_structure(paper_pub.instance, paper_pub.constraints)
        assert structure.n_violations == 4
        assert structure.n_conflicting_tuples == 3
        assert structure.n_components == 2          # {t1, p1} and {t2}
        assert structure.largest_component == 2
        assert structure.max_degree == 3            # t1
        assert structure.violation_size_histogram == {1: 3, 2: 1}

    def test_consistent_database(self, paper_pub):
        from repro import DatabaseInstance

        consistent = DatabaseInstance.from_rows(
            paper_pub.schema,
            {"Paper": [("E3", 1, 70, 1)], "Pub": []},
        )
        structure = analyze_structure(consistent, paper_pub.constraints)
        assert structure.n_violations == 0
        assert structure.n_components == 0
        assert structure.max_degree == 0

    def test_component_count_matches_setcover_decomposition(self, small_clientbuy):
        """Conflict components and MWSCP components tell the same story.

        They need not be exactly equal (a fix can link two violation sets
        that share no tuple-pair edge... actually every fix belongs to one
        tuple, so set-cover components can only merge conflict components
        through shared violation sets - i.e. never), so the counts match.
        """
        structure = analyze_structure(
            small_clientbuy.instance, small_clientbuy.constraints
        )
        problem = build_repair_problem(
            small_clientbuy.instance, small_clientbuy.constraints
        )
        components = decompose(problem.setcover)
        assert structure.n_components == len(components)

    def test_census_component_sizes_bounded_by_household(self):
        workload = census_workload(50, household_size=4, dirty_ratio=0.5, seed=2)
        structure = analyze_structure(workload.instance, workload.constraints)
        # a conflict component lives inside one household: the household
        # tuple plus its members.
        assert structure.largest_component <= 4 + 1

    def test_precomputed_violations_accepted(self, paper_pub):
        violations = find_all_violations(paper_pub.instance, paper_pub.constraints)
        structure = analyze_structure(
            paper_pub.instance, paper_pub.constraints, violations=violations
        )
        assert structure.n_violations == len(violations)

    def test_summary_renders(self, paper_pub):
        text = analyze_structure(paper_pub.instance, paper_pub.constraints).summary()
        assert "degree of inconsistency" in text
        assert "components" in text
