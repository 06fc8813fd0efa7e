"""Unit tests for the workload generators."""

import pytest

from repro import inconsistency_profile, is_local_set
from repro.violations import find_all_violations
from repro.violations.degree import degree_of_database
from repro.workloads import (
    census_workload,
    client_buy_workload,
    deletion_example,
    paper_example,
    paper_pub_example,
)


class TestClientBuy:
    def test_deterministic_given_seed(self):
        a = client_buy_workload(30, seed=5)
        b = client_buy_workload(30, seed=5)
        assert a.instance == b.instance

    def test_different_seeds_differ(self):
        a = client_buy_workload(30, seed=5)
        b = client_buy_workload(30, seed=6)
        assert a.instance != b.instance

    def test_constraints_are_local(self):
        workload = client_buy_workload(10, seed=0)
        assert is_local_set(workload.constraints, workload.schema)

    def test_inconsistency_ratio_tracked(self):
        workload = client_buy_workload(400, inconsistency_ratio=0.3, seed=1)
        profile = inconsistency_profile(workload.instance, workload.constraints)
        assert 0.15 <= profile.inconsistent_ratio <= 0.45

    def test_zero_ratio_is_consistent(self):
        workload = client_buy_workload(100, inconsistency_ratio=0.0, seed=2)
        profile = inconsistency_profile(workload.instance, workload.constraints)
        assert profile.is_consistent

    def test_every_inconsistent_client_produces_a_violation(self):
        # ratio 1.0: all clients are minors with at least one bad purchase.
        workload = client_buy_workload(50, inconsistency_ratio=1.0, seed=3)
        profile = inconsistency_profile(workload.instance, workload.constraints)
        assert profile.per_constraint.get("ic1", 0) >= 50

    def test_degree_bounded_by_buys(self):
        workload = client_buy_workload(
            200, inconsistency_ratio=0.5, min_buys=1, max_buys=3, seed=4
        )
        violations = find_all_violations(workload.instance, workload.constraints)
        assert degree_of_database(violations) <= 3 + 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            client_buy_workload(0)
        with pytest.raises(ValueError):
            client_buy_workload(10, inconsistency_ratio=1.5)
        with pytest.raises(ValueError):
            client_buy_workload(10, min_buys=3, max_buys=2)

    def test_size_and_params_recorded(self):
        workload = client_buy_workload(20, seed=0)
        assert workload.size == len(workload.instance)
        assert workload.params["n_clients"] == 20
        assert "client-buy" in repr(workload)


class TestCensus:
    def test_deterministic_given_seed(self):
        assert (
            census_workload(20, seed=7).instance
            == census_workload(20, seed=7).instance
        )

    def test_constraints_are_local(self):
        workload = census_workload(10, seed=0)
        assert is_local_set(workload.constraints, workload.schema)

    def test_degree_bounded_by_household_size(self):
        workload = census_workload(100, household_size=4, dirty_ratio=0.5, seed=1)
        violations = find_all_violations(workload.instance, workload.constraints)
        assert degree_of_database(violations) <= 4 + 1

    def test_household_size_controls_tuple_count(self):
        workload = census_workload(10, household_size=5, seed=2)
        assert workload.instance.count("Person") == 50
        assert workload.instance.count("Household") == 10

    def test_clean_ratio_zero(self):
        workload = census_workload(50, dirty_ratio=0.0, seed=3)
        profile = inconsistency_profile(workload.instance, workload.constraints)
        assert profile.is_consistent

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            census_workload(0)
        with pytest.raises(ValueError):
            census_workload(10, household_size=0)
        with pytest.raises(ValueError):
            census_workload(10, dirty_ratio=-0.1)


class TestPaperDemos:
    def test_paper_example_shape(self):
        workload = paper_example()
        assert workload.instance.count("Paper") == 3
        assert len(workload.constraints) == 2

    def test_paper_pub_example_shape(self):
        workload = paper_pub_example()
        assert workload.instance.count("Pub") == 3
        assert len(workload.constraints) == 3
        assert workload.constraints[2].name == "ic3"

    def test_deletion_example_shape(self):
        workload = deletion_example()
        assert workload.instance.count("P") == 3
        assert workload.instance.count("T") == 1

    def test_weights_match_paper(self):
        schema = paper_pub_example().schema
        assert schema.weight("Paper", "ef") == 1.0
        assert schema.weight("Paper", "prc") == pytest.approx(1 / 20)
        assert schema.weight("Paper", "cf") == pytest.approx(1 / 2)
        assert schema.weight("Pub", "pag") == pytest.approx(1 / 10)
