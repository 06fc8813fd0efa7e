"""Tests for consistent query answering over the repair set."""

import pytest

from repro import ConstraintParseError, ReproError
from repro.cqa import consistent_answers, parse_query


class TestParseQuery:
    def test_head_and_body(self):
        query = parse_query("q(id, p) :- Buy(id, i, p), Client(id, a, c), a < 18")
        assert query.head == ("id", "p")
        assert len(query.body.relation_atoms) == 2
        assert len(query.body.builtins) == 1

    def test_full_form(self):
        query = parse_query("minors(id) :- Client(id, a, c), a < 18")
        assert query.name == "minors"
        assert query.head == ("id",)
        assert len(query.body.relation_atoms) == 1

    def test_boolean_query_without_head(self):
        query = parse_query("Client(id, a, c), a < 18")
        assert query.head == ()

    def test_head_variable_must_occur_in_body(self):
        with pytest.raises(ConstraintParseError):
            parse_query("q(zz) :- Client(id, a, c)")

    def test_malformed_head(self):
        with pytest.raises(ConstraintParseError):
            parse_query("q x :- Client(id, a, c)")

    def test_str_roundtrip_shape(self):
        query = parse_query("q(id) :- Client(id, a, c), a < 18")
        assert str(query).startswith("q(id) :- Client(id, a, c)")


class TestEvaluate:
    def test_projection_and_join(self, paper_pub):
        query = parse_query("q(x, z) :- Pub(x, y, z), Paper(y, u, v, w)")
        rows = query.evaluate(paper_pub.instance)
        assert (235, 45) in rows
        assert len(rows) == 3

    def test_builtin_filter(self, paper):
        query = parse_query("q(x) :- Paper(x, y, z, w), z < 50")
        assert query.evaluate(paper.instance) == {("B1",), ("C2",)}

    def test_boolean_query(self, paper):
        query = parse_query("Paper(x, y, z, w), z < 50")
        assert query.evaluate(paper.instance) == {()}
        empty = parse_query("Paper(x, y, z, w), z < -1")
        assert empty.evaluate(paper.instance) == frozenset()


class TestConsistentAnswers:
    def test_update_semantics_on_example_23(self, paper):
        """Which papers are environmentally friendly, consistently?

        E3 is EF in both repairs; B1 is EF only in D2; C2 in neither.
        """
        query = parse_query("q(x) :- Paper(x, y, z, w), y > 0")
        answers = consistent_answers(paper.instance, paper.constraints, query)
        assert answers.n_repairs == 2
        assert answers.certain == (("E3",),)
        assert set(answers.possible) == {("E3",), ("B1",)}
        assert answers.disputed == (("B1",),)

    def test_hard_attributes_always_certain(self, paper):
        query = parse_query("q(x) :- Paper(x, y, z, w)")
        answers = consistent_answers(paper.instance, paper.constraints, query)
        assert set(answers.certain) == {("B1",), ("C2",), ("E3",)}
        assert answers.disputed == ()

    def test_delete_semantics_on_example_54(self, deletion_demo):
        query = parse_query("q(x) :- P(x, y)")
        answers = consistent_answers(
            deletion_demo.instance,
            deletion_demo.constraints,
            query,
            semantics="delete",
        )
        assert answers.n_repairs == 4
        # key 1 survives in every repair (as P(1,b) or P(1,c)); key 2 only
        # in D3/D4.
        assert answers.certain == ((1,),)
        assert answers.disputed == ((2,),)

    def test_consistent_database_certain_equals_plain(self, paper):
        from repro import DatabaseInstance

        consistent = DatabaseInstance.from_rows(
            paper.schema, {"Paper": [("E3", 1, 70, 1)]}
        )
        query = parse_query("q(x) :- Paper(x, y, z, w), y > 0")
        answers = consistent_answers(consistent, paper.constraints, query)
        assert answers.certain == answers.possible == (("E3",),)
        assert answers.n_repairs == 1

    def test_unknown_semantics_rejected(self, paper):
        query = parse_query("q(x) :- Paper(x, y, z, w)")
        with pytest.raises(ReproError):
            consistent_answers(
                paper.instance, paper.constraints, query, semantics="magic"
            )

    def test_summary_renders(self, paper):
        query = parse_query("q(x) :- Paper(x, y, z, w), y > 0")
        answers = consistent_answers(paper.instance, paper.constraints, query)
        text = answers.summary()
        assert "certain" in text and "disputed" in text
