"""``DatabaseInstance.insert_rows`` against a loop of ``insert(Tuple(...))``.

The bulk ingest checks once per column what the per-row path checks once
per cell.  These tests pin that it is observably the same: same resulting
instance (tuples, order, data versions) or the same exception type and
message for the first bad row - and, beyond the per-row loop, that a
raising call leaves the instance unchanged and that the cyclic GC comes
back in the state it was found.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Attribute,
    DatabaseInstance,
    InstanceError,
    KeyViolationError,
    Relation,
    Schema,
    SchemaError,
    Tuple,
)

SCHEMA = Schema(
    [
        # composite key, flexible columns on both sides of a hard one
        Relation(
            "R",
            [
                Attribute.hard("a"),
                Attribute.flexible("f"),
                Attribute.hard("b"),
                Attribute.hard("h"),
                Attribute.flexible("g"),
            ],
            key=["a", "b"],
        ),
        # single-column key, no flexible attribute
        Relation("S", [Attribute.hard("k"), Attribute.hard("v")], key=["k"]),
    ]
)

key_values = st.integers(0, 3) | st.sampled_from(["x", "y"])
hard_values = st.integers(-5, 5) | st.text(max_size=2) | st.none()
# mostly integers; bool is an int (accepted), the rest must be refused
flexible_values = st.one_of(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2),
    st.none(),
)


def _row(relation_name: str):
    if relation_name == "R":
        row = st.tuples(key_values, flexible_values, key_values, hard_values, flexible_values)
    else:
        row = st.tuples(key_values, hard_values)
    # wrong arity now and then: one cell short or one too many
    return row.map(list) | row.map(lambda r: list(r)[:-1]) | row.map(lambda r: [*r, 0])


@st.composite
def cases(draw):
    relation_name = draw(st.sampled_from(["R", "S"]))
    existing = draw(st.lists(_row(relation_name), max_size=4))
    batch = draw(st.lists(_row(relation_name), max_size=10))
    return relation_name, existing, batch


def _outcome(call):
    try:
        call()
    except Exception as error:
        return type(error), str(error)
    return None


def _base(relation_name: str, existing: list) -> DatabaseInstance:
    """An instance holding whichever ``existing`` rows insert cleanly."""
    instance = DatabaseInstance(SCHEMA)
    relation = SCHEMA.relation(relation_name)
    for row in existing:
        _outcome(lambda: instance.insert(Tuple(relation, row)))
    return instance


def _state(instance: DatabaseInstance):
    return [
        (name, instance.tuples(name), instance.data_version(name))
        for name in SCHEMA.relation_names
    ]


def _set_gc(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _per_row(instance: DatabaseInstance, relation_name: str, batch: list) -> None:
    relation = SCHEMA.relation(relation_name)
    for row in batch:
        instance.insert(Tuple(relation, row))


@pytest.mark.parametrize("gc_enabled", [True, False])
@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_insert_rows_matches_per_row_inserts(gc_enabled, case):
    relation_name, existing, batch = case
    reference = _base(relation_name, existing)
    bulk = _base(relation_name, existing)
    before = _state(bulk)

    expected = _outcome(lambda: _per_row(reference, relation_name, batch))
    was_enabled = gc.isenabled()
    _set_gc(gc_enabled)
    try:
        got = _outcome(lambda: bulk.insert_rows(relation_name, batch))
        assert gc.isenabled() is gc_enabled
    finally:
        _set_gc(was_enabled)

    assert got == expected
    if expected is None:
        assert bulk == reference
        assert _state(bulk) == _state(reference)
        for ours, theirs in zip(bulk.tuples(relation_name), reference.tuples(relation_name)):
            assert hash(ours) == hash(theirs)
            assert ours.ref == theirs.ref
    else:
        assert _state(bulk) == before


@given(case=cases())
@settings(max_examples=100, deadline=None)
def test_insert_rows_returns_column_types(case):
    relation_name, existing, batch = case
    instance = _base(relation_name, existing)
    try:
        column_types = instance.insert_rows(relation_name, batch)
    except InstanceError:
        return
    arity = SCHEMA.relation(relation_name).arity
    assert column_types == tuple(
        frozenset(type(row[position]) for row in batch) for position in range(arity)
    )


class TestInsertRows:
    def test_empty_batch(self):
        instance = DatabaseInstance(SCHEMA)
        assert instance.insert_rows("R", []) == (frozenset(),) * 5
        assert instance.count() == 0
        assert instance.data_version("R") == 0

    def test_accepts_any_iterable_of_iterables(self):
        instance = DatabaseInstance(SCHEMA)
        instance.insert_rows("S", ([k, "v"] for k in range(3)))
        assert [t.values for t in instance.tuples("S")] == [(0, "v"), (1, "v"), (2, "v")]
        assert instance.data_version("S") == 3

    def test_bool_is_an_integer(self):
        instance = DatabaseInstance(SCHEMA)
        instance.insert_rows("R", [(1, True, 1, None, False)])
        assert instance.get("R", (1, 1))["f"] is True

    def test_first_bad_row_wins_across_checks(self):
        # row 1 repeats row 0's key, row 2 has a float flexible value:
        # the duplicate comes first, as a row-by-row insert would find it.
        instance = DatabaseInstance(SCHEMA)
        rows = [(1, 1, 1, 1, 1), (1, 2, 1, 2, 2), (2, 1.5, 2, 2, 2)]
        with pytest.raises(KeyViolationError, match=r"duplicate key \(1, 1\)"):
            instance.insert_rows("R", rows)
        assert instance.count() == 0

    def test_flexible_check_beats_duplicate_in_the_same_row(self):
        instance = DatabaseInstance(SCHEMA)
        with pytest.raises(InstanceError, match=r"R\.g is flexible") as caught:
            instance.insert_rows("R", [(1, 1, 1, 1, 1), (1, 1, 1, 1, "x")])
        assert not isinstance(caught.value, KeyViolationError)

    def test_origin_prefixes_the_message(self):
        instance = DatabaseInstance(SCHEMA)
        instance.insert_rows("S", [(1, "a")])
        with pytest.raises(KeyViolationError, match=r"^data\.csv:7: duplicate key \(1,\)"):
            instance.insert_rows(
                "S", [(2, "b"), (1, "c")], origin=lambda index: f"data.csv:{6 + index}"
            )
        assert instance.count("S") == 1

    def test_unhashable_value_leaves_the_instance_unchanged(self):
        instance = DatabaseInstance(SCHEMA)
        instance.insert_rows("S", [(0, "a")])
        with pytest.raises(TypeError, match="unhashable"):
            instance.insert_rows("S", [(1, "b"), (2, ["c"])])
        assert [t.values for t in instance.tuples("S")] == [(0, "a")]
        assert instance.data_version("S") == 1

    @pytest.mark.parametrize("gc_enabled", [True, False])
    def test_large_batch_promotes_survivors_only_with_the_gc_on(self, gc_enabled):
        # Past the young generation's threshold, a GC that was on gets one
        # collection of generations 0 and 1; a GC that was off gets none.
        rows = [(k, "v") for k in range(gc.get_threshold()[0] + 1)]
        collected = []

        def record(phase, info):
            if phase == "start":
                collected.append(info["generation"])

        instance = DatabaseInstance(SCHEMA)
        was_enabled = gc.isenabled()
        _set_gc(gc_enabled)
        gc.collect()  # empty the young generation: no collection is due yet
        gc.callbacks.append(record)
        try:
            instance.insert_rows("S", rows)
        finally:
            gc.callbacks.remove(record)
            _set_gc(was_enabled)
        assert collected == ([1] if gc_enabled else [])

    def test_unknown_relation(self):
        with pytest.raises(SchemaError):
            DatabaseInstance(SCHEMA).insert_rows("T", [])

    def test_gc_restored_when_the_rows_iterable_raises(self):
        def rows():
            yield (1, "a")
            raise RuntimeError("source broke")

        instance = DatabaseInstance(SCHEMA)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="source broke"):
            instance.insert_rows("S", rows())
        assert gc.isenabled()
        assert instance.count() == 0


def test_relation_flexible_positions():
    relation = SCHEMA.relation("R")
    assert relation.flexible_positions == (1, 4)
    assert relation.flexible_attributes == (relation.attributes[1], relation.attributes[4])
    assert SCHEMA.relation("S").flexible_positions == ()
