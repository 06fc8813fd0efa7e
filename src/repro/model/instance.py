"""Database instances: key-indexed collections of tuples per relation.

A :class:`DatabaseInstance` is the paper's ``D``: a finite collection of
ground atoms over a :class:`~repro.model.schema.Schema`.  The instance
enforces the standing assumption ``D |= K`` (primary keys hold) at insert
time - key violations in the *input* are schema errors, not inconsistencies
handled by the repair algorithms.
"""

from __future__ import annotations

import gc
from itertools import islice, repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.exceptions import InstanceError, KeyViolationError
from repro.model.schema import Relation, Schema
from repro.model.tuples import Tuple, TupleRef, arity_error, flexible_error


def _duplicate_key_error(relation_name: str, key: tuple[Any, ...]) -> KeyViolationError:
    return KeyViolationError(f"duplicate key {key!r} in relation {relation_name!r}")


class DatabaseInstance:
    """A finite database instance over a schema.

    Tuples are indexed by their primary key per relation, giving O(1)
    lookup of ``t̄(k̄, R, D)`` - the operation the repair construction of
    Definition 3.2 performs for every fix.
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._tables: dict[str, dict[tuple[Any, ...], Tuple]] = {
            r.name: {} for r in schema
        }
        # Per-relation mutation counters.  Derived read-optimized views
        # (the columnar snapshots of :mod:`repro.model.columnar`) key their
        # caches on these, so any insert/replace/delete invalidates exactly
        # the relation it touched.
        self._versions: dict[str, int] = {r.name: 0 for r in schema}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Mapping[str, Iterable[Iterable[Any]]],
    ) -> "DatabaseInstance":
        """Build an instance from ``{relation_name: [row, ...]}`` mappings."""
        instance = cls(schema)
        for relation_name, relation_rows in rows.items():
            instance.insert_rows(relation_name, relation_rows)
        return instance

    def insert(self, tup: Tuple) -> None:
        """Insert a tuple; raises :class:`KeyViolationError` on duplicate key."""
        table = self._table(tup.relation.name)
        key = tup.key
        if key in table:
            raise _duplicate_key_error(tup.relation.name, key)
        table[key] = tup
        self._versions[tup.relation.name] += 1

    def insert_rows(
        self,
        relation_name: str,
        rows: Iterable[Iterable[Any]],
        origin: Callable[[int], str] | None = None,
    ) -> tuple[frozenset[type], ...]:
        """Insert a batch of raw rows into one relation: the bulk ingest path.

        Equivalent to ``insert(Tuple(relation, row))`` for each row in
        order: the same checks (arity, flexible ⇒ integer, duplicate key
        within the batch and against present rows), the same exception
        type and message for the first bad row, and the same resulting
        tuples, order and :meth:`data_version`.  The checks run once per
        column rather than once per cell, and the call is atomic: when it
        raises, the instance is unchanged.

        ``origin`` maps the index of a row in ``rows`` to a location (such
        as ``path:line``) that prefixes the error message; it is used for
        error reporting only.

        Returns the set of value types of each column, in attribute order,
        so a loader can derive per-column verdicts (all-integer, NULL-free)
        without a second pass over the cells.

        The cyclic GC is paused for the call and its previous state
        restored afterwards: everything the ingest allocates survives it,
        so a collection there would only re-scan the new tuples.  When
        the GC was on and the batch is larger than the young generation's
        threshold, one collection of the two younger generations then
        moves the new objects to the old one.
        """
        relation = self._schema.relation(relation_name)
        table = self._table(relation_name)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            batch = list(map(tuple, rows))
            column_types, failure = _check_cells(relation, batch)
            if failure is None and (
                not table or table.keys().isdisjoint(_keys(relation, batch))
            ):
                size = len(table)
                inserted = False
                try:
                    table.update(
                        zip(_keys(relation, batch), map(Tuple._trusted, repeat(relation), batch))
                    )
                    inserted = len(table) == size + len(batch)
                finally:
                    # No batch key was present before, so the batch's
                    # entries are the newest: popping back to the old size
                    # undoes a failed update or a key repeated in the batch.
                    while not inserted and len(table) > size:
                        table.popitem()
                if inserted:
                    self._versions[relation_name] += len(batch)
                    threshold = gc.get_threshold()[0]
                    if gc_was_enabled and 0 < threshold < len(batch):
                        # The batch outgrew the young generation, so a young
                        # collection is due as soon as the GC is back on, and
                        # a middle-generation one soon after; collecting both
                        # now moves the survivors to the old generation in
                        # one traversal instead of two.
                        gc.collect(1)
                    return column_types
            index, error = _first_duplicate(relation, batch, table, failure)
            if origin is not None:
                error = type(error)(f"{origin(index)}: {error}")
            raise error
        finally:
            if gc_was_enabled:
                gc.enable()

    def insert_row(self, relation_name: str, row: Iterable[Any]) -> Tuple:
        """Convenience: build and insert a tuple from raw values."""
        tup = Tuple(self._schema.relation(relation_name), tuple(row))
        self.insert(tup)
        return tup

    # -- lookups -------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema this instance conforms to."""
        return self._schema

    def _table(self, relation_name: str) -> dict[tuple[Any, ...], Tuple]:
        try:
            return self._tables[relation_name]
        except KeyError:
            raise InstanceError(
                f"instance has no relation {relation_name!r}"
            ) from None

    def tuples(self, relation_name: str) -> tuple[Tuple, ...]:
        """All tuples of one relation (insertion order)."""
        return tuple(self._table(relation_name).values())

    def all_tuples(self) -> Iterator[Tuple]:
        """Iterate over every tuple of every relation."""
        for table in self._tables.values():
            yield from table.values()

    def get(self, relation_name: str, key: tuple[Any, ...]) -> Tuple:
        """``t̄(k̄, R, D)``: the unique tuple of ``R`` with key ``k̄``."""
        try:
            return self._table(relation_name)[tuple(key)]
        except KeyError:
            raise InstanceError(
                f"no tuple with key {key!r} in relation {relation_name!r}"
            ) from None

    def resolve(self, ref: TupleRef) -> Tuple:
        """Resolve a :class:`TupleRef` in this instance."""
        return self.get(ref.relation_name, ref.key_values)

    def __contains__(self, tup: Tuple) -> bool:
        table = self._tables.get(tup.relation.name)
        if table is None:
            return False
        stored = table.get(tup.key)
        return stored == tup

    def contains_key(self, relation_name: str, key: tuple[Any, ...]) -> bool:
        """True when the relation holds a tuple with the given key."""
        return tuple(key) in self._table(relation_name)

    def count(self, relation_name: str | None = None) -> int:
        """Number of tuples in one relation, or in the whole instance."""
        if relation_name is not None:
            return len(self._table(relation_name))
        return sum(len(t) for t in self._tables.values())

    def __len__(self) -> int:
        return self.count()

    def key_values(self, relation_name: str) -> set[tuple[Any, ...]]:
        """The set ``val(K_R)`` of key-value tuples of a relation."""
        return set(self._table(relation_name))

    def data_version(self, relation_name: str) -> int:
        """Mutation counter of one relation.

        Increments on every insert, replace, and delete touching the
        relation; never decreases.  Cached derived structures (columnar
        snapshots, future index layers) compare it against the version
        they were built at to decide whether a rebuild is due.
        """
        self._table(relation_name)          # validate the name
        return self._versions[relation_name]

    # -- mutation ------------------------------------------------------------

    def replace_tuple(self, new_tuple: Tuple) -> Tuple:
        """Replace the tuple sharing ``new_tuple``'s key; return the old one.

        This is the primitive a repair applies: same relation, same key,
        updated flexible attributes.
        """
        table = self._table(new_tuple.relation.name)
        key = new_tuple.key
        if key not in table:
            raise InstanceError(
                f"cannot replace: no tuple with key {key!r} in "
                f"{new_tuple.relation.name!r}"
            )
        old = table[key]
        table[key] = new_tuple
        self._versions[new_tuple.relation.name] += 1
        return old

    def delete(self, relation_name: str, key: tuple[Any, ...]) -> Tuple:
        """Remove and return the tuple with the given key."""
        table = self._table(relation_name)
        try:
            removed = table.pop(tuple(key))
        except KeyError:
            raise InstanceError(
                f"cannot delete: no tuple with key {key!r} in {relation_name!r}"
            ) from None
        self._versions[relation_name] += 1
        return removed

    def copy(self) -> "DatabaseInstance":
        """Shallow copy (tuples are immutable, so sharing them is safe).

        The copy is a fresh object: it does not inherit a pushdown
        backend binding (see :mod:`repro.violations.pushdown`) - copies
        are about to diverge from the backend-resident image.
        """
        clone = DatabaseInstance(self._schema)
        for name, table in self._tables.items():
            clone._tables[name] = dict(table)
        return clone

    def __getstate__(self) -> dict[str, Any]:
        """Pickle without the pushdown backend binding.

        The binding (:mod:`repro.violations.pushdown`) holds a weak
        reference to a live database connection; neither survives pickling,
        so the unpickled instance is simply not backend-resident and
        detection falls back to the in-memory engines.
        """
        state = self.__dict__.copy()
        state.pop("_pushdown_binding", None)
        return state

    # -- comparison ----------------------------------------------------------

    def same_key_sets(self, other: "DatabaseInstance") -> bool:
        """True when both instances have identical ``val(K_R)`` per relation.

        This is the precondition for the Δ-distance of Definition 2.1 to be
        defined between the two instances.
        """
        if set(self._tables) != set(other._tables):
            return False
        return all(
            set(self._tables[name]) == set(other._tables[name])
            for name in self._tables
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseInstance):
            return NotImplemented
        return self._schema == other._schema and self._tables == other._tables

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}:{len(t)}" for n, t in self._tables.items())
        return f"DatabaseInstance({sizes})"

    # -- display -------------------------------------------------------------

    def to_text(self) -> str:
        """Human-readable dump used by the text-export mode and examples."""
        lines: list[str] = []
        for relation in self._schema:
            table = self._tables[relation.name]
            lines.append(f"-- {relation.name}({', '.join(relation.attribute_names)})")
            for tup in table.values():
                lines.append("   " + ", ".join(str(v) for v in tup.values))
        return "\n".join(lines)


def _keys(relation: Relation, batch: list[tuple[Any, ...]]) -> Iterator[tuple[Any, ...]]:
    """The key of each row, zipped from the key columns."""
    return zip(*[map(itemgetter(p), batch) for p in relation.key_positions])


def _check_cells(
    relation: Relation, batch: list[tuple[Any, ...]]
) -> tuple[tuple[frozenset[type], ...], tuple[int, InstanceError] | None]:
    """Arity and flexible ⇒ integer checks of :meth:`DatabaseInstance.insert_rows`.

    Returns the type set of each column (over the rows before the first
    failure) and the first failing ``(row index, error)``, or ``None``.
    A row-by-row insert's order decides: the lowest row index wins, and
    within a row arity beats the flexible attributes, which are checked
    in declaration order.
    """
    failure: tuple[int, InstanceError] | None = None
    arity = relation.arity
    if set(map(len, batch)) - {arity}:
        end = next(i for i, values in enumerate(batch) if len(values) != arity)
        failure = (end, arity_error(relation, batch[end]))
        batch = batch[:end]
    column_types = tuple(
        frozenset(map(type, map(itemgetter(position), batch)))
        for position in range(arity)
    )
    for position in relation.flexible_positions:
        if column_types[position] <= {int}:
            continue
        end = len(batch) if failure is None else failure[0]
        for index, values in enumerate(islice(batch, end)):
            if not isinstance(values[position], int):
                failure = (index, flexible_error(relation, position, values[position]))
                break
    return column_types, failure


def _first_duplicate(
    relation: Relation,
    batch: list[tuple[Any, ...]],
    table: Mapping[tuple[Any, ...], Tuple],
    failure: tuple[int, InstanceError] | None,
) -> tuple[int, InstanceError]:
    """The first failing row once duplicate keys are taken into account.

    A duplicate key - against ``table`` or an earlier row - fails its row
    only when it comes before ``failure``, the first arity or flexible
    failure: within a row, those checks run before the key is looked up.
    """
    end = len(batch) if failure is None else failure[0]
    seen: set[tuple[Any, ...]] = set()
    for index, key in enumerate(islice(_keys(relation, batch), end)):
        if key in table or key in seen:
            return index, _duplicate_key_error(relation.name, key)
        seen.add(key)
    if failure is None:
        raise AssertionError("insert_rows found a duplicate key it cannot locate")
    return failure
