"""Immutable database tuples and cross-instance tuple references.

A :class:`Tuple` is a ground atom ``R(c̄)`` (Section 2).  Tuples are
immutable: a repair never mutates a tuple in place, it *replaces* it with a
fixed version carrying the same key.  A :class:`TupleRef` names a tuple by
``(relation, key values)`` - the identity that is preserved across the
original instance and all of its repairs (the paper's ``t̄(k̄, R, D)``).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.exceptions import InstanceError
from repro.model.schema import Relation

# Distinct "not computed yet" marker for TupleRef._flat_key, whose computed
# value may legitimately be None.
_UNSET: Any = object()


def arity_error(relation: Relation, values: tuple[Any, ...]) -> InstanceError:
    """The error for a row whose length is not the relation's arity."""
    return InstanceError(
        f"tuple for {relation.name!r} has arity {len(values)}, "
        f"expected {relation.arity}"
    )


def flexible_error(relation: Relation, position: int, value: Any) -> InstanceError:
    """The error for a non-integer value in a flexible attribute."""
    attribute = relation.attributes[position]
    return InstanceError(
        f"{relation.name}.{attribute.name} is flexible and must be "
        f"an integer, got {value!r} ({type(value).__name__})"
    )


class Tuple:
    """An immutable tuple of a relation.

    Values are stored positionally (matching ``Relation.attributes``) and
    accessed by attribute name.  Flexible attributes must hold integers
    (the paper's domain for ``F`` is ℤ).
    """

    __slots__ = ("_relation", "_values", "_hash", "_ref")

    def __init__(self, relation: Relation, values: tuple[Any, ...] | list[Any]) -> None:
        values = tuple(values)
        if len(values) != relation.arity:
            raise arity_error(relation, values)
        for position in relation.flexible_positions:
            if not isinstance(values[position], int):
                raise flexible_error(relation, position, values[position])
        self._relation = relation
        self._values = values
        self._hash = hash((relation.name, values))
        self._ref: TupleRef | None = None

    @classmethod
    def _trusted(cls, relation: Relation, values: tuple[Any, ...]) -> "Tuple":
        """Build a tuple from values the caller has already validated.

        The bulk ingest (:meth:`DatabaseInstance.insert_rows`) checks
        arity and flexible integrality once per column; this skips the
        per-tuple re-check and nothing else (same fields, same hash).
        """
        tup = cls.__new__(cls)
        tup._relation = relation
        tup._values = values
        tup._hash = hash((relation.name, values))
        tup._ref = None
        return tup

    # -- accessors ----------------------------------------------------------

    @property
    def relation(self) -> Relation:
        """The relation this tuple belongs to."""
        return self._relation

    @property
    def values(self) -> tuple[Any, ...]:
        """Raw values in attribute declaration order."""
        return self._values

    def __getitem__(self, attribute_name: str) -> Any:
        """Value of the attribute called ``attribute_name``."""
        return self._values[self._relation.position(attribute_name)]

    def get(self, attribute_name: str, default: Any = None) -> Any:
        """Like :meth:`__getitem__` but returns ``default`` when missing."""
        if self._relation.has_attribute(attribute_name):
            return self[attribute_name]
        return default

    @property
    def key(self) -> tuple[Any, ...]:
        """Values of the primary-key attributes, in key order."""
        return tuple(self._values[i] for i in self._relation.key_positions)

    @property
    def ref(self) -> "TupleRef":
        """The cross-instance identity of this tuple (cached: both are immutable)."""
        ref = self._ref
        if ref is None:
            ref = self._ref = TupleRef(self._relation.name, self.key)
        return ref

    def as_dict(self) -> dict[str, Any]:
        """Mapping of attribute name -> value."""
        return dict(zip(self._relation.attribute_names, self._values))

    # -- derivation ---------------------------------------------------------

    def replace(self, updates: Mapping[str, Any] | None = None, **kwargs: Any) -> "Tuple":
        """Return a new tuple with some attributes changed.

        Key attributes cannot be changed (the repair identity of a tuple is
        its key); attempting to do so raises :class:`InstanceError`.
        """
        changes = dict(updates or {})
        changes.update(kwargs)
        if not changes:
            return self
        new_values = list(self._values)
        for name, value in changes.items():
            if self._relation.is_key_attribute(name):
                raise InstanceError(
                    f"cannot update key attribute {self._relation.name}.{name}"
                )
            new_values[self._relation.position(name)] = value
        return Tuple(self._relation, new_values)

    def changed_attributes(self, other: "Tuple") -> tuple[str, ...]:
        """Names of attributes on which ``self`` and ``other`` differ.

        Both tuples must belong to the same relation.
        """
        if other.relation.name != self._relation.name:
            raise InstanceError(
                f"cannot diff tuples of {self._relation.name!r} and "
                f"{other.relation.name!r}"
            )
        return tuple(
            name
            for name, a, b in zip(
                self._relation.attribute_names, self._values, other._values
            )
            if a != b
        )

    # -- protocol -----------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return (
            self._relation.name == other._relation.name
            and self._values == other._values
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self._values)
        return f"{self._relation.name}({inner})"


class TupleRef:
    """Identity of a tuple across database instances: ``(relation, key)``.

    Repairs preserve the set of key values of every relation (Definition
    2.1), so a ``TupleRef`` valid in ``D`` resolves in every repair of ``D``.
    """

    __slots__ = ("relation_name", "key_values", "_hash", "_sort_key", "_flat_key")

    def __init__(self, relation_name: str, key_values: tuple[Any, ...]) -> None:
        self.relation_name = relation_name
        self.key_values = tuple(key_values)
        self._hash = hash((relation_name, self.key_values))
        self._sort_key: tuple | None = None
        self._flat_key: str | None = _UNSET

    def __reduce__(self) -> tuple:
        # Rebuild from the public fields: the cache slots hold a process-local
        # sentinel that must not travel through pickle.
        return (TupleRef, (self.relation_name, self.key_values))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleRef):
            return NotImplemented
        return (
            self.relation_name == other.relation_name
            and self.key_values == other.key_values
        )

    def __lt__(self, other: "TupleRef") -> bool:
        return self.sort_key < other.sort_key

    @property
    def sort_key(self) -> tuple:
        """A total order robust to mixed-type key values.

        Values are tagged with their type name so keys like ``("B1",)`` and
        ``(235,)`` compare deterministically instead of raising TypeError.
        Computed once per ref: ordering passes over large violation sets hit
        this on every comparison.
        """
        key = self._sort_key
        if key is None:
            key = self._sort_key = (
                self.relation_name,
                tuple((type(v).__name__, str(v)) for v in self.key_values),
            )
        return key

    @property
    def flat_sort_key(self) -> str | None:
        """A single string whose ``<`` order equals :attr:`sort_key` order.

        :attr:`sort_key` is a nested tuple of strings; comparing two of them
        walks the structure element by element.  Joining the same components
        with NUL - strictly smaller than every character the components can
        contain - yields a flat string with the identical order (the usual
        separator argument: a component that is a strict prefix of another
        loses at the separator position).  The flattening is also injective,
        because refs with equal relation names render the same shape.  Hot
        ordering passes sort these at C speed instead of walking tuples.

        Returns ``None`` when some component does contain NUL (then no flat
        encoding is safe and callers must compare :attr:`sort_key` itself).
        """
        key = self._flat_key
        if key is _UNSET:
            parts = [self.relation_name]
            for value in self.key_values:
                parts.append(type(value).__name__)
                parts.append(str(value))
            key = None if any("\x00" in p for p in parts) else "\x00".join(parts)
            self._flat_key = key
        return key

    def __repr__(self) -> str:
        keys = ", ".join(repr(v) for v in self.key_values)
        return f"TupleRef({self.relation_name}[{keys}])"
