"""Schema definitions: attributes, relations, and the database schema.

Mirrors Section 2 of the paper.  A schema is ``Σ = (U, R ∪ B, A)`` where
``R`` is the set of database predicates and each relation ``R`` has an
attribute list ``A_R``, a primary key ``K_R ⊆ A_R``, and a subset of
*flexible* attributes ``F ∩ A_R`` that the repair process may update.
Flexible attributes take values in ℤ and carry a numerical weight ``α_A``
used by the Δ-distance (Definition 2.1).  Key attributes are always hard
(``F ∩ K_R = ∅``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.exceptions import SchemaError


class AttributeRole(enum.Enum):
    """Whether the repair process may modify an attribute.

    ``HARD`` attributes are never changed by a repair (Definition 2.2
    condition (b)); ``FLEXIBLE`` attributes are the members of the set ``F``
    and must hold integer values.
    """

    HARD = "hard"
    FLEXIBLE = "flexible"


@dataclass(frozen=True)
class Attribute:
    """A named attribute of a relation.

    Parameters
    ----------
    name:
        Attribute name, unique within its relation.
    role:
        :class:`AttributeRole.FLEXIBLE` if the attribute belongs to the set
        ``F`` of updatable numerical attributes, else
        :class:`AttributeRole.HARD`.
    weight:
        The repair weight ``α_A`` of Definition 2.1.  Only meaningful for
        flexible attributes; must be positive.
    """

    name: str
    role: AttributeRole = AttributeRole.HARD
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid attribute name: {self.name!r}")
        if self.name[0].isdigit():
            raise SchemaError(f"attribute name may not start with a digit: {self.name!r}")
        if self.weight <= 0:
            raise SchemaError(
                f"attribute {self.name!r}: weight must be positive, got {self.weight}"
            )

    @property
    def is_flexible(self) -> bool:
        """True when the attribute belongs to the flexible set ``F``."""
        return self.role is AttributeRole.FLEXIBLE

    @staticmethod
    def hard(name: str) -> "Attribute":
        """Shorthand constructor for a hard attribute."""
        return Attribute(name, AttributeRole.HARD)

    @staticmethod
    def flexible(name: str, weight: float = 1.0) -> "Attribute":
        """Shorthand constructor for a flexible attribute with weight ``α``."""
        return Attribute(name, AttributeRole.FLEXIBLE, weight)


@dataclass(frozen=True)
class Relation:
    """A relation (predicate) ``R`` with attributes ``A_R`` and key ``K_R``.

    Invariants enforced at construction time:

    * attribute names are unique;
    * every key attribute exists;
    * the relation has at least one key attribute (the paper assumes each
      relation has a primary key satisfied by the input instance);
    * no key attribute is flexible (``F ∩ K_R = ∅``).
    """

    name: str
    attributes: tuple[Attribute, ...]
    key: tuple[str, ...]
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False, hash=False)
    _key_positions: tuple[int, ...] = field(
        init=False, repr=False, compare=False, hash=False
    )
    _flexible_positions: tuple[int, ...] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute | str],
        key: Iterable[str],
    ) -> None:
        attrs = tuple(
            a if isinstance(a, Attribute) else Attribute.hard(a) for a in attributes
        )
        key_names = tuple(key)
        if not name or not name.replace("_", "").isalnum():
            raise SchemaError(f"invalid relation name: {name!r}")
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation {name!r} has duplicate attribute names: {names}")
        if not key_names:
            raise SchemaError(f"relation {name!r} must declare a primary key")
        index = {a.name: i for i, a in enumerate(attrs)}
        for k in key_names:
            if k not in index:
                raise SchemaError(f"relation {name!r}: key attribute {k!r} does not exist")
            if attrs[index[k]].is_flexible:
                raise SchemaError(
                    f"relation {name!r}: key attribute {k!r} cannot be flexible "
                    "(the paper requires F ∩ K_R = ∅)"
                )
        if len(set(key_names)) != len(key_names):
            raise SchemaError(f"relation {name!r} has duplicate key attributes: {key_names}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "key", key_names)
        object.__setattr__(self, "_index", index)
        object.__setattr__(
            self, "_key_positions", tuple(index[k] for k in key_names)
        )
        object.__setattr__(
            self,
            "_flexible_positions",
            tuple(i for i, a in enumerate(attrs) if a.is_flexible),
        )

    # -- lookups -----------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of attributes of the relation."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(a.name for a in self.attributes)

    def has_attribute(self, name: str) -> bool:
        """True if the relation declares an attribute called ``name``."""
        return name in self._index

    def attribute(self, name: str) -> Attribute:
        """Return the :class:`Attribute` named ``name``.

        Raises :class:`SchemaError` if it does not exist.
        """
        try:
            return self.attributes[self._index[name]]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {name!r}"
            ) from None

    def position(self, name: str) -> int:
        """Return the 0-based position of attribute ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {name!r}"
            ) from None

    @property
    def flexible_attributes(self) -> tuple[Attribute, ...]:
        """The flexible attributes (``F ∩ A_R``) in declaration order."""
        return tuple(self.attributes[i] for i in self._flexible_positions)

    @property
    def flexible_positions(self) -> tuple[int, ...]:
        """Positions of the flexible attributes, in declaration order.

        Computed once at construction: tuple validation reads it for every
        tuple built, so it must not re-derive roles attribute by attribute.
        """
        return self._flexible_positions

    @property
    def key_positions(self) -> tuple[int, ...]:
        """Positions of the key attributes in declaration order of the key."""
        return self._key_positions

    def is_key_attribute(self, name: str) -> bool:
        """True if ``name`` belongs to the primary key ``K_R``."""
        return name in self.key

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, self.key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.key == other.key
        )


class Schema:
    """A database schema: a named collection of :class:`Relation` objects.

    The schema is the single source of truth for attribute roles and repair
    weights; instances, constraints, and repair algorithms all consult it.
    """

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        self._relations: dict[str, Relation] = {}
        for relation in relations:
            self.add(relation)

    def add(self, relation: Relation) -> None:
        """Register ``relation``; rejects duplicate names."""
        if relation.name in self._relations:
            raise SchemaError(f"duplicate relation name: {relation.name!r}")
        self._relations[relation.name] = relation

    def relation(self, name: str) -> Relation:
        """Return the relation called ``name`` or raise :class:`SchemaError`."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"schema has no relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of all relations in registration order."""
        return tuple(self._relations)

    def flexible_attributes(self) -> dict[str, tuple[Attribute, ...]]:
        """Map relation name -> its flexible attributes."""
        return {r.name: r.flexible_attributes for r in self}

    def weight(self, relation_name: str, attribute_name: str) -> float:
        """The repair weight ``α_A`` of a flexible attribute."""
        attribute = self.relation(relation_name).attribute(attribute_name)
        if not attribute.is_flexible:
            raise SchemaError(
                f"{relation_name}.{attribute_name} is hard; only flexible "
                "attributes carry a repair weight"
            )
        return attribute.weight

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._relations == other._relations

    def __repr__(self) -> str:
        return f"Schema({', '.join(self._relations)})"
