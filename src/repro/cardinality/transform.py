"""The δ-attribute transformation (Definitions 5.1 and 5.2).

``D#`` extends every relation with a flexible attribute ``δ_R`` filled with
ones; deleting a tuple becomes updating its δ to 0.  ``IC#`` conjoins
``δ_{R_i} > 0`` for every atom occurrence, so only "present" tuples can
violate a constraint.  ``D ↓ δ`` projects a repaired ``D#`` back: drop the
tuples with δ = 0, drop the δ column.

Two modes:

* ``delete`` (Definition 5.1 verbatim): all original attributes become hard
  and form the key (no primary-key or locality requirement on the original
  input); the δs are the only flexible attributes.
* ``mixed`` (the conclusion's extension): the original flexible attributes
  stay flexible alongside δ, so a violation can be repaired by whichever of
  deletion or value update is cheaper.  This mode requires the original
  schema keys and the original constraints to be local.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Mapping

from repro.constraints.atoms import BuiltinAtom, Comparator, RelationAtom
from repro.constraints.denial import DenialConstraint
from repro.exceptions import SchemaError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Attribute, AttributeRole, Relation, Schema
from repro.model.tuples import Tuple

Mode = Literal["delete", "mixed"]


@dataclass(frozen=True)
class DeltaTransform:
    """The result of transforming ``(D, IC)`` into ``(D#, IC#)``."""

    original_schema: Schema
    schema: Schema
    instance: DatabaseInstance
    constraints: tuple[DenialConstraint, ...]
    delta_names: Mapping[str, str]
    mode: Mode


def _delta_attribute_name(relation: Relation) -> str:
    """A δ attribute name not colliding with the relation's attributes."""
    name = "delta"
    while relation.has_attribute(name):
        name += "_"
    return name


def _transform_relation(
    relation: Relation,
    mode: Mode,
    delta_name: str,
    delta_weight: float,
) -> Relation:
    if mode == "delete":
        # Definition 5.1: K_{R#} = A_R \ δ_R, every original attribute hard.
        attributes = [Attribute.hard(a.name) for a in relation.attributes]
        key = relation.attribute_names
    else:
        attributes = list(relation.attributes)
        key = relation.key
    attributes.append(
        Attribute(delta_name, AttributeRole.FLEXIBLE, delta_weight)
    )
    return Relation(f"{relation.name}", attributes, key)


def _transform_constraint(
    constraint: DenialConstraint,
    delta_names: Mapping[str, str],
) -> DenialConstraint:
    """Add a fresh δ variable and ``δ > 0`` built-in per atom occurrence."""
    existing = set(constraint.variables)
    atoms: list[RelationAtom] = []
    builtins = list(constraint.builtins)
    for index, atom in enumerate(constraint.relation_atoms):
        variable = f"d{index}"
        while variable in existing:
            variable += "_"
        existing.add(variable)
        atoms.append(
            RelationAtom(atom.relation_name, atom.variables + (variable,))
        )
        builtins.append(BuiltinAtom(variable, Comparator.GT, 0))
    return DenialConstraint(
        atoms,
        builtins,
        constraint.variable_comparisons,
        name=f"{constraint.name}#" if constraint.name else "",
    )


def build_delta_transform(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    mode: Mode = "delete",
    table_weights: Mapping[str, float] | None = None,
) -> DeltaTransform:
    """Build ``(D#, IC#)`` from ``(D, IC)``.

    ``table_weights`` sets ``α_{δ_R}`` per relation (default 1.0 for all,
    the cardinality semantics); e.g. ``{"T": 1.0, "R": 0.5}`` makes
    deleting from ``R`` half as costly as deleting from ``T``, realizing
    the per-table deletion priorities the conclusion describes.
    """
    table_weights = dict(table_weights or {})
    original_schema = instance.schema
    for relation_name in table_weights:
        original_schema.relation(relation_name)  # validate names early

    delta_names: dict[str, str] = {}
    new_relations: list[Relation] = []
    for relation in original_schema:
        delta_name = _delta_attribute_name(relation)
        delta_names[relation.name] = delta_name
        weight = table_weights.get(relation.name, 1.0)
        if weight <= 0:
            raise SchemaError(
                f"table weight for {relation.name!r} must be positive, got {weight}"
            )
        new_relations.append(
            _transform_relation(relation, mode, delta_name, weight)
        )
    new_schema = Schema(new_relations)

    new_instance = DatabaseInstance(new_schema)
    for relation in original_schema:
        new_instance.insert_rows(
            relation.name,
            [tup.values + (1,) for tup in instance.tuples(relation.name)],
        )

    new_constraints = tuple(
        _transform_constraint(ic, delta_names) for ic in constraints
    )
    return DeltaTransform(
        original_schema=original_schema,
        schema=new_schema,
        instance=new_instance,
        constraints=new_constraints,
        delta_names=delta_names,
        mode=mode,
    )


def project_delta(
    transform: DeltaTransform, repaired: DatabaseInstance
) -> tuple[DatabaseInstance, tuple[Tuple, ...]]:
    """``D ↓ δ`` (Definition 5.2): drop δ=0 tuples, then the δ column.

    Returns the projected instance over the *original* schema plus the
    original-schema tuples that were deleted.
    """
    result = DatabaseInstance(transform.original_schema)
    deleted: list[Tuple] = []
    for relation in transform.original_schema:
        delta_name = transform.delta_names[relation.name]
        new_relation = transform.schema.relation(relation.name)
        delta_position = new_relation.position(delta_name)
        for tup in repaired.tuples(relation.name):
            values = tup.values[:delta_position] + tup.values[delta_position + 1:]
            original_tuple = Tuple(relation, values)
            if tup.values[delta_position] > 0:
                result.insert(original_tuple)
            else:
                deleted.append(original_tuple)
    return result, tuple(deleted)
