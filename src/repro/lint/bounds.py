"""Static prediction of the layer algorithm's approximation factor.

The layer algorithm approximates MWSC within ``f``, the maximum number
of candidate sets any universe element belongs to
(:attr:`repro.setcover.instance.SetCoverInstance.max_frequency`).  For
the repair reduction (Definition 3.1) an element is a violation set of
some ``ic`` and a candidate set is a mono-local fix ``(t, A, v)``; a fix
can resolve a violation of ``ic`` only when it rewrites a *flexible*
attribute occurring in ``ic``'s built-ins (changing anything else
cannot falsify the body: locality condition (a) keeps joins, equalities
and variable comparisons on hard attributes).  Distinct fix values for
one cell come one-per-constraint mentioning that cell's attribute
(Definition 2.8 derives one mono-local fix per ``(t, ic, A)``), so

.. math::

   f(ic) \\le \\sum_{\\text{atom} \\in ic}
       \\sum_{\\substack{A \\in \\mathrm{flex}(R_{\\text{atom}}) \\\\
                        (R_{\\text{atom}}, A) \\in A_B(ic)}}
       \\bigl|\\{\\, ic' : (R_{\\text{atom}}, A) \\in A_B(ic') \\,\\}\\bigr|

(a minimal violation of ``ic`` has at most one tuple per atom).  The
predicted set-level factor is the maximum over the constraints; a
constraint whose bound is zero has *no* candidate fixes at all - its
violations would make the set-cover instance uncoverable, which is
exactly a condition (b) failure seen from the MWSC side.
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints.denial import DenialConstraint
from repro.model.schema import Schema


def builtin_attribute_overlap(
    constraints: Sequence[DenialConstraint], schema: Schema
) -> dict[tuple[str, str], int]:
    """``(relation, attribute) -> |{ic : (R, A) ∈ A_B(ic)}|``.

    Counts, for every attribute, how many constraints mention it in
    their built-in atoms - the overlap that drives candidate-fix
    frequency.
    """
    overlap: dict[tuple[str, str], int] = {}
    for constraint in constraints:
        for pair in constraint.attributes_in_builtins(schema):
            overlap[pair] = overlap.get(pair, 0) + 1
    return overlap


def predicted_max_frequency(
    constraints: Sequence[DenialConstraint], schema: Schema
) -> dict[str, int]:
    """Per-constraint static bound on candidate-fix frequency.

    Maps each constraint label to the bound derived in the module
    docstring; ``max(values)`` bounds the whole instance's
    ``max_frequency``, hence the layer algorithm's approximation factor.
    A value of ``0`` flags a constraint with no candidate fixes
    (condition (b) failure).
    """
    overlap = builtin_attribute_overlap(constraints, schema)
    return {
        constraint.label: constraint_frequency(constraint, schema, overlap)
        for constraint in constraints
    }


def constraint_frequency(
    constraint: DenialConstraint,
    schema: Schema,
    overlap: dict[tuple[str, str], int],
) -> int:
    """One constraint's bound, given :func:`builtin_attribute_overlap`."""
    builtin_attributes = constraint.attributes_in_builtins(schema)
    total = 0
    for atom in constraint.relation_atoms:
        relation = schema.relation(atom.relation_name)
        for attribute in relation.attributes:
            pair = (relation.name, attribute.name)
            if attribute.is_flexible and pair in builtin_attributes:
                total += overlap.get(pair, 0)
    return total
