"""Set-cover instance representation ``(U, S, w)``.

Elements of the universe ``U`` are integers ``0 .. n_elements-1``; each
:class:`WeightedSet` lists the element ids it contains, carries a positive
weight, and an opaque ``payload`` (the repair layer stores the
:class:`~repro.fixes.mlf.FixCandidate` there).  The representation is
deliberately array-based: both the plain and the modified algorithms index
sets by id, and the modified algorithms additionally build the
element -> sets adjacency once (Algorithm 4's links).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.exceptions import SetCoverError, UncoverableError


@dataclass(frozen=True)
class WeightedSet:
    """One candidate set ``S_i ∈ S`` with weight ``w(S_i)``."""

    set_id: int
    weight: float
    elements: tuple[int, ...]
    payload: Any = None

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise SetCoverError(
                f"set {self.set_id}: weight must be non-negative, got {self.weight}"
            )
        if len(set(self.elements)) != len(self.elements):
            raise SetCoverError(
                f"set {self.set_id}: duplicate element ids {self.elements}"
            )

    def __len__(self) -> int:
        return len(self.elements)


class SetCoverInstance:
    """An MWSCP instance ``(U, S, w)``.

    Parameters
    ----------
    n_elements:
        Size of the universe ``U`` (element ids are ``0..n_elements-1``).
    sets:
        The weighted sets.  Empty sets are allowed but never useful; sets
        referencing out-of-range elements are rejected.
    """

    def __init__(
        self,
        n_elements: int,
        sets: Iterable[WeightedSet],
    ) -> None:
        if n_elements < 0:
            raise SetCoverError(f"n_elements must be >= 0, got {n_elements}")
        self.n_elements = n_elements
        self.sets: tuple[WeightedSet, ...] = tuple(sets)
        seen_ids: set[int] = set()
        for index, weighted_set in enumerate(self.sets):
            if weighted_set.set_id in seen_ids:
                raise SetCoverError(
                    f"duplicate set id {weighted_set.set_id}: set ids must "
                    "be unique (duplicate *contents* under distinct ids are "
                    "fine)"
                )
            seen_ids.add(weighted_set.set_id)
            if weighted_set.set_id != index:
                raise SetCoverError(
                    f"set ids must be consecutive: expected {index}, "
                    f"got {weighted_set.set_id}"
                )
            for element in weighted_set.elements:
                if not 0 <= element < n_elements:
                    raise SetCoverError(
                        f"set {index} references element {element} outside "
                        f"universe of size {n_elements}"
                    )
        self._element_to_sets: tuple[tuple[int, ...], ...] | None = None
        self._flat: Any = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_collections(
        cls,
        n_elements: int,
        collections: Sequence[tuple[float, Iterable[int]]],
        payloads: Sequence[Any] | None = None,
    ) -> "SetCoverInstance":
        """Build from ``[(weight, elements), ...]`` pairs."""
        sets = []
        for index, (weight, elements) in enumerate(collections):
            payload = payloads[index] if payloads is not None else None
            sets.append(
                WeightedSet(index, weight, tuple(elements), payload)
            )
        return cls(n_elements, sets)

    # -- derived structure ------------------------------------------------------

    @property
    def element_to_sets(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency ``element id -> ids of sets containing it`` (cached).

        This is the link structure of Algorithm 4, shared by the modified
        greedy and modified layer algorithms.
        """
        if self._element_to_sets is None:
            adjacency: list[list[int]] = [[] for _ in range(self.n_elements)]
            for weighted_set in self.sets:
                for element in weighted_set.elements:
                    adjacency[element].append(weighted_set.set_id)
            self._element_to_sets = tuple(tuple(a) for a in adjacency)
        return self._element_to_sets

    @property
    def max_frequency(self) -> int:
        """Largest number of sets any element belongs to.

        The layer algorithm approximates within this factor (bounded for
        the repair reduction: a violation set has a bounded number of
        candidate fixes).
        """
        return max((len(a) for a in self.element_to_sets), default=0)

    def flat(self) -> Any:
        """The cached :class:`~repro.setcover.flat.FlatSetCover` view.

        Built on first use and shared by every flat-engine solver run on
        this instance, so the CSR incidence construction is paid once.
        """
        if self._flat is None:
            from repro.setcover.flat import FlatSetCover

            self._flat = FlatSetCover(self)
        return self._flat

    def check_coverable(self) -> None:
        """Raise :class:`UncoverableError` when some element is in no set."""
        for element, adjacent in enumerate(self.element_to_sets):
            if not adjacent:
                raise UncoverableError(
                    f"element {element} belongs to no set; no cover exists"
                )

    def __repr__(self) -> str:
        return (
            f"SetCoverInstance(|U|={self.n_elements}, |S|={len(self.sets)})"
        )
