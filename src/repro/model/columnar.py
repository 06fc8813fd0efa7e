"""Columnar snapshots of database relations for vectorized detection.

The violation-detection kernels (:mod:`repro.violations.kernels`) evaluate
denial constraints over *columns* instead of tuple-by-tuple: per-attribute
NumPy arrays support vectorized built-in masks, array-based equality
joins, and sorted interval lookups for cross-atom inequalities.  This
module owns the column store those kernels read:

* :class:`ColumnarRelation` - one relation's tuples frozen into arrays,
  with an int64 fast path for all-integer columns and an object-array
  fallback that preserves exact Python equality semantics;
* :class:`ColumnarStore` - a per-instance cache of snapshots keyed by the
  instance's :meth:`~repro.model.instance.DatabaseInstance.data_version`
  counters, so a snapshot is rebuilt exactly when its relation mutated
  (the columnar analogue of
  :class:`repro.violations.indexes.JoinIndexCache` maintenance).

NumPy is an *optional* dependency (the ``repro[kernel]`` extra): importing
this module works without it, but building a snapshot raises
:class:`~repro.exceptions.KernelError`, which the detector's ``auto``
engine treats as "stay on the interpreted path".
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

from repro.exceptions import KernelError
from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple
from repro.obs import current_tracer

if TYPE_CHECKING:  # pragma: no cover
    import numpy

try:  # NumPy is optional; see module docstring.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via kernel_available()
    _np = None


def kernel_available() -> bool:
    """True when NumPy is importable, i.e. the kernel engine can run."""
    return _np is not None


def require_numpy() -> "numpy":
    """Return the numpy module or raise :class:`KernelError`."""
    if _np is None:
        raise KernelError(
            "the kernel detection engine needs NumPy; install the "
            "'repro[kernel]' extra or use engine='interpreted'"
        )
    return _np


class ColumnarRelation:
    """One relation's tuples as per-attribute arrays (immutable snapshot).

    ``tuples[i]`` is row ``i``; :meth:`column` returns the object-dtype
    value array of one attribute position and :meth:`numeric` the int64
    fast-path array (``None`` when any value is not a Python int or the
    column overflows int64).  Arrays are built lazily per position and
    cached for the snapshot's lifetime.
    """

    __slots__ = ("relation_name", "tuples", "_columns", "_numeric", "_rows")

    def __init__(self, relation_name: str, tuples: tuple[Tuple, ...]) -> None:
        require_numpy()
        self.relation_name = relation_name
        self.tuples = tuples
        self._columns: dict[int, Any] = {}
        self._numeric: dict[int, Any] = {}
        self._rows: dict[Tuple, int] | None = None

    def __len__(self) -> int:
        return len(self.tuples)

    def column(self, position: int) -> "numpy.ndarray":
        """Object-dtype array of one attribute position (always available)."""
        array = self._columns.get(position)
        if array is None:
            array = _np.empty(len(self.tuples), dtype=object)
            for row, tup in enumerate(self.tuples):
                array[row] = tup.values[position]
            self._columns[position] = array
        return array

    def numeric(self, position: int) -> "numpy.ndarray | None":
        """Int64 array of one position, or ``None`` off the fast path.

        Booleans count as ints (Python semantics: ``True == 1``); any
        other type, or a value outside the int64 range, disables the
        numeric fast path for the whole column.
        """
        if position in self._numeric:
            return self._numeric[position]
        values = [tup.values[position] for tup in self.tuples]
        array = None
        if all(isinstance(value, int) for value in values):
            try:
                array = _np.array(values, dtype=_np.int64)
            except (OverflowError, ValueError):
                array = None
        self._numeric[position] = array
        return array

    def row_of(self, tup: Tuple) -> int | None:
        """Row index of a tuple (anchored detection), ``None`` if absent."""
        if self._rows is None:
            self._rows = {t: row for row, t in enumerate(self.tuples)}
        return self._rows.get(tup)


class ColumnarStore:
    """Version-keyed cache of :class:`ColumnarRelation` snapshots.

    The store does *not* hold the instance (see :func:`store_for`'s
    lifetime note); callers pass it to :meth:`relation`, which compares
    the instance's per-relation ``data_version`` against the version the
    cached snapshot was built at and rebuilds on mismatch.
    """

    def __init__(self) -> None:
        self._snapshots: dict[str, tuple[int, ColumnarRelation]] = {}

    def relation(
        self, instance: DatabaseInstance, relation_name: str
    ) -> ColumnarRelation:
        """Current snapshot of one relation (rebuilt iff it mutated).

        Hit/miss rates land in the ``columnar_cache_hits`` /
        ``columnar_cache_misses`` counters of an active tracer - the
        signal for "are kernel runs amortizing their snapshot builds".
        """
        version = instance.data_version(relation_name)
        cached = self._snapshots.get(relation_name)
        metrics = current_tracer().metrics
        if cached is not None and cached[0] == version:
            metrics.counter("columnar_cache_hits", relation=relation_name).inc()
            return cached[1]
        metrics.counter("columnar_cache_misses", relation=relation_name).inc()
        snapshot = ColumnarRelation(relation_name, instance.tuples(relation_name))
        self._snapshots[relation_name] = (version, snapshot)
        return snapshot


#: id(instance) -> (weakref to the instance, its store).  The weakref both
#: guards against id reuse and evicts the entry when the instance dies;
#: the store itself never references the instance, so no cycle keeps
#: either alive.
_STORES: dict[int, tuple["weakref.ref[DatabaseInstance]", ColumnarStore]] = {}


def store_for(instance: DatabaseInstance) -> ColumnarStore:
    """The process-wide :class:`ColumnarStore` of one instance object.

    Snapshots survive across detection calls on the same instance (the
    hot path of repeated ``find_violations`` / benchmark loops) and die
    with the instance.
    """
    key = id(instance)
    entry = _STORES.get(key)
    if entry is not None and entry[0]() is instance:
        return entry[1]
    store = ColumnarStore()
    try:
        ref = weakref.ref(instance, lambda _ref, _key=key: _STORES.pop(_key, None))
    except TypeError:  # pragma: no cover - DatabaseInstance is weakref-able
        return store
    _STORES[key] = (ref, store)
    return store
