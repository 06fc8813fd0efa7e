"""DuckDB backend: columnar OLAP execution for the pushdown engine.

DuckDB is an optional dependency (``pip install repro[duckdb]``); this
module always imports, and :class:`DuckDBBackend` raises
:class:`~repro.exceptions.BackendError` at construction when the driver
is absent.  The backend mirrors :class:`~repro.storage.sqlite.SqliteBackend`
- same protocol, same export modes, same pushdown API - but executes the
Algorithm-2 violation SQL on DuckDB's vectorized engine, which is where
the pushdown detector earns its keep at TPC-H scale.

Unlike sqlite's dynamic typing, DuckDB columns are strictly typed.
``write_instance`` infers one type per column from the instance data
(all-integer -> BIGINT, all-string -> VARCHAR, all-float -> DOUBLE) and
refuses mixed columns outright; the pushdown executability check then
reads *declared* types instead of scanning rows - a typed column cannot
smuggle in a stray string the way a sqlite column can - and only NULLs
still need a runtime scan.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

try:  # pragma: no cover - exercised only when the extra is installed
    import duckdb
except ImportError:  # pragma: no cover
    duckdb = None  # type: ignore[assignment]

try:  # pragma: no cover
    import pyarrow
except ImportError:  # pragma: no cover
    pyarrow = None  # type: ignore[assignment]

from repro.constraints.denial import DenialConstraint
from repro.constraints.sql import ViolationQuery, violation_query
from repro.exceptions import BackendError, InstanceError, PushdownError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Relation, Schema
from repro.model.tuples import Tuple
from repro.repair.result import RepairResult
from repro.storage.base import ExportMode
from repro.storage.witnesses import stream_witness_sets
from repro.violations.detector import ViolationSet, _ordered_violation_sets
from repro.violations.pushdown import (
    BINDING_ATTR,
    bind_backend,
    column_verdicts,
    pushdown_requirements,
    referenced_columns,
    slot_columns,
)

#: DuckDB type names belonging to the integral type class.
_INTEGER_TYPES = frozenset(
    {
        "TINYINT",
        "SMALLINT",
        "INTEGER",
        "BIGINT",
        "HUGEINT",
        "UTINYINT",
        "USMALLINT",
        "UINTEGER",
        "UBIGINT",
    }
)

#: DuckDB type names belonging to the floating type class.
_FLOAT_TYPES = frozenset({"FLOAT", "REAL", "DOUBLE"})


def duckdb_available() -> bool:
    """True when the optional ``duckdb`` driver is importable."""
    return duckdb is not None


def _type_class(data_type: str) -> str:
    """Coarse type class of a DuckDB column type: int / float / text / other."""
    base = data_type.upper().split("(", 1)[0].strip()
    if base in _INTEGER_TYPES:
        return "int"
    if base in _FLOAT_TYPES or base.startswith("DECIMAL"):
        return "float"
    if base in ("VARCHAR", "TEXT", "STRING", "CHAR", "BPCHAR"):
        return "text"
    return "other"


def _infer_column_type(relation: Relation, position: int, values: list) -> str:
    """One DuckDB type for a column, inferred from the instance data."""
    classes = set()
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            classes.add("mixed")
        elif isinstance(value, int):
            classes.add("int")
        elif isinstance(value, float):
            classes.add("float")
        elif isinstance(value, str):
            classes.add("text")
        else:
            classes.add("mixed")
    if not classes:
        # Empty (or all-NULL) column: the type is unobservable in every
        # query over it, so default to the integral convention of the
        # repair model's flexible attributes.
        return "BIGINT"
    if classes == {"int"}:
        return "BIGINT"
    if classes <= {"int", "float"} and "float" in classes:
        return "DOUBLE"
    if classes == {"text"}:
        return "VARCHAR"
    raise BackendError(
        f"column {relation.name}.{relation.attributes[position].name} mixes "
        "value types; DuckDB columns are strictly typed - clean the data or "
        "use the sqlite backend"
    )


class DuckDBBackend:
    """Backend over a DuckDB database file (or ``:memory:``)."""

    _READONLY_KEYWORDS = frozenset({"SELECT", "PRAGMA", "EXPLAIN", "DESCRIBE"})

    def __init__(self, path: str = ":memory:") -> None:
        if duckdb is None:
            raise BackendError(
                "duckdb is not installed - install the optional extra: "
                "pip install repro[duckdb]"
            )
        self.path = path
        self._generation = 0
        self._column_types: dict[tuple[str, str], str] = {}
        try:
            self._connection = duckdb.connect(path)
        except duckdb.Error as error:
            raise BackendError(
                f"cannot open duckdb database {path!r}: {error}"
            ) from error

    @property
    def generation(self) -> int:
        """Write counter; see :attr:`SqliteBackend.generation`."""
        return self._generation

    def _cursor(self) -> Any:
        try:
            return self._connection.cursor()
        except duckdb.Error as error:
            raise BackendError(f"duckdb connection unusable: {error}") from error

    # -- setup -----------------------------------------------------------------

    def write_instance(self, instance: DatabaseInstance) -> None:
        """(Re)create one typed table per relation and bulk-load the data.

        Column types are inferred from the instance (see module docstring);
        ingestion goes through an Arrow table registration when ``pyarrow``
        is available (zero-copy into DuckDB) and falls back to
        ``executemany`` otherwise.
        """
        cursor = self._cursor()
        try:
            for relation in instance.schema:
                rows = [t.values for t in instance.tuples(relation.name)]
                columns = [
                    [row[i] for row in rows]
                    for i in range(len(relation.attributes))
                ]
                ddl_parts = []
                for position, attribute in enumerate(relation.attributes):
                    type_name = _infer_column_type(
                        relation, position, columns[position]
                    )
                    self._column_types[(relation.name, attribute.name)] = type_name
                    ddl_parts.append(f"{attribute.name} {type_name}")
                key = ", ".join(relation.key)
                cursor.execute(f"DROP TABLE IF EXISTS {relation.name}")
                cursor.execute(
                    f"CREATE TABLE {relation.name} "
                    f"({', '.join(ddl_parts)}, PRIMARY KEY ({key}))"
                )
                if not rows:
                    continue
                self._ingest(cursor, relation, rows, columns)
        except duckdb.Error as error:
            raise BackendError(f"duckdb ingestion failed: {error}") from error
        self._generation += 1

    def _ingest(
        self,
        cursor: Any,
        relation: Relation,
        rows: list[tuple],
        columns: list[list],
    ) -> None:
        names = list(relation.attribute_names)
        if pyarrow is not None:
            table = pyarrow.table(dict(zip(names, columns)))
            view = f"_repro_ingest_{relation.name}"
            cursor.register(view, table)
            try:
                cursor.execute(
                    f"INSERT INTO {relation.name} "
                    f"SELECT {', '.join(names)} FROM {view}"
                )
            finally:
                cursor.unregister(view)
            return
        placeholders = ", ".join("?" for _ in names)
        cursor.executemany(
            f"INSERT INTO {relation.name} VALUES ({placeholders})", rows
        )

    @classmethod
    def from_instance(
        cls, instance: DatabaseInstance, path: str = ":memory:"
    ) -> "DuckDBBackend":
        """Create a database holding ``instance`` (convenience for tests)."""
        backend = cls(path)
        backend.write_instance(instance)
        return backend

    # -- Backend protocol --------------------------------------------------------

    def load_instance(self, schema: Schema) -> DatabaseInstance:
        """Read every table into a backend-resident in-memory instance."""
        instance = DatabaseInstance(schema)
        cursor = self._cursor()
        verdicts: dict[Any, bool] = {}
        for relation in schema:
            try:
                cursor.execute(
                    f"SELECT {', '.join(relation.attribute_names)} "
                    f"FROM {relation.name}"
                )
                rows = cursor.fetchall()
            except duckdb.Error as error:
                raise BackendError(
                    f"cannot read table {relation.name!r}: {error}"
                ) from error
            verdicts.update(
                column_verdicts(relation, instance.insert_rows(relation.name, rows))
            )
            del rows
        bind_backend(instance, self)
        # Seed the NULL-scan cache from the column types just read
        # (declared types already settle the integer checks in DuckDB).
        getattr(instance, BINDING_ATTR).cache.update(verdicts)
        return instance

    def find_violations(
        self,
        schema: Schema,
        constraints: Iterable[DenialConstraint],
    ) -> tuple[ViolationSet, ...]:
        """Run the Algorithm-2 SQL and assemble minimal violation sets."""
        instance = self.load_instance(schema)
        results: list[ViolationSet] = []
        cursor = self._cursor()
        for constraint in constraints:
            compiled = violation_query(constraint, schema)
            try:
                cursor.execute(compiled.sql)
                used_sets = stream_witness_sets(
                    cursor.fetchmany, compiled, instance
                )
            except duckdb.Error as error:
                raise BackendError(
                    f"violation query failed for {constraint.label}: "
                    f"{compiled.sql!r}: {error}"
                ) from error
            results.extend(_ordered_violation_sets(used_sets, constraint))
        return tuple(results)

    def export_repair(
        self,
        result: RepairResult,
        mode: ExportMode,
        destination: str | None = None,
    ) -> str:
        """Persist the repair per the configured export mode."""
        if mode is ExportMode.UPDATE:
            return self._export_update(result)
        if mode is ExportMode.INSERT_NEW:
            return self._export_tables(result.repaired, suffix="_repaired")
        if destination is None:
            raise BackendError("DUMP_TEXT export needs a destination path")
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(result.repaired.to_text() + "\n")
        return f"dumped to {destination}"

    def export_snapshot(
        self,
        instance: DatabaseInstance,
        mode: ExportMode,
        destination: str | None = None,
    ) -> str:
        """Persist a full instance snapshot (deletion-based repairs)."""
        if mode is ExportMode.UPDATE:
            cursor = self._cursor()
            try:
                for relation in instance.schema:
                    cursor.execute(f"DELETE FROM {relation.name}")
                    rows = [t.values for t in instance.tuples(relation.name)]
                    if rows:
                        columns = [
                            [row[i] for row in rows]
                            for i in range(len(relation.attributes))
                        ]
                        self._ingest(cursor, relation, rows, columns)
            except duckdb.Error as error:
                raise BackendError(f"snapshot export failed: {error}") from error
            self._generation += 1
            return "rewrote tables from repaired snapshot"
        if mode is ExportMode.INSERT_NEW:
            return self._export_tables(instance, suffix="_repaired")
        if destination is None:
            raise BackendError("DUMP_TEXT export needs a destination path")
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(instance.to_text() + "\n")
        return f"dumped to {destination}"

    # -- export modes ---------------------------------------------------------------

    def _export_update(self, result: RepairResult) -> str:
        cursor = self._cursor()
        updated = 0
        try:
            for change in result.changes:
                relation = result.repaired.schema.relation(change.ref.relation_name)
                key_clause = " AND ".join(f"{k} = ?" for k in relation.key)
                cursor.execute(
                    f"UPDATE {relation.name} SET {change.attribute} = ? "
                    f"WHERE {key_clause}",
                    (change.new_value, *change.ref.key_values),
                )
                updated += 1
        except duckdb.Error as error:
            raise BackendError(f"update export failed: {error}") from error
        self._generation += 1
        return f"updated {updated} rows in place"

    def _export_tables(self, instance: DatabaseInstance, suffix: str) -> str:
        cursor = self._cursor()
        try:
            for relation in instance.schema:
                source = relation.name
                target = f"{source}{suffix}"
                cursor.execute(f"DROP TABLE IF EXISTS {target}")
                rows = [t.values for t in instance.tuples(source)]
                columns = [
                    [row[i] for row in rows]
                    for i in range(len(relation.attributes))
                ]
                ddl_parts = []
                for position, attribute in enumerate(relation.attributes):
                    type_name = _infer_column_type(relation, position, columns[position])
                    ddl_parts.append(f"{attribute.name} {type_name}")
                cursor.execute(f"CREATE TABLE {target} ({', '.join(ddl_parts)})")
                if rows:
                    renamed = Relation(
                        name=target,
                        attributes=relation.attributes,
                        key=relation.key,
                    )
                    self._ingest(cursor, renamed, rows, columns)
        except duckdb.Error as error:
            raise BackendError(f"insert export failed: {error}") from error
        self._generation += 1
        return f"inserted repaired tables with suffix {suffix}"

    # -- pushdown detection -----------------------------------------------------------

    def _declared_type(self, cursor: Any, relation_name: str, attribute_name: str) -> str:
        key = (relation_name, attribute_name)
        cached = self._column_types.get(key)
        if cached is not None:
            return cached
        try:
            cursor.execute(
                "SELECT data_type FROM information_schema.columns "
                "WHERE table_name = ? AND column_name = ?",
                (relation_name, attribute_name),
            )
            row = cursor.fetchone()
        except duckdb.Error as error:
            raise PushdownError(
                f"cannot read declared type of "
                f"{relation_name}.{attribute_name}: {error}"
            ) from error
        if row is None:
            raise PushdownError(
                f"no such column {relation_name}.{attribute_name} in the "
                "duckdb database"
            )
        self._column_types[key] = row[0]
        return row[0]

    def _column_null_free(
        self,
        cursor: Any,
        relation_name: str,
        attribute_name: str,
        cache: dict[Any, bool] | None,
    ) -> bool:
        key = ("null", relation_name, attribute_name)
        if cache is not None and key in cache:
            return cache[key]
        cursor.execute(
            f"SELECT 1 FROM {relation_name} "
            f"WHERE {attribute_name} IS NULL LIMIT 1"
        )
        clean = cursor.fetchone() is None
        if cache is not None:
            cache[key] = clean
        return clean

    def _check_pushdown_executable(
        self,
        cursor: Any,
        schema: Schema,
        constraint: DenialConstraint,
        cache: dict[Any, bool] | None,
    ) -> None:
        """Refuse shapes where DuckDB semantics diverge from Python.

        Declared types replace sqlite's per-row ``typeof`` scans: order
        comparisons, offset arithmetic, and builtin constants (always
        integers) need integral columns, and columns the SQL compares to
        each other must share a type class (DuckDB casts across classes
        and errors, where Python just answers ``False``).  Compared
        columns must additionally be NULL-free, as in sqlite.
        """
        from repro.violations.pushdown import comparable_column_groups

        required = set(
            slot_columns(constraint, schema, pushdown_requirements(constraint))
        )
        for builtin in constraint.builtins:
            required |= slot_columns(
                constraint, schema, constraint.occurrences(builtin.variable)
            )
        for relation_name, attribute_name in sorted(required):
            declared = self._declared_type(cursor, relation_name, attribute_name)
            if _type_class(declared) != "int":
                raise PushdownError(
                    f"{constraint.label}: column "
                    f"{relation_name}.{attribute_name} is {declared}, but "
                    "order/offset/builtin comparisons push down only over "
                    "integral columns"
                )
        for group in comparable_column_groups(constraint, schema):
            classes = {
                _type_class(self._declared_type(cursor, rel, attr))
                for rel, attr in group
            }
            if len(classes) > 1 or "other" in classes:
                named = ", ".join(f"{r}.{a}" for r, a in sorted(group))
                raise PushdownError(
                    f"{constraint.label}: compared columns {named} span "
                    "different type classes; DuckDB casts across classes "
                    "where Python compares unequal"
                )
        for relation_name, attribute_name in sorted(
            referenced_columns(constraint, schema)
        ):
            if not self._column_null_free(
                cursor, relation_name, attribute_name, cache
            ):
                raise PushdownError(
                    f"{constraint.label}: column "
                    f"{relation_name}.{attribute_name} holds NULLs, which "
                    "never satisfy SQL comparisons but compare equal as "
                    "Python None"
                )

    def _pushdown_cursor(
        self,
        constraint: DenialConstraint,
        schema: Schema,
        cache: dict[Any, bool] | None,
    ) -> tuple[Any, ViolationQuery]:
        compiled = violation_query(constraint, schema)
        cursor = self._cursor()
        try:
            self._check_pushdown_executable(cursor, schema, constraint, cache)
        except duckdb.Error as error:
            raise PushdownError(
                f"{constraint.label}: pushdown pre-check failed: {error}"
            ) from error
        return cursor, compiled

    def pushdown_witnesses(
        self,
        instance: DatabaseInstance,
        constraint: DenialConstraint,
        max_violations: int | None = None,
        cache: dict[Any, bool] | None = None,
    ) -> set[frozenset[Tuple]]:
        """Witness tuple sets of one constraint, computed in-database.

        Same contract as :meth:`SqliteBackend.pushdown_witnesses`.
        """
        cursor, compiled = self._pushdown_cursor(constraint, instance.schema, cache)
        try:
            cursor.execute(compiled.sql)
            return stream_witness_sets(
                cursor.fetchmany,
                compiled,
                instance,
                max_violations=max_violations,
            )
        except duckdb.Error as error:
            raise PushdownError(
                f"{constraint.label}: violation query failed: "
                f"{compiled.sql!r}: {error}"
            ) from error
        except InstanceError as error:
            raise PushdownError(
                f"{constraint.label}: backend rows diverged from the bound "
                f"instance: {error}"
            ) from error

    def pushdown_has_witness(
        self,
        instance: DatabaseInstance,
        constraint: DenialConstraint,
        cache: dict[Any, bool] | None = None,
    ) -> bool:
        """``LIMIT 1`` probe: does the constraint have any witness?"""
        cursor, compiled = self._pushdown_cursor(constraint, instance.schema, cache)
        try:
            cursor.execute(compiled.sql + " LIMIT 1")
            return cursor.fetchone() is not None
        except duckdb.Error as error:
            raise PushdownError(
                f"{constraint.label}: violation query failed: "
                f"{compiled.sql!r}: {error}"
            ) from error

    # -- misc -------------------------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> list[tuple]:
        """Run raw SQL (diagnostics, tests); writes bump the generation."""
        try:
            cursor = self._connection.execute(sql, parameters or None)
            rows = cursor.fetchall()
        except duckdb.Error as error:
            raise BackendError(f"query failed: {sql!r}: {error}") from error
        first_word = sql.lstrip().split(None, 1)[0].upper() if sql.strip() else ""
        if first_word not in self._READONLY_KEYWORDS:
            self._generation += 1
        return rows

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "DuckDBBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
