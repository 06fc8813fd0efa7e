"""Unit tests for the sqlite backend (Algorithm 2's SQL views + exports)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    Attribute,
    BackendError,
    InstanceError,
    KeyViolationError,
    Relation,
    Schema,
    find_all_violations,
    repair_database,
)
from repro.storage import ExportMode, SqliteBackend
from repro.violations.pushdown import BINDING_ATTR
from repro.workloads import client_buy_workload, paper_pub_example, tpch_like_workload


@pytest.fixture
def backend(paper_pub):
    with SqliteBackend.from_instance(paper_pub.instance) as backend:
        yield backend


class TestRoundTrip:
    def test_load_matches_source(self, paper_pub, backend):
        loaded = backend.load_instance(paper_pub.schema)
        assert loaded == paper_pub.instance

    def test_file_persistence(self, paper, tmp_path):
        path = tmp_path / "papers.db"
        SqliteBackend.from_instance(paper.instance, str(path)).close()
        with SqliteBackend(str(path)) as reopened:
            assert reopened.load_instance(paper.schema) == paper.instance

    def test_create_tables_idempotent(self, paper):
        backend = SqliteBackend()
        backend.create_tables(paper.schema)
        backend.create_tables(paper.schema)          # IF NOT EXISTS
        backend.write_instance(paper.instance)
        assert backend.load_instance(paper.schema).count() == 3

    def test_primary_key_enforced(self, paper, backend):
        with pytest.raises(BackendError):
            backend.write_instance(paper.instance)   # duplicate keys

    def test_missing_table_raises(self, paper):
        backend = SqliteBackend()
        with pytest.raises(BackendError):
            backend.load_instance(paper.schema)


class TestSqlViolationDetection:
    def test_matches_in_memory_detector(self, paper_pub, backend):
        from_sql = backend.find_violations(paper_pub.schema, paper_pub.constraints)
        in_memory = find_all_violations(paper_pub.instance, paper_pub.constraints)
        assert len(from_sql) == len(in_memory) == 4
        as_labels = lambda vs: {
            (v.constraint.name, frozenset(t.ref for t in v)) for v in vs
        }
        assert as_labels(from_sql) == as_labels(in_memory)

    def test_matches_on_random_workload(self):
        workload = client_buy_workload(30, inconsistency_ratio=0.5, seed=4)
        with SqliteBackend.from_instance(workload.instance) as backend:
            from_sql = backend.find_violations(workload.schema, workload.constraints)
        in_memory = find_all_violations(workload.instance, workload.constraints)
        as_labels = lambda vs: {
            (v.constraint.name, frozenset(t.ref for t in v)) for v in vs
        }
        assert as_labels(from_sql) == as_labels(in_memory)

    def test_consistent_database_empty(self, paper):
        from repro import DatabaseInstance

        consistent = DatabaseInstance.from_rows(
            paper.schema, {"Paper": [("E3", 1, 70, 1)]}
        )
        with SqliteBackend.from_instance(consistent) as backend:
            assert backend.find_violations(paper.schema, paper.constraints) == ()


class TestExports:
    def test_update_in_place(self, paper_pub, backend):
        result = repair_database(paper_pub.instance, paper_pub.constraints)
        note = backend.export_repair(result, ExportMode.UPDATE)
        assert "rows in place" in note
        assert backend.load_instance(paper_pub.schema) == result.repaired
        assert backend.find_violations(paper_pub.schema, paper_pub.constraints) == ()

    def test_insert_new_tables(self, paper_pub, backend):
        result = repair_database(paper_pub.instance, paper_pub.constraints)
        backend.export_repair(result, ExportMode.INSERT_NEW)
        # source tables untouched, *_repaired tables hold the repair.
        assert backend.load_instance(paper_pub.schema) == paper_pub.instance
        rows = backend.execute("SELECT id, ef, prc, cf FROM Paper_repaired")
        repaired = {tuple(r) for r in rows}
        expected = {t.values for t in result.repaired.tuples("Paper")}
        assert repaired == expected

    def test_dump_text(self, paper_pub, backend, tmp_path):
        result = repair_database(paper_pub.instance, paper_pub.constraints)
        destination = tmp_path / "dump.txt"
        backend.export_repair(result, ExportMode.DUMP_TEXT, str(destination))
        content = destination.read_text()
        assert "Paper" in content and "Pub" in content

    def test_dump_needs_destination(self, paper_pub, backend):
        result = repair_database(paper_pub.instance, paper_pub.constraints)
        with pytest.raises(BackendError):
            backend.export_repair(result, ExportMode.DUMP_TEXT)

    def test_raw_execute_guard(self, backend):
        with pytest.raises(BackendError):
            backend.execute("SELECT * FROM missing_table")


def _paper_table_without_key(path, rows):
    """A Paper table created by hand: no PRIMARY KEY, no column types."""
    backend = SqliteBackend(str(path))
    backend.execute("CREATE TABLE Paper (id, ef, prc, cf)")
    for row in rows:
        backend.execute("INSERT INTO Paper VALUES (?, ?, ?, ?)", row)
    return backend


class TestLoadErrors:
    def test_duplicate_key_without_primary_key(self, paper, tmp_path):
        rows = [("B1", 1, 40, 0), ("C2", 1, 20, 1), ("B1", 0, 60, 1)]
        with _paper_table_without_key(tmp_path / "dup.db", rows) as backend:
            with pytest.raises(
                KeyViolationError, match=r"^duplicate key \('B1',\) in relation 'Paper'$"
            ):
                backend.load_instance(paper.schema)

    @pytest.mark.parametrize(
        "cell, shown", [(40.5, "40.5 (float)"), ("cheap", "'cheap' (str)")]
    )
    def test_non_integer_flexible_cell(self, paper, tmp_path, cell, shown):
        rows = [("B1", 1, 40, 0), ("C2", 1, cell, 1)]
        with _paper_table_without_key(tmp_path / "bad.db", rows) as backend:
            with pytest.raises(InstanceError) as caught:
                backend.load_instance(paper.schema)
        assert str(caught.value) == (
            f"Paper.prc is flexible and must be an integer, got {shown}"
        )

    @pytest.mark.parametrize(
        "rows",
        [
            [("B1", 1, 40, 0), ("B1", 1, 20, 1)],
            [("B1", 1, 40, 0), ("C2", 1, 20.5, 1)],
        ],
        ids=["duplicate-key", "real-in-flexible"],
    )
    def test_repair_cli_reports_bad_data(self, paper, tmp_path, rows):
        db = tmp_path / "bad.db"
        _paper_table_without_key(db, rows).close()
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "schema": {
                        "relations": [
                            {
                                "name": "Paper",
                                "key": ["id"],
                                "attributes": [
                                    {"name": "id"},
                                    {"name": "ef", "flexible": True},
                                    {"name": "prc", "flexible": True},
                                    {"name": "cf", "flexible": True},
                                ],
                            }
                        ]
                    },
                    "constraints": ["ic1: NOT(Paper(x, y, z, w), y > 0, z < 50)"],
                    "source": {"backend": "sqlite", "path": str(db)},
                }
            )
        )
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from repro.system.cli import repro_main; "
                "sys.exit(repro_main(sys.argv[1:]))",
                "repair",
                str(config),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parent.parent)},
            timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr.startswith("error: ")
        assert "Traceback" not in completed.stderr


def _prescan_oracle(instance):
    """The per-cell column scan the load-time type sets replaced."""
    cache = {}
    for relation in instance.schema:
        tuples = instance.tuples(relation.name)
        for index, attribute in enumerate(relation.attributes):
            all_int = all(type(t.values[index]) is int for t in tuples)
            no_null = all_int or all(t.values[index] is not None for t in tuples)
            cache[("int", relation.name, attribute.name)] = all_int
            cache[("null", relation.name, attribute.name)] = no_null
    return cache


def _schema_and_instance(workload):
    return workload.schema, workload.instance


def _mixed_hard_columns():
    schema = Schema(
        [
            Relation(
                "R",
                [
                    Attribute.hard("k"),
                    Attribute.hard("name"),
                    Attribute.hard("note"),
                    Attribute.flexible("x"),
                ],
                key=["k"],
            ),
            Relation("Empty", [Attribute.hard("k"), Attribute.flexible("x")], key=["k"]),
        ]
    )
    rows = {"R": [(1, "a", None, 3), (2, "b", 7, 4), (3, None, "t", 5)], "Empty": []}
    return schema, repro.DatabaseInstance.from_rows(schema, rows)


class TestSeededVerdicts:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: _schema_and_instance(paper_pub_example()),
            lambda: _schema_and_instance(client_buy_workload(60, 0.3, seed=2)),
            lambda: _schema_and_instance(tpch_like_workload(1, 0.01, seed=0)),
            _mixed_hard_columns,
        ],
        ids=["paper", "clientbuy", "tpch-sf1", "null-and-text-hard-columns"],
    )
    def test_binding_cache_equals_per_cell_prescan(self, make):
        schema, source = make()
        with SqliteBackend.from_instance(source) as backend:
            loaded = backend.load_instance(schema)
            assert loaded == source
            seeded = dict(getattr(loaded, BINDING_ATTR).cache)
        assert seeded == _prescan_oracle(loaded)
