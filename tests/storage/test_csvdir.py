"""Unit tests for the CSV-directory backend."""

import pytest

from repro import BackendError, KeyViolationError, is_consistent, repair_database
from repro.storage import CsvBackend, ExportMode
from repro.system import RepairConfig, RepairProgram
from repro.workloads import client_buy_workload


@pytest.fixture
def csv_setup(tmp_path):
    workload = client_buy_workload(20, inconsistency_ratio=0.5, seed=9)
    backend = CsvBackend.write_instance(workload.instance, tmp_path / "data")
    return workload, backend


class TestLoad:
    def test_roundtrip(self, csv_setup):
        workload, backend = csv_setup
        loaded = backend.load_instance(workload.schema)
        assert loaded == workload.instance

    def test_missing_directory(self, tmp_path):
        with pytest.raises(BackendError, match="not a directory"):
            CsvBackend(tmp_path / "nope")

    def test_missing_file(self, csv_setup, tmp_path):
        workload, backend = csv_setup
        (backend.directory / "Buy.csv").unlink()
        with pytest.raises(BackendError, match="missing CSV"):
            backend.load_instance(workload.schema)

    def test_bad_header(self, csv_setup):
        workload, backend = csv_setup
        path = backend.directory / "Client.csv"
        lines = path.read_text().splitlines()
        lines[0] = "id,wrong,header"
        path.write_text("\n".join(lines))
        with pytest.raises(BackendError, match="header"):
            backend.load_instance(workload.schema)

    def test_bad_arity(self, csv_setup):
        workload, backend = csv_setup
        path = backend.directory / "Client.csv"
        path.write_text(path.read_text() + "99,12\n")
        with pytest.raises(BackendError, match="cells"):
            backend.load_instance(workload.schema)

    def test_non_integer_flexible_cell(self, csv_setup):
        workload, backend = csv_setup
        path = backend.directory / "Client.csv"
        line = len(path.read_text().splitlines()) + 1
        path.write_text(path.read_text() + "99,young,10\n")
        with pytest.raises(BackendError, match="integer") as caught:
            backend.load_instance(workload.schema)
        assert str(caught.value).startswith(f"{path}:{line}: Client.a: ")

    def test_duplicate_key_names_file_and_line(self, csv_setup):
        workload, backend = csv_setup
        path = backend.directory / "Client.csv"
        lines = path.read_text().splitlines()
        first_id = lines[1].split(",")[0]
        # a blank line before the duplicate: line numbers count it
        path.write_text("\n".join(lines) + f"\n\n{first_id},30,10\n")
        with pytest.raises(KeyViolationError) as caught:
            backend.load_instance(workload.schema)
        assert str(caught.value) == (
            f"{path}:{len(lines) + 2}: duplicate key ({int(first_id)},) "
            "in relation 'Client'"
        )

    def test_empty_file(self, csv_setup):
        workload, backend = csv_setup
        (backend.directory / "Client.csv").write_text("")
        with pytest.raises(BackendError, match="header"):
            backend.load_instance(workload.schema)

    def test_blank_lines_skipped(self, csv_setup):
        workload, backend = csv_setup
        path = backend.directory / "Client.csv"
        path.write_text(path.read_text() + "\n\n")
        loaded = backend.load_instance(workload.schema)
        assert loaded.count("Client") == workload.instance.count("Client")


class TestExport:
    def test_update_rewrites_files(self, csv_setup):
        workload, backend = csv_setup
        result = repair_database(workload.instance, workload.constraints)
        note = backend.export_repair(result, ExportMode.UPDATE)
        assert "rewrote" in note
        reloaded = backend.load_instance(workload.schema)
        assert reloaded == result.repaired
        assert is_consistent(reloaded, workload.constraints)

    def test_insert_new_writes_sibling_files(self, csv_setup):
        workload, backend = csv_setup
        result = repair_database(workload.instance, workload.constraints)
        backend.export_repair(result, ExportMode.INSERT_NEW)
        assert (backend.directory / "Client_repaired.csv").exists()
        # original files untouched.
        assert backend.load_instance(workload.schema) == workload.instance

    def test_dump_text(self, csv_setup, tmp_path):
        workload, backend = csv_setup
        result = repair_database(workload.instance, workload.constraints)
        destination = tmp_path / "out.txt"
        backend.export_repair(result, ExportMode.DUMP_TEXT, str(destination))
        assert "Client" in destination.read_text()

    def test_dump_needs_destination(self, csv_setup):
        workload, backend = csv_setup
        result = repair_database(workload.instance, workload.constraints)
        with pytest.raises(BackendError):
            backend.export_repair(result, ExportMode.DUMP_TEXT)


class TestPipelineIntegration:
    def test_full_program_over_csv(self, csv_setup):
        workload, backend = csv_setup
        config = RepairConfig.from_dict(
            {
                "schema": {
                    "relations": [
                        {
                            "name": "Client",
                            "key": ["id"],
                            "attributes": [
                                {"name": "id"},
                                {"name": "a", "flexible": True},
                                {"name": "c", "flexible": True},
                            ],
                        },
                        {
                            "name": "Buy",
                            "key": ["id", "i"],
                            "attributes": [
                                {"name": "id"},
                                {"name": "i"},
                                {"name": "p", "flexible": True},
                            ],
                        },
                    ]
                },
                "constraints": [
                    "ic1: NOT(Buy(id, i, p), Client(id, a, c), a < 18, p > 25)",
                    "ic2: NOT(Client(id, a, c), a < 18, c > 50)",
                ],
                "source": {
                    "backend": "csv",
                    "directory": str(backend.directory),
                },
                "export": {"mode": "update"},
            }
        )
        report = RepairProgram(config).run()
        assert report.result.verified
        reloaded = CsvBackend(backend.directory).load_instance(config.schema)
        assert is_consistent(reloaded, config.constraints)

    def test_csv_source_needs_directory_key(self):
        with pytest.raises(Exception, match="directory"):
            RepairConfig.from_dict(
                {
                    "schema": {
                        "relations": [
                            {
                                "name": "R",
                                "key": ["k"],
                                "attributes": [
                                    {"name": "k"},
                                    {"name": "v", "flexible": True},
                                ],
                            }
                        ]
                    },
                    "constraints": ["NOT(R(k, v), v > 9)"],
                    "source": {"backend": "csv"},
                }
            )
