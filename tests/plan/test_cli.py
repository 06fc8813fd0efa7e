"""The ``repro compile`` and ``repro explain-plan`` subcommands."""

from __future__ import annotations

import json

from repro.plan import CompiledProgram
from repro.system.cli import (
    build_compile_parser,
    build_explain_plan_parser,
    compile_main,
    explain_plan_main,
    repro_main,
)


def write_config(tmp_path, **extra):
    document = {
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
                }
            ]
        },
        "constraints": ["ic1: NOT(Client(id, a, c), a < 18, c > 50)"],
        "source": {"backend": "memory", "rows": {"Client": [[1, 15, 60]]}},
    }
    document.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return path


class TestCompile:
    def test_workload_text_report(self, capsys):
        assert compile_main(["--workload", "clientbuy"]) == 0
        out = capsys.readouterr().out
        assert "workload:clientbuy" in out
        assert "fingerprint" in out
        assert "execute" in out

    def test_config_file_source(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert compile_main([str(path)]) == 0
        assert "ic1" in capsys.readouterr().out

    def test_out_writes_loadable_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "plan.json"
        rc = compile_main(
            ["--workload", "clientbuy", "--out", str(artifact)]
        )
        capsys.readouterr()
        assert rc == 0
        program = CompiledProgram.from_json(artifact.read_text())
        assert len(program.executed_entries) == 2

    def test_out_with_multiple_sources_is_usage_error(self, tmp_path, capsys):
        rc = compile_main(
            [
                "--workload",
                "clientbuy",
                "--workload",
                "finance",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert rc == 2
        assert "exactly one source" in capsys.readouterr().err

    def test_json_format(self, capsys):
        assert compile_main(["--workload", "clientbuy", "--format", "json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert documents[0]["source"] == "workload:clientbuy"
        assert documents[0]["fingerprint"]

    def test_strict_failure_exit_1(self, capsys):
        rc = compile_main(["--workload", "tpch", "--strict"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "strict compilation failed" in err
        assert "tq6" in err

    def test_no_sources_exit_2(self, capsys):
        assert compile_main([]) == 2
        assert "nothing to compile" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        assert compile_main([str(path)]) == 2

    def test_cache_dir_reuse(self, tmp_path, capsys):
        rc1 = compile_main(
            ["--workload", "clientbuy", "--cache-dir", str(tmp_path)]
        )
        first = capsys.readouterr().out
        rc2 = compile_main(
            ["--workload", "clientbuy", "--cache-dir", str(tmp_path)]
        )
        second = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert "cache hit" not in first
        assert "cache hit" in second

    def test_parser_exposed(self):
        parser = build_compile_parser()
        args = parser.parse_args(["--workload", "tpch", "--strict"])
        assert args.workload == ["tpch"]
        assert args.strict


class TestExplainPlan:
    def test_workload_table(self, capsys):
        assert explain_plan_main(["--workload", "tpch"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[1].split()
        assert header == [
            "constraint", "action", "data-dependent", "predicted_f", "diagnostics"
        ]
        tq6 = next(line for line in out.splitlines() if line.startswith("tq6"))
        assert tq6.split() == [
            "tq6", "execute", "Lineitem.linenumber", "4", "LINT050,LINT051"
        ]

    def test_saved_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "plan.json"
        compile_main(["--workload", "clientbuy", "--out", str(artifact)])
        capsys.readouterr()
        assert explain_plan_main(["--plan", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert str(artifact) in out
        assert "ic1" in out

    def test_config_source(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert explain_plan_main([str(path)]) == 0
        assert "ic1" in capsys.readouterr().out

    def test_missing_artifact_exit_2(self, tmp_path, capsys):
        rc = explain_plan_main(["--plan", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_no_sources_exit_2(self, capsys):
        assert explain_plan_main([]) == 2
        assert "nothing to explain" in capsys.readouterr().err

    def test_parser_exposed(self):
        parser = build_explain_plan_parser()
        args = parser.parse_args(["--plan", "x.json"])
        assert args.plan == ["x.json"]


class TestRepairPlanFlag:
    def test_plan_flag_compiles_and_reports(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = repro_main(
            [
                "repair",
                str(config),
                "--dry-run",
                "--plan",
                "--plan-cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "plan             :" in out
        assert "compiled" in out

    def test_plan_cache_dir_implies_plan(self, tmp_path, capsys):
        config = write_config(tmp_path)
        cache = tmp_path / "cache"
        repro_main(
            ["repair", str(config), "--dry-run", "--plan-cache-dir", str(cache)]
        )
        capsys.readouterr()
        rc = repro_main(
            ["repair", str(config), "--dry-run", "--plan-cache-dir", str(cache)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cache hit" in out


class TestDispatcher:
    def test_compile_registered(self, capsys):
        assert repro_main(["compile", "--workload", "clientbuy"]) == 0
        capsys.readouterr()

    def test_explain_plan_registered(self, capsys):
        assert repro_main(["explain-plan", "--workload", "clientbuy"]) == 0
        capsys.readouterr()

    def test_help_lists_new_subcommands(self, capsys):
        assert repro_main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "compile" in out
        assert "explain-plan" in out
