"""Shared infrastructure for the benchmark harness.

The harness regenerates the paper's evaluation (Section 4):

* ``bench_fig2_distance.py`` - Figure 2, Distance Approximation;
* ``bench_fig3_runtime.py``  - Figure 3, Running Time (MWSCP solver only);
* ``bench_ablation_*.py``    - additional ablations documented in DESIGN.md.

Repair problems are expensive to build (violation detection + reduction),
so they are cached per (workload, size, seed) for the whole session; the
timed region of the Figure-3 benchmarks is exactly the paper's: the MWSCP
solver component alone.

Result series registered by the tests (cover weights, ratios) are printed
in the terminal summary, giving the textual equivalent of the figures -
and recorded into EXPERIMENTS.md-ready tables.

Besides the printed tables, every run emits machine-readable JSON:
``record_bench_json(name, payload)`` writes ``BENCH_<name>.json`` and the
registered series land in ``BENCH_figures.json``, all under
``benchmarks/results/`` (override with ``REPRO_BENCH_JSON_DIR``).  Each
file carries machine metadata (python, platform, cpu count) so perf
trajectories recorded by CI stay comparable across runners.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from collections import defaultdict
from pathlib import Path

from repro.analysis.report import format_series
from repro.repair.builder import RepairProblem, build_repair_problem
from repro.workloads import census_workload, client_buy_workload

_PROBLEM_CACHE: dict[tuple, RepairProblem] = {}

#: series registered by benchmarks: {table title: {series: {x: y}}}
SERIES: dict[str, dict[str, dict]] = defaultdict(dict)

#: JSON payloads registered by benchmarks: {name: payload}.
BENCH_JSON: dict[str, dict] = {}


def bench_json_dir() -> Path:
    """Where ``BENCH_*.json`` artifacts go (env-overridable for CI)."""
    return Path(
        os.environ.get(
            "REPRO_BENCH_JSON_DIR", str(Path(__file__).parent / "results")
        )
    )


def machine_info() -> dict:
    """Runner metadata embedded in every JSON artifact."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def record_bench_json(name: str, payload: dict) -> None:
    """Register one ``BENCH_<name>.json`` artifact (merged per name)."""
    BENCH_JSON.setdefault(name, {}).update(payload)


def quick_mode() -> bool:
    """True when ``REPRO_BENCH_QUICK`` asks for CI-smoke-sized runs."""
    return os.environ.get("REPRO_BENCH_QUICK", "").lower() not in ("", "0", "false")


def bench_sizes(full, quick):
    """Pick benchmark scale: ``full`` normally, ``quick`` in CI smoke runs.

    The one place the ``REPRO_BENCH_QUICK`` switch turns into concrete
    sizes - every ``bench_*.py`` declares both scales through this helper
    instead of open-coding the conditional, so the smoke/full split stays
    greppable and uniform.  Works for size lists and scalar knobs alike.
    """
    return quick if quick_mode() else full


def clientbuy_problem(
    n_clients: int, seed: int = 0, tight_values: bool = False
) -> RepairProblem:
    """Cached Client/Buy repair problem (paper's experimental workload).

    ``tight_values`` narrows the violating-value ranges so candidate fixes
    frequently tie on effective weight - the regime where greedy and layer
    choose different covers (used by the Figure-2 quality benchmark).
    """
    key = ("clientbuy", n_clients, seed, tight_values)
    if key not in _PROBLEM_CACHE:
        ranges = (
            {
                "minor_age_range": (14, 17),
                "bad_credit_range": (51, 54),
                "bad_price_range": (26, 29),
            }
            if tight_values
            else {}
        )
        workload = client_buy_workload(
            n_clients, inconsistency_ratio=0.30, seed=seed, **ranges
        )
        _PROBLEM_CACHE[key] = build_repair_problem(
            workload.instance, workload.constraints
        )
    return _PROBLEM_CACHE[key]


def census_problem(
    n_households: int, household_size: int, seed: int = 0
) -> RepairProblem:
    """Cached census repair problem (degree-of-inconsistency ablation)."""
    key = ("census", n_households, household_size, seed)
    if key not in _PROBLEM_CACHE:
        workload = census_workload(
            n_households, household_size=household_size, dirty_ratio=0.3, seed=seed
        )
        _PROBLEM_CACHE[key] = build_repair_problem(
            workload.instance, workload.constraints
        )
    return _PROBLEM_CACHE[key]


def record_point(table: str, series: str, x, y) -> None:
    """Register one (x, y) point of a named series for the summary."""
    SERIES[table].setdefault(series, {})[x] = y


def _dump_json_artifacts(write_line) -> None:
    """Write every registered JSON artifact to the results directory."""
    artifacts = dict(BENCH_JSON)
    if SERIES:
        artifacts.setdefault("figures", {})["series"] = {
            title: {
                name: {str(x): y for x, y in points.items()}
                for name, points in series.items()
            }
            for title, series in SERIES.items()
        }
    if not artifacts:
        return
    directory = bench_json_dir()
    directory.mkdir(parents=True, exist_ok=True)
    info = machine_info()
    for name, payload in artifacts.items():
        path = directory / f"BENCH_{name}.json"
        path.write_text(
            json.dumps({"machine": info, **payload}, indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        write_line(f"wrote {path}")


def pytest_terminal_summary(terminalreporter):
    """Print the registered series tables and dump the JSON artifacts."""
    if not SERIES and not BENCH_JSON:
        return
    terminalreporter.write_sep("=", "paper-figure series (see EXPERIMENTS.md)")
    for title, series in SERIES.items():
        terminalreporter.write_line("")
        terminalreporter.write_line(format_series(title, "size", series))
    terminalreporter.write_line("")
    _dump_json_artifacts(terminalreporter.write_line)
