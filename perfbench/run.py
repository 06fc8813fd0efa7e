"""End-to-end benchmark of the Figure-1 repair program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpch_sqlite --seed 0 --seconds 20 --trace 0

One process, one closed-loop client: the next op starts when the
previous one returns.  ``--trace 0`` times ops with tracing off and
reports the end-to-end metrics; ``--trace 1`` alternates untraced ops
with ops composed from the public stage functions under the span
recorder and reports the per-layer metrics.  Every op's output is
checked outside the timed region.  Human-readable lines come first; the
last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"

#: Program-side set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5


def _import_program():
    """Import the checkout's own ``repro`` (from ``src/``) and the workloads."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"error: cannot import repro from {src}: {error}")
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {src}")
    import workloads

    return workloads


class Clock:
    """Machine-normalised timing.

    The machine's speed drifts by 20-50% over tens of seconds, and a
    fixed pure-Python loop drifts with it.  So the loop runs between
    measured intervals, and every interval is scaled by ``REF_S`` over the
    mean loop time just before and just after it.  Normalised times are
    seconds on a machine that runs the loop in ``REF_S``; raw times are
    kept for the human-readable lines.
    """

    #: Loop time, in seconds, of the reference machine.
    REF_S = 0.015
    ITERATIONS = 50_000

    def __init__(self) -> None:
        self.loops: list[float] = []
        self._last = self._loop()

    def _loop(self) -> float:
        """Median of three short loops (one hiccup cannot skew it), times three."""
        times = []
        for _ in range(3):
            started = time.perf_counter()
            acc = 0
            for i in range(self.ITERATIONS):
                acc = (acc + i * i) % 1_000_003
            times.append(time.perf_counter() - started)
        loop = 3 * statistics.median(times)
        self.loops.append(loop)
        return loop

    def normalise(self, raw: list[float]) -> list[float]:
        """Scales the intervals measured since the previous call."""
        loop = self._loop()
        factor = self.REF_S / ((self._last + loop) / 2)
        self._last = loop
        return [t * factor for t in raw]


def context_record(workload, clock: Clock) -> dict:
    def version(module: str) -> str:
        try:
            return __import__(module).__version__
        except ImportError:
            return "absent"

    return {
        "workload": workload.name,
        "input_digest": workload.input_digest,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "engines": workload.engines(),
        "calibration_s": statistics.median(clock.loops),
    }


class Tally:
    """Attempted and failed checks of one run: one per op, per traced op,
    and one for the end-of-run check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, check, *args) -> None:
        """Runs one output check; an exception marks the op failed."""
        try:
            check(*args)
        except Exception as error:  # every failure counts against the run
            self.fail(error)
        else:
            self.attempted += 1

    def fail(self, error: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(error).__name__}: {error}")


def _run_op(workload, tally: Tally, memory: bool = False):
    """One checked op; returns ``(seconds, output)``, output ``None`` on failure.

    ``memory=True`` runs the op under ``tracemalloc`` and returns its peak
    (live bytes the op allocated, in MiB) instead of its time.
    """
    workload.prepare()
    if memory:
        tracemalloc.start()
    started = time.perf_counter()
    try:
        out = workload.op()
    except Exception as error:
        tally.fail(error)
        out = None
    finally:
        elapsed = time.perf_counter() - started
        if memory:
            elapsed = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
    if out is not None:
        tally.record(workload.check, out)
    return elapsed, out


#: Ops are timed in blocks of about this much op time, one loop per block.
BLOCK_S = 1.0
#: A run stops early after this many failures; it is incorrect anyway.
MAX_FAILURES = 10


def measure(workload, seconds: float, tally: Tally, clock: Clock) -> dict:
    """The untraced run: set-ups, then ops until ``seconds`` of op time."""
    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        workload.setup()
        setups += clock.normalise([time.perf_counter() - started])
    workload.start()
    # Memory ops first, so they see the same inputs whatever the run length.
    peaks = [_run_op(workload, tally, memory=True)[0] for _ in range(workload.memory_ops)]
    clock.normalise([])  # the first block's loop comes after the memory ops
    raw, times = [], []
    while (sum(raw) < seconds or len(raw) < workload.min_ops) and tally.failed < MAX_FAILURES:
        block = []
        while sum(block) < BLOCK_S and tally.failed < MAX_FAILURES:
            block.append(_run_op(workload, tally)[0])
        raw += block
        times += clock.normalise(block)
    tally.record(workload.finish)
    weight, violations = workload.cover_weight()
    metrics = {
        "latency_p50_ms": statistics.median(times) * 1e3,
        "rows_per_s": workload.rows * len(times) / sum(times),
        "peak_mem_mb": statistics.median(peaks),
        "setup_s": statistics.median(setups),
        "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
        "cover_weight_per_violation": weight / violations,
    }
    # A p90 is reported only with at least ten samples beyond it.
    p90 = sorted(times)[int(0.9 * len(times))] * 1e3 if len(times) >= 100 else None
    notes = {
        "samples": len(times),
        "latency_p90_ms": f"{p90:.6g} ms" if p90 else "n/a (under 10 samples beyond p90)",
        "raw_latency_p50_ms": f"{statistics.median(raw) * 1e3:.6g} ms (not normalised)",
        "cover_weight": weight,
    }
    return metrics, notes


PEAK_STAGES = ("storage.load", "repair.reduce", "repair.apply")
COUNTS = (
    "storage.rows_updated", "violations.violations", "repair.sets", "repair.elements",
    "setcover.selected", "setcover.useful_ratio", "repair.incremental.violations",
)


def measure_traced(workload, seconds: float, tally: Tally, trace_path: Path) -> dict:
    """Alternate untraced ops and span-traced composed ops; per-layer metrics."""
    from workloads import WORKLOADS  # importable once _import_program ran

    workload.setup()
    workload.start()
    workload.trace_setup()
    rec = SpanRecorder()
    untraced, counts = [], []
    op_id = 0
    while sum(untraced) < seconds / 2 or len(untraced) < workload.min_ops:
        elapsed, out = _run_op(workload, tally)
        untraced.append(elapsed)
        expected = workload.op_digest(out) if out is not None else None
        del out
        try:
            digest, op_counts = workload.traced_op(rec, op_id)
        except Exception as error:
            tally.fail(error)
            break
        op_id += 1
        counts.append(op_counts)
        tally.record(_require_digest, digest, expected)
    tally.record(workload.finish)
    if set(PEAK_STAGES) & set(workload.stages):
        rec.memory = True
        tracemalloc.start()
        try:
            workload.traced_op(rec, op_id)
        finally:
            tracemalloc.stop()
            rec.memory = False
    rec.write(trace_path)

    stages = workload.stages
    metrics = {}
    for name in {s for cls in WORKLOADS.values() for s in cls.stages}:
        metrics[name + "_s"] = rec.median_self(name) if name in stages else 0.0
    for name in PEAK_STAGES:
        metrics[name + "_peak_mb"] = rec.peak(name)
    for name in COUNTS:
        values = [c[name] for c in counts if name in c]
        metrics[name] = statistics.fmean(values) if values else 0.0
    traced = [rec.duration(s) for s in rec.spans if s["name"] == "op" and not s["memory"]]
    traced_op_s = statistics.median(traced) if traced else 0.0
    # Glue is what the stage medians leave of the op median, so the stages
    # plus glue give the traced op time, which is the untraced op time plus
    # the tracing overhead.
    metrics["system.glue_s"] = traced_op_s - sum(metrics[name + "_s"] for name in stages)
    metrics["system.untraced_op_s"] = statistics.median(untraced)
    metrics["system.traced_op_s"] = traced_op_s
    metrics["system.tracing_overhead_s"] = traced_op_s - metrics["system.untraced_op_s"]
    return metrics


def _require_digest(digest: str, expected: str | None) -> None:
    if digest != expected:
        raise AssertionError(f"traced changes digest {digest} != untraced {expected}")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    return "ratio" if name.endswith("ratio") else "count"


END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "rows_per_s": "1/s",
    "peak_mem_mb": "MiB",
    "setup_s": "s",
    "ok_rate": "ratio",
    "cover_weight_per_violation": "weight/violation",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    # The generated inputs and check baselines belong to the benchmark, not
    # to the program: keep them out of the program's garbage collections.
    gc.collect()
    gc.freeze()
    tally = Tally()
    clock = Clock()
    try:
        if args.trace:
            trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
            values = measure_traced(workload, args.seconds, tally, trace_path)
            units = {name: _unit(name) for name in sorted(values)}
            notes = {}
        else:
            values, notes = measure(workload, args.seconds, tally, clock)
            units = END_TO_END_UNITS
        context = context_record(workload, clock)
    finally:
        workload.close()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"context {json.dumps(context, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, note in notes.items():
        print(f"{args.workload} {name} = {note}")
    print(f"{args.workload} error_rate = {tally.failed / tally.attempted:.6g}")
    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
