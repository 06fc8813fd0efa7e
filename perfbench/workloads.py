"""The three benchmark workloads and their output checks.

Each workload generates its inputs from the seed, sets the program up,
runs one op at a time (closed loop, one client, no threads) and checks
every op's output outside the timed region.  ``traced_op`` composes the
same op from the public stage functions, one span per layer call, for
the traced run's per-layer numbers.

Interface used by ``run.py``:

* ``setup()`` - the program-side set-up, including one warm-up op
  (timed as ``setup_s``; called several times, the last state is kept);
* ``start()`` - untimed baselines for the checks, after the last set-up;
* ``prepare()`` then ``op()`` - the untimed reset before one op, then the
  timed op;
* ``check(out)`` - raises :class:`CheckFailed` when the op's output is
  wrong;
* ``finish()`` - end-of-run checks;
* ``trace_setup()`` / ``traced_op(rec, op_id)`` - the traced run, with
  one span per name in ``stages``.
"""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
import sqlite3
from pathlib import Path

from repro.model.columnar import store_for
from repro.repair.apply import apply_cover
from repro.repair.builder import build_repair_problem
from repro.repair.engine import repair_database
from repro.repair.incremental import IncrementalRepairer
from repro.repair.result import RepairResult
from repro.repair.serialize import apply_changes
from repro.setcover.solvers import get_solver, resolve_solver_engine
from repro.storage.base import ExportMode
from repro.storage.sqlite import SqliteBackend
from repro.system.config import RepairConfig
from repro.system.pipeline import RepairProgram
from repro.violations.detector import find_all_violations, is_consistent
from repro.violations.kernels import resolve_engine
from repro.workloads.clientbuy import client_buy_workload
from repro.workloads.tpch_like import tpch_like_workload

#: Inclusive ranges every seed's input must fall into (checked each run).
#: Seed 0: tpch 123,091 tuples / 973 violations, Client/Buy 60,015 / 12,610.
TPCH_TUPLES = (118_000, 128_000)
TPCH_VIOLATIONS = (780, 1_150)
CLIENTBUY_TUPLES = (59_000, 61_000)
CLIENTBUY_VIOLATIONS = (11_800, 13_400)
#: Violations per 64-update commit, averaged over a run.
INCREMENTAL_VIOLATIONS = (3.0, 12.0)

UPDATES_PER_OP = 64
#: ``tpch_incremental`` reports the cover weight of this many commits, so
#: the figure does not depend on how many ops fit in a run.
WEIGHED_COMMITS = 512


class CheckFailed(Exception):
    """An op produced a wrong output."""


def instance_digest(instance, constraints) -> str:
    """Digest of the generated input: every row in order, plus the ICs."""
    digest = hashlib.sha256()
    for constraint in constraints:
        digest.update(repr(constraint).encode())
    for relation in instance.schema:
        digest.update(relation.name.encode())
        for tup in instance.tuples(relation.name):
            digest.update(repr(tup.values).encode())
    return digest.hexdigest()[:16]


def changes_digest(changes) -> str:
    digest = hashlib.sha256()
    for change in changes:
        digest.update(
            repr(
                (
                    change.ref.relation_name,
                    change.ref.key_values,
                    change.attribute,
                    change.old_value,
                    change.new_value,
                )
            ).encode()
        )
    return digest.hexdigest()[:16]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _in_range(value, bounds, what: str) -> None:
    _require(bounds[0] <= value <= bounds[1], f"{what} {value} outside {bounds}")


def check_repair(source, constraints, changes, repaired) -> None:
    """The output check shared by the batch workloads.

    The repaired instance satisfies IC under the paper-literal
    interpreted detector, every change touches a flexible attribute, and
    replaying the changes on the source gives the repaired instance.
    """
    _require(
        is_consistent(repaired, constraints, engine="interpreted"),
        "repaired instance violates IC",
    )
    schema = source.schema
    for change in changes:
        attribute = schema.relation(change.ref.relation_name).attribute(change.attribute)
        _require(attribute.is_flexible, f"change on hard attribute: {change}")
    _require(apply_changes(source, changes) == repaired, "source + changes != repaired")


class _Batch:
    """Shared parts of the two whole-instance workloads.

    Every op repairs the same input, so the first op's output gets the
    full check and every later op must reproduce it digest for digest.
    """

    def __init__(self) -> None:
        self.weight: float | None = None
        self.violations = 0
        self.stats: dict = {}
        self._verified: tuple[str, str] | None = None

    def _check_result(self, result: RepairResult, violation_range) -> None:
        digest = (changes_digest(result.changes), instance_digest(result.repaired, ()))
        if self._verified is None:
            _in_range(result.violations_before, violation_range, "violations")
            check_repair(self.source, self.constraints, result.changes, result.repaired)
            self._verified = digest
            self.weight = result.cover_weight
            self.violations = result.violations_before
        _require(digest == self._verified, "output differs from the verified first op")
        _require(result.cover_weight == self.weight, "cover weight differs between ops")
        self.stats = dict(result.solver_stats)

    def start(self) -> None:
        pass

    def finish(self) -> None:
        pass

    def trace_setup(self) -> None:
        pass

    def cover_weight(self) -> tuple[float, int]:
        """Summed cover weight and the violations it covers."""
        return self.weight, self.violations

    def engines(self) -> dict[str, str]:
        return {
            "detect": str(self.stats.get("detection_engine", "?")),
            "verify": resolve_engine("auto"),
            "solver": str(self.stats.get("solver_engine", "?")),
        }

    def close(self) -> None:
        pass

    def _compose(self, rec, op_id, instance, config):
        """detect -> reduce -> solve -> apply -> snapshot -> verify, one span each."""
        with rec.span("violations.detect", op_id):
            violations = find_all_violations(instance, self.constraints, engine="auto")
        with rec.span("repair.reduce", op_id):
            problem = build_repair_problem(
                instance, self.constraints, metric=config.metric, violations=violations
            )
        with rec.span("setcover.solve", op_id):
            engine = resolve_solver_engine(config.solver_engine)
            cover = get_solver(config.algorithm, engine)(problem.setcover)
        with rec.span("repair.apply", op_id):
            repaired, changes, distance = apply_cover(problem, cover)
        with rec.span("model.snapshot", op_id):
            # Snapshot columns are built lazily on first use; build every
            # column of every constrained relation so verify finds them warm.
            store = store_for(repaired)
            for name in {n for c in self.constraints for n in c.relation_names}:
                snapshot = store.relation(repaired, name)
                for position in range(len(repaired.schema.relation(name).attributes)):
                    if snapshot.numeric(position) is None:
                        snapshot.column(position)
        with rec.span("violations.verify", op_id):
            _require(is_consistent(repaired, self.constraints, engine="auto"), "verify failed")
        counts = {
            "violations.violations": len(violations),
            "repair.sets": len(problem.setcover.sets),
            "repair.elements": problem.setcover.n_elements,
            "setcover.selected": len(cover.selected),
            "setcover.useful_ratio": len(cover.selected) / len(problem.setcover.sets),
        }
        result = RepairResult(
            repaired=repaired,
            algorithm=cover.algorithm,
            cover_weight=cover.weight,
            distance=distance,
            changes=changes,
            violations_before=len(violations),
            verified=True,
            metric=config.metric,
        )
        return result, counts


class TpchSqlite(_Batch):
    """``RepairProgram(config).run(export=True)`` over a sqlite file."""

    name = "tpch_sqlite"
    min_ops = 3
    memory_ops = 1
    stages = (
        "storage.load", "violations.detect", "repair.reduce", "setcover.solve",
        "repair.apply", "model.snapshot", "violations.verify", "storage.export",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        workload = tpch_like_workload(16, 0.01, seed)
        self.schema = workload.schema
        self.constraints = workload.constraints
        self.source = workload.instance
        _in_range(len(self.source), TPCH_TUPLES, "tuples")
        self.input_digest = instance_digest(self.source, self.constraints)
        self.rows = len(self.source)
        self.db = workdir / f"tpch-{seed}.db"
        self.pristine = workdir / f"tpch-{seed}.pristine.db"
        self.config = RepairConfig(
            schema=self.schema,
            constraints=self.constraints,
            source={"backend": "sqlite", "path": str(self.db)},
            export_mode=ExportMode.UPDATE,
        )
        self._source_rows = self._rows_of(self.source)
        self._expected_rows: dict[str, set] | None = None

    def setup(self) -> None:
        for path in (self.db, self.pristine):
            path.unlink(missing_ok=True)
        SqliteBackend.from_instance(self.source, str(self.db)).close()
        shutil.copyfile(self.db, self.pristine)
        self.prepare()
        self.op()

    def prepare(self) -> None:
        gc.collect()
        shutil.copyfile(self.pristine, self.db)

    def op(self):
        program = RepairProgram(self.config)
        try:
            return program.run(export=True)
        finally:
            program.backend.close()

    def _rows_of(self, instance) -> dict[str, set]:
        return {
            relation.name: {t.values for t in instance.tuples(relation.name)}
            for relation in self.schema
        }

    def _check_export(self, repaired) -> int:
        """Tables equal ``repaired``; returns how many rows differ from the source.

        ``repaired`` is the verified output of the first op (later ops are
        held digest-equal to it).
        """
        if self._expected_rows is None:
            self._expected_rows = self._rows_of(repaired)
        with sqlite3.connect(self.db) as connection:
            stored = {
                name: set(connection.execute(f"SELECT * FROM {name}"))
                for name in self._source_rows
            }
        _require(stored == self._expected_rows, "sqlite tables != repaired instance")
        return sum(len(stored[name] - rows) for name, rows in self._source_rows.items())

    def check(self, report) -> None:
        self._check_result(report.result, TPCH_VIOLATIONS)
        self._check_export(report.result.repaired)

    def op_digest(self, report) -> str:
        return changes_digest(report.result.changes)

    def traced_op(self, rec, op_id: int):
        self.prepare()
        with rec.span("op", op_id, leaf=False):
            with rec.span("storage.load", op_id):
                backend = SqliteBackend(str(self.db))
                instance = backend.load_instance(self.schema)
            result, counts = self._compose(rec, op_id, instance, self.config)
            with rec.span("storage.export", op_id):
                backend.export_repair(result, ExportMode.UPDATE)
                backend.close()
        counts["storage.rows_updated"] = self._check_export(result.repaired)
        return changes_digest(result.changes), counts

    def close(self) -> None:
        for path in (self.db, self.pristine):
            path.unlink(missing_ok=True)


class ClientBuyMemory(_Batch):
    """``repair_database`` on a fresh copy of the paper's Client/Buy instance."""

    name = "clientbuy_memory"
    min_ops = 3
    memory_ops = 1
    stages = (
        "violations.detect", "repair.reduce", "setcover.solve",
        "repair.apply", "model.snapshot", "violations.verify",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        workload = client_buy_workload(20_000, 0.30, seed=seed)
        self.constraints = workload.constraints
        self.source = workload.instance
        _in_range(len(self.source), CLIENTBUY_TUPLES, "tuples")
        self.input_digest = instance_digest(self.source, self.constraints)
        self.rows = len(self.source)
        self.config = RepairConfig(schema=workload.schema, constraints=self.constraints)
        self._work = None

    def setup(self) -> None:
        self.prepare()
        self.op()

    def prepare(self) -> None:
        self._work = None
        gc.collect()
        self._work = self.source.copy()

    def op(self):
        return repair_database(self._work, self.constraints)

    def check(self, result) -> None:
        self._check_result(result, CLIENTBUY_VIOLATIONS)

    def op_digest(self, result) -> str:
        return changes_digest(result.changes)

    def traced_op(self, rec, op_id: int):
        self.prepare()
        with rec.span("op", op_id, leaf=False):
            result, counts = self._compose(rec, op_id, self._work, self.config)
        return changes_digest(result.changes), counts


class TpchIncremental:
    """64 staged ``Lineitem`` updates plus one ``commit(snapshot=False)`` per op."""

    name = "tpch_incremental"
    min_ops = WEIGHED_COMMITS
    memory_ops = 101
    stages = ("repair.incremental.stage", "repair.incremental.commit")

    def __init__(self, seed: int, workdir: Path) -> None:
        workload = tpch_like_workload(16, 0.01, seed)
        self.seed = seed
        self.constraints = workload.constraints
        self.source = workload.instance
        _in_range(len(self.source), TPCH_TUPLES, "tuples")
        self.input_digest = instance_digest(self.source, self.constraints)
        self.rows = UPDATES_PER_OP
        self._keys = [t.key for t in self.source.tuples("Lineitem")]
        self._flexible = {
            a.name for a in workload.schema.relation("Lineitem").attributes if a.is_flexible
        }
        self.repairer = None
        self.traced = None
        self._next = 0
        self._weighed: list[tuple[float, int]] = []
        self._violations = 0
        self._commits = 0
        self._last_stats: dict = {}

    def batch(self, index: int) -> list[tuple[tuple, dict[str, int]]]:
        """The ``index``-th update batch; about 10% leave the tq1/tq2/tq6 bounds."""
        rng = random.Random(f"tpch_incremental/{self.seed}/{index}")
        updates = []
        for position in rng.sample(range(len(self._keys)), UPDATES_PER_OP):
            if rng.random() < 0.1:
                if rng.random() < 0.5:
                    changes = {"quantity": rng.randint(46, 70)}
                else:
                    changes = {"discount": rng.randint(11, 30)}
            else:
                changes = {"quantity": rng.randint(1, 45), "discount": rng.randint(0, 10)}
            updates.append((self._keys[position], changes))
        return updates

    def _new_repairer(self):
        """A repairer on the source (repaired on construction), warmed by batch 0."""
        repairer = IncrementalRepairer(self.source, self.constraints)
        self._stage(repairer, self.batch(0))
        repairer.commit(snapshot=False)
        return repairer

    @staticmethod
    def _stage(repairer, batch) -> None:
        for key, changes in batch:
            repairer.update("Lineitem", key, changes)

    def setup(self) -> None:
        self.repairer = None
        gc.collect()
        self.repairer = self._new_repairer()

    def start(self) -> None:
        self._shadow = self.repairer.instance
        self._next = 1

    def trace_setup(self) -> None:
        self.traced = self._new_repairer()

    def prepare(self) -> None:
        self._batch = self.batch(self._next)
        self._next += 1

    def op(self):
        self._stage(self.repairer, self._batch)
        return self.repairer.commit(snapshot=False)

    def check(self, result) -> None:
        """Replays the staged updates and the commit's changes on a shadow copy."""
        shadow = self._shadow
        for key, changes in self._batch:
            shadow.replace_tuple(shadow.get("Lineitem", key).replace(changes))
        for change in result.changes:
            _require(change.attribute in self._flexible, f"change on hard attribute: {change}")
            current = shadow.resolve(change.ref)
            _require(current[change.attribute] == change.old_value, f"stale change {change}")
            shadow.replace_tuple(current.replace({change.attribute: change.new_value}))
        self._commits += 1
        self._violations += result.violations_before
        if len(self._weighed) < WEIGHED_COMMITS:
            self._weighed.append((result.cover_weight, result.violations_before))
        if result.changes:
            self._last_stats = dict(result.solver_stats)

    def finish(self) -> None:
        final = self.repairer.instance
        _require(
            is_consistent(final, self.constraints, engine="interpreted"),
            "final instance violates IC",
        )
        _require(final == self._shadow, "final instance != source + updates + changes")
        _in_range(self._violations / self._commits, INCREMENTAL_VIOLATIONS, "violations/commit")

    def cover_weight(self) -> tuple[float, int]:
        return sum(w for w, _ in self._weighed), sum(v for _, v in self._weighed)

    def engines(self) -> dict[str, str]:
        # Commits detect through the join indexes; only the initial repair
        # and consistency check resolve ``engine="auto"``.
        return {
            "detect": f"anchored (initial: {resolve_engine('auto')})",
            "verify": "none",
            "solver": str(self._last_stats.get("solver_engine", "?")),
        }

    def op_digest(self, result) -> str:
        return changes_digest(result.changes)

    def traced_op(self, rec, op_id: int):
        """The batch of the untraced op just run, on the traced repairer."""
        with rec.span("op", op_id, leaf=False):
            with rec.span("repair.incremental.stage", op_id):
                self._stage(self.traced, self._batch)
            with rec.span("repair.incremental.commit", op_id):
                result = self.traced.commit(snapshot=False)
        return changes_digest(result.changes), {
            "repair.incremental.violations": result.violations_before
        }

    def close(self) -> None:
        self.repairer = self.traced = None


WORKLOADS = {cls.name: cls for cls in (TpchSqlite, ClientBuyMemory, TpchIncremental)}
