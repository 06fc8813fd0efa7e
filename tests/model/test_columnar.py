"""Unit tests for columnar snapshot reuse across commit rounds.

The per-instance store registry is pure bookkeeping and is tested
*without* NumPy; the tests that build real snapshots and drive streaming
commit rounds are gated on the kernel extra.
"""

from __future__ import annotations

import pytest

from repro import StreamingRepairer
from repro.model.columnar import kernel_available, store_for
from repro.workloads import client_buy_workload

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="NumPy not installed (repro[kernel] extra)"
)


@pytest.fixture
def workload():
    return client_buy_workload(20, inconsistency_ratio=0.0, seed=2)


class TestStoreBookkeeping:
    def test_store_for_is_stable_per_instance(self, workload):
        instance = workload.instance.copy()
        assert store_for(instance) is store_for(instance)
        assert store_for(instance) is not store_for(workload.instance)


@needs_kernel
class TestSnapshotReuseAcrossRounds:
    """Warm snapshots survive interleaved streaming commit rounds.

    Every round applies its repair in place: the instance object stays
    and only the mutated relation's version is bumped, so exactly that
    snapshot is rebuilt - with or without result snapshots.
    """

    def _violating_round(self, streamer):
        streamer.update("Client", (0,), a=15, c=60)
        result = streamer.flush()
        assert result.changes                 # a repair actually applied

    def test_snapshot_free_round_reuses_untouched_relation(self, workload):
        streamer = StreamingRepairer(workload.instance, workload.constraints)
        live = streamer._repairer._instance
        store = store_for(live)
        client_snap = store.relation(live, "Client")
        buy_snap = store.relation(live, "Buy")
        self._violating_round(streamer)
        assert streamer._repairer._instance is live
        assert store.relation(live, "Buy") is buy_snap
        assert store.relation(live, "Client") is not client_snap

    def test_snapshotting_round_keeps_untouched_relation_warm(self, workload):
        streamer = StreamingRepairer(
            workload.instance, workload.constraints, snapshot_results=True
        )
        live = streamer._repairer._instance
        store = store_for(live)
        client_snap = store.relation(live, "Client")
        buy_snap = store.relation(live, "Buy")
        self._violating_round(streamer)
        assert streamer._repairer._instance is live
        assert store.relation(live, "Buy") is buy_snap
        assert store.relation(live, "Client") is not client_snap

    def test_interleaved_rounds_stay_warm(self, workload):
        streamer = StreamingRepairer(workload.instance, workload.constraints)
        live = streamer._repairer._instance
        store = store_for(live)
        buy_snap = store.relation(live, "Buy")
        for client in range(3):               # several rounds, Client-only
            streamer.update("Client", (client,), a=15, c=60 + client)
            streamer.flush()
            assert store.relation(live, "Buy") is buy_snap
