"""Replication protocol tests below the DistRuntime level.

Covers the pieces the end-to-end shard-kill tests exercise only in
aggregate: the primary gate and removal shipping on real server
processes, the client sweep's failover behavior, the fence sweep's
continue-past-dead-shards fix, the master's fail-fast store, the
empty-sample latency percentile contract, and a failover behind a busy
master loop, which the shards' own gossip carries. (The bag representation itself — id-keyed sets,
removal-log dedup, monotone ``pull``/``push`` — is
``test_dist_bag_contract.py``.)
"""

import multiprocessing
import os
import time

import pytest

from repro.apps import build_clicklog_stream
from repro.dist import DistRuntime, server
from repro.dist.client import (
    FAIL_FAST_POLICY,
    MuxBatchFetcher,
    ShardedBagStore,
    _parse_epoch_vector,
)
from repro.dist.runtime import _latency_percentiles
from repro.dist.server import storage_server_main
from repro.dist.sharding import ShardRouter
from repro.errors import NotPrimary, StorageNodeDown
from repro.storage.policy import StorageConfig
from repro.workloads.clicklog_data import exact_windowed_counts
from tests.test_dist_runtime import WINDOWS, stream_records, windowed_counts

CTX = multiprocessing.get_context("fork")
AUTHKEY = b"test-replication"

#: Snappy policy: these tests exercise failure paths on purpose, and the
#: production backoff schedule would turn each negative case into seconds
#: of sleeping.
QUICK = StorageConfig(
    rpc_retries=3, retry_backoff=0.01, backoff_multiplier=1.5, rpc_timeout=1.0
)


class _Shards:
    """A real replicated shard group: one server process per index."""

    def __init__(self, tmpdir, count, replication):
        self.paths = [os.path.join(tmpdir, f"shard-{i}.sock") for i in range(count)]
        self.replication = replication
        self.procs = [None] * count
        for index in range(count):
            self.spawn(index)

    def spawn(self, index, epochs=None):
        ready_parent, ready_child = CTX.Pipe(duplex=False)
        proc = CTX.Process(
            target=storage_server_main,
            args=(
                ready_child,
                AUTHKEY,
                index,
                self.paths[index],
                None,
                self.replication,
                list(self.paths),
                dict(epochs or {}),
            ),
            daemon=True,
        )
        proc.start()
        ready_child.close()
        assert ready_parent.poll(15.0), f"shard {index} did not start"
        ready_parent.recv()
        ready_parent.close()
        self.procs[index] = proc

    def kill(self, index):
        self.procs[index].terminate()
        self.procs[index].join(timeout=5.0)

    def store(self, client_id="tester"):
        return ShardedBagStore(
            self.paths,
            AUTHKEY,
            client_id,
            QUICK,
            router=ShardRouter(len(self.paths), self.replication),
        )

    def close(self):
        for proc in self.procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)


@pytest.fixture
def shards2(tmp_path):
    group = _Shards(str(tmp_path), 2, replication=2)
    yield group
    group.close()


class TestPrimaryGate:
    def test_backup_refuses_with_epoch_vector(self, shards2):
        store = shards2.store()
        bag_id = "gate-bag"
        backup = store.router.replicas(bag_id)[1]
        store.get(bag_id).insert(["r0"])
        # Addressed to the backup directly, past the store's routing.
        with pytest.raises(NotPrimary) as excinfo:
            store.stores[backup].call("remove_batch", bag_id, 1, "tester", 1)
        assert _parse_epoch_vector(str(excinfo.value)) == {}
        store.close()

    def test_shipping_consumes_on_backup_before_reply(self, shards2):
        store = shards2.store()
        bag_id = "ship-bag"
        for i in range(3):
            store.get(bag_id).insert([i])
        chunks, _sealed = store.get(bag_id).remove_batch(2)
        assert len(chunks) == 2
        # The backup's copy shows the same chunks consumed already.
        backup = store.router.replicas(bag_id)[1]
        package = store.pull(backup, [bag_id])[bag_id]
        assert len(package["consumed"]) == 2 and len(package["order"]) == 3
        store.close()

    def test_promoted_backup_answers_retry_from_shipped_log(self, shards2):
        store = shards2.store()
        bag_id = "promote-bag"
        for i in range(4):
            store.get(bag_id).insert([i])
        primary, backup = store.router.replicas(bag_id)
        served = store.stores[primary].call(
            "remove_batch", bag_id, 2, "consumer", 1
        )
        # The primary dies before its client saw the reply; the master
        # promotes the backup. The client's retry carries the same seq...
        shards2.kill(primary)
        epochs = {primary: 1}
        store.push_epochs(backup, epochs)
        retry = store.stores[backup].call(
            "remove_batch", bag_id, 2, "consumer", 1
        )
        # ...and gets the recorded removal, not two fresh chunks.
        assert retry == served
        chunks, _sealed = store.stores[backup].call(
            "remove_batch", bag_id, 4, "consumer", 2
        )
        assert len(chunks) == 2  # only the two never-served chunks remain
        store.close()


class TestClientSweep:
    def test_sweep_fails_over_to_promoted_backup(self, shards2):
        store = shards2.store()
        bag_id = "failover-bag"
        for i in range(6):
            store.get(bag_id).insert([i])
        store.get(bag_id).seal()
        primary, backup = store.router.replicas(bag_id)
        shards2.kill(primary)
        store.push_epochs(backup, {primary: 1})
        # The client was never told: its sweep discovers the death, adopts
        # the promotion, and drains the bag from the backup.
        seen = []
        while True:
            chunks, sealed = store.get(bag_id).remove_batch(2)
            seen.extend(chunks)
            if not chunks and sealed:
                break
        assert len(seen) == 6
        assert store.serving_order(bag_id)[0] == backup
        store.close()

    def test_replicated_fetcher_survives_primary_death(self, shards2):
        store = shards2.store()
        bag_id = "fetch-bag"
        for i in range(20):
            store.get(bag_id).insert([i])
        store.get(bag_id).seal()
        primary, backup = store.router.replicas(bag_id)
        fetcher = MuxBatchFetcher(store, bag_id, 2)
        got = [fetcher.get(timeout=5.0)]
        shards2.kill(primary)
        store.push_epochs(backup, {primary: 1})
        while True:
            chunk = fetcher.get(timeout=5.0)
            if chunk is None:
                break
            got.append(chunk)
        fetcher.stop()
        assert sorted(value for [value] in got) == list(range(20))
        store.close()

    def test_sweep_exhaustion_raises_storage_down(self, shards2):
        store = shards2.store()
        bag_id = "doomed-bag"
        store.get(bag_id).insert(["x"])
        shards2.kill(0)
        shards2.kill(1)
        with pytest.raises(StorageNodeDown):
            store.get(bag_id).remove_batch(1)
        store.close()

    def test_epoch_vector_parsing(self):
        assert _parse_epoch_vector("{0: 2, 1: 1}") == {0: 2, 1: 1}
        assert _parse_epoch_vector("{}") == {}
        assert _parse_epoch_vector("not a dict") == {}
        assert _parse_epoch_vector("[1, 2]") == {}


class TestFenceSweep:
    def test_fence_continues_past_dead_shard(self, tmp_path):
        # Shard 0's socket path never gets a listener (a corpse); shard 1
        # is alive. The regression: fence used to raise on shard 0 and
        # never reach shard 1, leaving it unfenced while recovery
        # proceeded as if the corpse's writes were all applied.
        group = _Shards(str(tmp_path), 2, replication=1)
        try:
            group.kill(0)
            os.unlink(group.paths[0])
            store = ShardedBagStore(group.paths, AUTHKEY, "master", QUICK)
            with pytest.raises(StorageNodeDown) as excinfo:
                store.fence("worker-9", 0.2)
            assert "0" in str(excinfo.value)
            # The live shard WAS fenced despite the earlier failure.
            stats = store.stores[1].call("stats")
            assert stats.get("fence", 0) >= 1
            store.close()
        finally:
            group.close()

    def test_fence_all_live_sums_leftovers(self, tmp_path):
        group = _Shards(str(tmp_path), 2, replication=1)
        try:
            store = ShardedBagStore(group.paths, AUTHKEY, "master", QUICK)
            assert store.fence("worker-0", 0.2) == 0
            store.close()
        finally:
            group.close()


class TestTheMasterStoreNeverWaits:
    def test_remaining_many_against_a_dead_primary_returns_at_once(self, shards2):
        # The master's store sweeps under FAIL_FAST_POLICY: against a dead
        # primary whose backup is not promoted yet it fails at the first
        # full refusal, for ``DistRuntime._retrying`` — which promotes — to
        # handle, instead of waiting ~0.8 s inside for the shards' gossip.
        store = ShardedBagStore(
            shards2.paths,
            AUTHKEY,
            "master",
            FAIL_FAST_POLICY,
            router=ShardRouter(2, 2),
        )
        try:
            bag_id = "counted"
            store.get(bag_id).insert(["x"])
            assert store.remaining_many([bag_id]) == {bag_id: 1}
            shards2.kill(store.serving_order(bag_id)[0])
            died = time.monotonic()
            with pytest.raises(StorageNodeDown):
                store.remaining_many([bag_id])
            assert time.monotonic() - died < 0.5
        finally:
            store.close()


class TestEmptyPercentiles:
    def test_empty_samples_yield_none_not_zero(self):
        summary = _latency_percentiles([])
        assert summary["count"] == 0
        assert summary["p50_ms"] is None
        assert summary["p90_ms"] is None
        assert summary["p99_ms"] is None
        assert summary["max_ms"] is None

    def test_nonempty_samples_unchanged(self):
        summary = _latency_percentiles([0.001, 0.002, 0.003])
        assert summary["count"] == 3
        assert summary["p50_ms"] == 2.0
        assert summary["max_ms"] == 3.0

    def test_two_samples_p50_is_lower_rank(self):
        # Nearest-rank: the p50 of two samples is the first (ceil(0.5*2)
        # = rank 1), not the max. The old int(p*n) indexing returned the
        # max here, inflating every small-sample median.
        summary = _latency_percentiles([0.001, 0.009])
        assert summary["p50_ms"] == 1.0
        assert summary["p90_ms"] == 9.0

    def test_single_sample_every_percentile_is_it(self):
        summary = _latency_percentiles([0.004])
        assert summary["count"] == 1
        assert summary["p50_ms"] == 4.0
        assert summary["p90_ms"] == 4.0
        assert summary["p99_ms"] == 4.0
        assert summary["max_ms"] == 4.0

    def test_hundred_samples_hit_exact_ranks(self):
        # n=100 makes nearest-rank exact: p50 = 50th value (1-based),
        # p90 = 90th, p99 = 99th.
        summary = _latency_percentiles([i / 1000.0 for i in range(1, 101)])
        assert summary["p50_ms"] == 50.0
        assert summary["p90_ms"] == 90.0
        assert summary["p99_ms"] == 99.0
        assert summary["max_ms"] == 100.0


class TestFailoverBehindABusyLoop:
    #: The master's one thread promotes a dead shard's backups. Held in the
    #: death handler for 3 s, it cannot push the epochs within the clients'
    #: 2 s patience; the survivors' gossip demotes the corpse after ~0.75 s.
    HOLD_SECONDS = 3.0
    PATIENCE = StorageConfig(
        rpc_retries=12, retry_backoff=0.05, backoff_multiplier=1.6, rpc_timeout=2.0
    )

    @pytest.mark.parametrize("gossip", [True, False], ids=["gossip", "no_gossip"])
    def test_held_loop_fails_over_through_gossip(self, monkeypatch, gossip):
        # With gossip the clients fail over on their own: zero resets. With
        # its demotion switched off the same hold costs a storage reset, so
        # the zero is gossip's doing.
        if not gossip:
            monkeypatch.setattr(server, "GOSSIP_DEATH_STRIKES", 10**9)
        records = stream_records(2_000)
        expected = exact_windowed_counts(records)
        original = DistRuntime._on_shard_dead
        held = []

        def hold(runtime, index, proc):
            if not held:
                held.append(index)
                time.sleep(self.HOLD_SECONDS)
            return original(runtime, index, proc)

        monkeypatch.setattr(DistRuntime, "_on_shard_dead", hold)
        result = DistRuntime(
            build_clicklog_stream(windows=WINDOWS),
            workers=2,
            shards=2,
            replication=2,
            chunk_size=640,  # ~64 (window, ip) records a chunk
            kill_shard=0,
            kill_shard_after_ops=1,
            storage_policy=self.PATIENCE,
        ).run({"clicks": records}, timeout=180)
        assert held == [0]
        assert windowed_counts(result) == expected
        assert result.shard_deaths == 1
        if gossip:
            assert result.family_resets == 0
            assert result.storage_stats.get("gossip_demotions", 0) >= 1
        else:
            assert result.family_resets >= 1
            assert result.storage_stats.get("gossip_demotions", 0) == 0
