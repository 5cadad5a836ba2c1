"""Bag-sharded storage: parity, routed clients, and exactly-once removal.

The dist engine must produce byte-identical sinks on every (shards,
workers) combination — the ShardRouter moves bags between server
processes, never changes what is computed. These tests sweep the
shards x workers grid against the single-threaded LocalRuntime baseline,
force mid-task clones across shards, and check that two clones racing
``remove_batch`` on the same shard still hand each chunk to exactly one
of them.
"""

import multiprocessing

import pytest

from repro.apps import build_clicklog_local, build_hashjoin_local
from repro.apps.calibration import build_calibration_local, calibration_seeds
from repro.dist import DistRuntime, ShardRouter, server
from repro.dist.client import ShardedBagStore
from repro.local import LocalRuntime

from tests.test_dist_runtime import (
    REGIONS,
    clicklog_baseline,
    clicklog_counts,
    clicklog_records,
    hashjoin_inputs,
    hashjoin_rows,
)

SHARD_COUNTS = [1, 2, 4]


def count_inserted_chunks(monkeypatch):
    """A counter of the chunks every shard's ``insert`` frames carry,
    shared with the shard processes the run forks after this patch."""
    inserted = multiprocessing.Value("q", 0)
    real_dispatch = server._dispatch

    def dispatch(state, conn_id, req):
        if req[0] == "insert":
            with inserted.get_lock():
                inserted.value += len(req[1])
        return real_dispatch(state, conn_id, req)

    monkeypatch.setattr(server, "_dispatch", dispatch)
    return inserted


class TestShardedParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_clicklog_matches_local(self, shards, workers):
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=workers,
            shards=shards,
            chunk_size=2048,
        ).run({"clicklog": records}, timeout=120)
        assert clicklog_counts(result) == expected
        assert result.shards == shards
        assert len(result.shard_stats) == shards

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_hashjoin_matches_local(self, shards):
        inputs = hashjoin_inputs()
        expected = hashjoin_rows(
            LocalRuntime(
                build_hashjoin_local(partitions=2), workers=1, cloning=False
            ).run(dict(inputs), timeout=120)
        )
        result = DistRuntime(
            build_hashjoin_local(partitions=2),
            workers=2,
            shards=shards,
        ).run(dict(inputs), timeout=120)
        assert hashjoin_rows(result) == expected
        assert expected

    @pytest.mark.parametrize("shards", [2, 4])
    def test_calibration_matches_local(self, shards):
        seeds = calibration_seeds(120)
        expected = (
            LocalRuntime(build_calibration_local(rounds=20), workers=1)
            .run({"seeds": seeds}, timeout=60)
            .value("checksum")
        )
        result = DistRuntime(
            build_calibration_local(rounds=20),
            workers=2,
            shards=shards,
        ).run({"seeds": seeds}, timeout=60)
        assert result.value("checksum") == expected

    def test_every_shard_serves_traffic(self):
        # With enough bags, the pseudorandom spread leaves no shard idle —
        # the whole point of making Eq. 1's m real.
        records = clicklog_records()
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=2,
            shards=2,
            chunk_size=2048,
        ).run({"clicklog": records}, timeout=120)
        for stats in result.shard_stats:
            served = sum(
                count for op, count in stats.items() if op != "shard"
            )
            assert served > 0, f"shard {stats.get('shard')} served no requests"


class TestShardedCloning:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_forced_mid_task_clones_keep_parity(self, shards):
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=4,
            shards=shards,
            chunk_size=1024,
            forced_clones={"phase1": 2},
        ).run({"clicklog": records}, timeout=120)
        assert clicklog_counts(result) == expected
        assert result.clone_counts["phase1"] >= 3

    @pytest.mark.parametrize("shards", [2, 4])
    def test_racing_clones_remove_each_chunk_exactly_once(self, shards, monkeypatch):
        # Two forced clones and the original all stream the same input bag
        # on one shard; server-side serialization must hand out each chunk
        # exactly once, or the sink counts would overshoot the baseline.
        records = clicklog_records()
        expected = clicklog_baseline(records)
        inserted = count_inserted_chunks(monkeypatch)
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=3,
            shards=shards,
            chunk_size=512,  # many chunks -> long race window
            forced_clones={"phase1": 2},
            snapshot_bags="all",
        ).run({"clicklog": records}, timeout=120)
        assert clicklog_counts(result) == expected
        # The family processed the bag's chunks once, together: total
        # chunks removed across shards equals chunks inserted (no chunk
        # vanished, none was double-served). An ``insert`` frame carries
        # several chunks, so the shards count the chunks themselves.
        assert result.storage_stats["chunks_removed"] <= inserted.value
        filtered = sum(
            len(result.records(f"region.{name}")) for name in REGIONS
        )
        assert filtered == len(
            [ip for ip in records if (ip >> 26) < len(REGIONS)]
        )


class TestShardedRuntimeSurface:
    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            DistRuntime(build_clicklog_local(regions=REGIONS), shards=0)
        with pytest.raises(ValueError):
            DistRuntime(
                build_clicklog_local(regions=REGIONS), shards=2, kill_shard=2
            )

    def test_per_shard_latency_percentiles(self):
        records = clicklog_records()
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=2,
            shards=2,
            chunk_size=2048,
        ).run({"clicklog": records}, timeout=120)
        per_shard = result.per_shard_latency_percentiles()
        assert per_shard  # at least one shard streamed chunks
        total = 0
        for shard, summary in per_shard.items():
            assert 0 <= shard < 2
            assert summary["count"] > 0
            assert summary["p50_ms"] <= summary["p99_ms"] <= summary["max_ms"]
            total += summary["count"]
        # Pooled percentiles summarize exactly the per-shard samples.
        assert total == result.chunk_latency_percentiles()["count"]

    def test_sharded_store_routes_and_fans_out(self):
        # Regression for the single-server assumptions fixed alongside the
        # sharding work: remaining_many must split per shard and merge, and
        # stats must report per-shard (not whichever server answered).
        router = ShardRouter(3)
        bag_ids = [f"bag.{i}" for i in range(12)]
        partition = router.partition(bag_ids)
        assert sorted(b for group in partition.values() for b in group) == sorted(
            bag_ids
        )
        for shard, group in partition.items():
            for bag_id in group:
                assert router.home(bag_id) == shard

    def test_single_shard_matches_pre_sharding_surface(self):
        # shards=1 is the old topology: one server process, aggregate
        # op counters identical to the per-shard entry (gauges like the
        # RSS high-water are per-shard only, never summed).
        records = clicklog_records(2000)
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=2,
            shards=1,
            chunk_size=2048,
        ).run({"clicklog": records}, timeout=120)
        assert len(result.shard_stats) == 1
        gauges = {"shard", "rss_hwm_kb", "resident_peak_bytes"}
        only = {
            op: count
            for op, count in result.shard_stats[0].items()
            if op not in gauges
        }
        assert only == result.storage_stats
