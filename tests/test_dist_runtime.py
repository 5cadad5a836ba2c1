"""The dist engine against the local engine: parity, cloning, recovery.

Every parity test compares dist sink contents to a single-threaded,
cloning-free LocalRuntime baseline — decoded records, sorted where output
order is interleaving-dependent (multi-record streaming sinks), direct
equality for merged single values.
"""

import os
import threading

import pytest

from repro.apps import (
    build_clicklog_local,
    build_clicklog_stream,
    build_hashjoin_local,
)
from repro.apps.calibration import build_calibration_local, calibration_seeds
from repro.dist import DistRuntime, ShardRouter
from repro.dist.worker import reservoir_sample
from repro.engine.common import source_chunks
from repro.errors import BagError, RemoteTaskError, SchedulingError
from repro.local import LocalRuntime
from repro.model.application import Application
from repro.workloads.clicklog_data import (
    exact_distinct_counts,
    exact_windowed_counts,
    generate_clicklog,
    generate_stream_clicklog,
)
from repro.workloads.relations import generate_relation, join_reference
from tests.test_dist_writer import held_worker  # noqa: F401  (a fixture)

REGIONS = ["usa", "china"]


def clicklog_records(n=6_000):
    # Top 6 bits of the ip select the region; keep only the two regions
    # the restricted graph declares.
    return [
        ip for ip in generate_clicklog(n, skew=0.8, seed=11)
        if (ip >> 26) < len(REGIONS)
    ]


def clicklog_baseline(records):
    result = LocalRuntime(
        build_clicklog_local(regions=REGIONS), workers=1, cloning=False
    ).run({"clicklog": records}, timeout=120)
    return {name: result.value(f"count.{name}") for name in REGIONS}


def clicklog_counts(result):
    return {name: result.value(f"count.{name}") for name in REGIONS}


WINDOWS = 3


def stream_records(n=4_000):
    return list(generate_stream_clicklog(n, skew=0.8, seed=7, windows=WINDOWS))


def windowed_counts(result):
    return {
        (w, region): count
        for w in range(WINDOWS)
        for region, count in result.value(f"counts.{w}").items()
    }


def hashjoin_inputs(build_rows=120, probe_rows=900):
    return {
        "relation.r": list(
            generate_relation(build_rows, key_space=1 << 12, skew=0.9, seed=1)
        ),
        "relation.s": list(
            generate_relation(probe_rows, key_space=1 << 12, skew=0.0, seed=2)
        ),
    }


def hashjoin_rows(result, partitions=2):
    return sorted(
        row for p in range(partitions) for row in result.records(f"join.{p}")
    )


class TestDistParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_clicklog_matches_local(self, workers):
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=workers,
            chunk_size=2048,
        ).run({"clicklog": records}, timeout=120)
        assert clicklog_counts(result) == expected

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_hashjoin_matches_local(self, workers):
        inputs = hashjoin_inputs()
        expected = hashjoin_rows(
            LocalRuntime(
                build_hashjoin_local(partitions=2), workers=1, cloning=False
            ).run(dict(inputs), timeout=120)
        )
        result = DistRuntime(
            build_hashjoin_local(partitions=2),
            workers=workers,
        ).run(dict(inputs), timeout=120)
        assert hashjoin_rows(result) == expected
        assert expected  # the workload actually joined something

    def test_empty_input_aggregation(self):
        result = DistRuntime(build_calibration_local(rounds=5), workers=2).run(
            {"seeds": []}, timeout=60
        )
        assert result.value("checksum") == 0

    def test_a_second_run_is_refused_before_it_forks(self):
        # Every family is already done in the control state: a second run
        # used to fork a whole fleet, schedule nothing, and return no rows.
        runtime = DistRuntime(build_hashjoin_local(partitions=2), workers=2)
        assert hashjoin_rows(runtime.run(hashjoin_inputs(), timeout=120))

        def spawn(index):
            raise AssertionError("a second run forked a shard")

        runtime._spawn_shard = spawn
        with pytest.raises(SchedulingError, match="runs once"):
            runtime.run(hashjoin_inputs(), timeout=120)

    def test_calibration_matches_local(self):
        seeds = calibration_seeds(120)
        expected = (
            LocalRuntime(build_calibration_local(rounds=20), workers=1)
            .run({"seeds": seeds}, timeout=60)
            .value("checksum")
        )
        result = DistRuntime(
            build_calibration_local(rounds=20), workers=2
        ).run({"seeds": seeds}, timeout=60)
        assert result.value("checksum") == expected


class TestStreamParity:
    """The shifting-skew click-log (its hot region moves every window)
    against the exact reference, on both real engines."""

    def test_dist_matches_exact_reference(self):
        records = stream_records()
        result = DistRuntime(
            build_clicklog_stream(windows=WINDOWS),
            workers=2,
            shards=2,
            chunk_size=640,  # ~64 (window, ip) records a chunk
        ).run({"clicks": records}, timeout=180)
        assert windowed_counts(result) == exact_windowed_counts(records)

    def test_local_matches_exact_reference(self):
        records = stream_records()
        result = LocalRuntime(
            build_clicklog_stream(windows=WINDOWS),
            workers=4,
            chunk_size=640,  # ~64 (window, ip) records a chunk
        ).run({"clicks": records}, timeout=120)
        assert windowed_counts(result) == exact_windowed_counts(records)


class TestWorkerLatencyReservoir:
    def test_stats_latencies_are_capped_without_truncation(self):
        # The per-worker latency stats feed the bench percentiles; the
        # old cap froze the first 512 (warm-up) samples. A run long
        # enough to overflow the cap must still report exactly 512
        # samples per worker — reservoir-sampled, which
        # TestReservoirSample proves is truncation-free.
        records = stream_records(3_000)
        result = DistRuntime(
            build_clicklog_stream(windows=WINDOWS),
            workers=2,
            shards=2,
            chunk_size=100,  # ~8 (window, ip) records a chunk
        ).run({"clicks": records}, timeout=180)
        pooled = result.chunk_latency_percentiles()
        assert pooled["count"] <= 2 * 512
        assert pooled["count"] > 0


class TestReservoirSample:
    def test_small_population_returned_whole(self):
        assert reservoir_sample([1, 2, 3], 512, "node") == [1, 2, 3]

    def test_deterministic_in_seed_labels(self):
        population = list(range(5_000))
        first = reservoir_sample(population, 512, "node", 3)
        again = reservoir_sample(population, 512, "node", 3)
        other = reservoir_sample(population, 512, "node", 4)
        assert first == again
        assert first != other

    def test_no_warm_up_bias(self):
        # The old cap kept samples[:512] — all warm-up.  Algorithm R
        # keeps each element with probability k/n, so roughly 3/4 of a
        # 512-sample reservoir over 2048 elements comes from the
        # post-warm-up region, and truncation would keep exactly none.
        population = list(range(2_048))
        kept = reservoir_sample(population, 512, "node", 0)
        assert len(kept) == 512
        late = sum(1 for value in kept if value >= 512)
        assert late > 256

    def test_rejects_empty_reservoir(self):
        with pytest.raises(ValueError):
            reservoir_sample([1], 0, "node")


class TestDistCloning:
    def test_forced_mid_task_clone_keeps_parity(self):
        records = clicklog_records()
        expected = clicklog_baseline(records)
        runtime = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=2,
            chunk_size=1024,
            forced_clones={"phase2.usa": 2},
        )
        result = runtime.run({"clicklog": records}, timeout=120)
        assert result.clone_counts["phase2.usa"] == 3
        assert clicklog_counts(result) == expected

    def test_clone_counts_exposed(self):
        records = clicklog_records()
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=4,
            chunk_size=1024,
            clone_min_chunks=1,
        ).run({"clicklog": records}, timeout=120)
        assert set(result.clone_counts) >= {"phase1", "phase2.usa", "phase3.usa"}
        assert result.total_clones() >= 0


class TestDistRecovery:
    def test_killed_aggregation_worker_recovers(self):
        records = clicklog_records()
        expected = clicklog_baseline(records)
        runtime = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=2,
            chunk_size=1024,
            kill_task="phase2.usa",
            kill_after_chunks=1,
        )
        result = runtime.run({"clicklog": records}, timeout=120)
        assert result.worker_deaths == 1
        assert result.family_resets == 1
        assert clicklog_counts(result) == expected

    def test_killed_streaming_worker_recovers(self):
        inputs = hashjoin_inputs()
        expected = hashjoin_rows(
            LocalRuntime(
                build_hashjoin_local(partitions=2), workers=1, cloning=False
            ).run(dict(inputs), timeout=120)
        )
        runtime = DistRuntime(
            build_hashjoin_local(partitions=2),
            workers=2,
            kill_task="partition.s",
            kill_after_chunks=1,
        )
        result = runtime.run(dict(inputs), timeout=120)
        assert result.worker_deaths == 1
        assert result.family_resets == 1
        assert hashjoin_rows(result) == expected

    def test_task_error_propagates(self):
        app = Application("boom")
        app.bag("in", codec="u64")
        app.bag("out", codec="u64")

        def explode(ctx):
            for _ in ctx.records():
                raise ValueError("task exploded")

        app.task("t", ["in"], ["out"], fn=explode)
        with pytest.raises(RemoteTaskError, match="task exploded"):
            DistRuntime(app, workers=1).run({"in": [1, 2, 3]}, timeout=60)


class TestDistBatchSampling:
    def test_remove_batch_is_the_chunk_path(self):
        records = clicklog_records()
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=2,
            chunk_size=1024,
            batch_requests=4,
        ).run({"clicklog": records}, timeout=120)
        assert result.storage_stats.get("remove_batch", 0) > 0
        assert result.storage_stats.get("chunks_removed", 0) > 0
        percentiles = result.chunk_latency_percentiles()
        assert percentiles["count"] > 0
        assert percentiles["p50_ms"] <= percentiles["max_ms"]

    def test_chunks_processed_counted(self):
        seeds = calibration_seeds(200)
        # chunk_size controls chunking; 128 bytes holds only a handful of seeds.
        result = DistRuntime(
            build_calibration_local(rounds=5), workers=1, chunk_size=128
        ).run({"seeds": seeds}, timeout=60)
        assert result.chunks_processed > 5
        assert result.records_processed == 200


class TestBatchForm:
    """The in-tree task functions read ``batches()`` and write ``emit_many``."""

    @pytest.mark.parametrize(
        "workers,schedule",
        [(1, {}), (2, {"phase1": 1}), (3, {"phase1": 2, "phase2.usa": 1})],
    )
    def test_clicklog_against_the_engine_free_reference(self, workers, schedule):
        # Forced clones start with the original: two or three members drain
        # one input bag through ``batches()`` from separate processes.
        records = clicklog_records()
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=workers,
            chunk_size=512,
            forced_clones=schedule,
        ).run({"clicklog": records}, timeout=120)
        assert clicklog_counts(result) == exact_distinct_counts(records)
        for task_id, clones in schedule.items():
            # At least: idle workers may clone further on their own.
            assert result.clone_counts[task_id] >= 1 + clones

    @pytest.mark.parametrize(
        "workers,schedule", [(1, {}), (3, {"partition.s": 2, "join.0": 1})]
    )
    def test_hashjoin_against_the_engine_free_reference(self, workers, schedule):
        inputs = hashjoin_inputs()
        result = DistRuntime(
            build_hashjoin_local(partitions=2, key_space=1 << 12),
            workers=workers,
            chunk_size=512,
            forced_clones=schedule,
        ).run(dict(inputs), timeout=120)
        assert hashjoin_rows(result) == join_reference(
            inputs["relation.r"], inputs["relation.s"]
        )

    def test_second_records_call_resumes_the_first(self):
        """The dist context's half of the one-cursor rule (the rest of the
        chunk the first reader stopped in used to be dropped)."""
        app = Application("twice-read")
        app.bag("in", codec="u64")
        app.bag("out", codec="u64")

        def task(ctx):
            ctx.emit(None, next(ctx.records()))
            for value in ctx.records():
                ctx.emit(None, value)

        app.task("t", ["in"], ["out"], fn=task)
        result = DistRuntime(app, workers=1, chunk_size=64).run(
            {"in": list(range(100))}, timeout=60
        )
        assert result.records("out") == list(range(100))
        assert result.records_processed == 100


def aggregation_app(merge="sum"):
    """in -> double (a map) -> doubled -> agg (an aggregation) -> total."""
    app = Application("aggregate")
    for bag_id in ("in", "doubled", "total"):
        app.bag(bag_id, codec="u64")

    def double(ctx):
        for batch in ctx.batches():
            ctx.emit_many(None, [2 * value for value in batch])

    def agg(ctx):
        return sum(sum(batch) for batch in ctx.batches())

    app.task("double", ["in"], ["doubled"], fn=double)
    app.task("agg", ["doubled"], ["total"], fn=agg, merge=merge)
    return app


AGGREGATION_INPUT = list(range(1, 1201))
AGGREGATION_TOTAL = 2 * sum(AGGREGATION_INPUT)
STORAGE = {
    "memory": {},
    "spill": {"resident_bytes": 2048},
    "r2": {"shards": 2, "replication": 2},
}


class TestAggregationWritesItsOwnOutput:
    """An aggregation's value is put into its output bag by the family's own
    workers — member 0 directly, a cloned family's merge node by replacing
    member 0's partial — and the master touches that bag only to seal it."""

    @pytest.mark.parametrize("storage", sorted(STORAGE))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("clones", [0, 1, 2])
    def test_sink_equals_the_engine_free_fold(self, clones, workers, storage):
        app = aggregation_app()
        runtime = DistRuntime(
            app,
            workers=workers,
            cloning=False,  # the forced schedule is the only source of clones
            chunk_size=256,
            forced_clones={"agg": clones} if clones else None,
            **STORAGE[storage],
        )
        result = runtime.run({"in": AGGREGATION_INPUT}, timeout=120)
        assert result.records("total") == [AGGREGATION_TOTAL]
        assert result.clone_counts["agg"] == 1 + clones
        assert result.family_resets == 0
        if clones:
            return
        # Un-cloned, no chunk crosses the master: the only reads are the
        # snapshot's (a data page and the empty page that ends the stream),
        # and every insert frame carries the next ``b`` chunks (fewer at the
        # end) one of the ``workers`` input tasks cut from its slice of the
        # input, or that the map emitted, or the aggregation's one value.
        chunking = dict(chunk_size=256)
        n = len(AGGREGATION_INPUT)
        emitted = [
            source_chunks(
                app.graph,
                "in",
                AGGREGATION_INPUT[i * n // workers:(i + 1) * n // workers],
                **chunking,
            )
            for i in range(workers)
        ]
        emitted.append(
            source_chunks(
                app.graph, "doubled", [2 * v for v in AGGREGATION_INPUT], **chunking
            )
        )
        b = runtime.settings.batch_requests
        frames = sum(-(-len(chunks) // b) for chunks in emitted)
        assert result.storage_stats["read_page"] == 2
        assert result.storage_stats["insert"] == (frames + 1) * runtime.replication

    @pytest.mark.parametrize("storage", ["memory", "r2"])
    def test_merge_worker_dying_inside_the_replace(self, tmp_path, storage):
        # The merge procedure runs after the output bag was emptied and
        # before the merged value goes in: dying there leaves the bag torn.
        # It is a worker death inside the family like any other — the reset
        # discards the bag and the clone's partial, and everyone re-runs.
        died = tmp_path / "died"

        def dying_sum(a, b):
            if not died.exists():
                died.touch()
                os._exit(23)
            return a + b

        result = DistRuntime(
            aggregation_app(merge=dying_sum),
            workers=2,
            cloning=False,
            chunk_size=256,
            forced_clones={"agg": 1},
            **STORAGE[storage],
        ).run({"in": AGGREGATION_INPUT}, timeout=120)
        assert died.exists()
        assert result.worker_deaths == 1
        assert result.family_resets == 1
        assert result.records("total") == [AGGREGATION_TOTAL]  # once, no partial

    @pytest.mark.parametrize("replication", [1, 2])
    def test_output_home_shard_dying_under_a_cloned_family(self, replication):
        # The shard homing the output also homes the family's stream input
        # (the fault fires on its third ``remove_batch``): at r=1 both bags
        # go with it, at r=2 both fail over mid-family.
        router = ShardRouter(2, replication)
        victim = router.home("total")
        assert router.home("doubled") == victim
        result = DistRuntime(
            aggregation_app(),
            workers=2,
            cloning=False,
            chunk_size=256,
            forced_clones={"agg": 1},
            shards=2,
            replication=replication,
            kill_shard=victim,
            kill_shard_after_ops=3,
        ).run({"in": AGGREGATION_INPUT}, timeout=120)
        assert result.shard_deaths == 1
        assert result.records("total") == [AGGREGATION_TOTAL]

    def test_shared_merge_output_is_refused_at_construction(self):
        app = Application("shared")
        app.bag("in", codec="u64")
        app.bag("other", codec="u64")
        app.bag("out", codec="u64")

        def count(ctx):
            return len(list(ctx.records()))

        def copy(ctx):
            for batch in ctx.batches():
                ctx.emit_many(None, batch)

        app.task("agg", ["in"], ["out"], fn=count, merge="sum")
        app.task("copy", ["other"], ["out"], fn=copy)
        with pytest.raises(SchedulingError, match="'agg'.*'out'.*'copy'"):
            DistRuntime(app, workers=1)
        # The local engine keeps partials in a dict and only ever appends
        # to the bag, so the same graph stays legal there.
        result = LocalRuntime(app, workers=2).run(
            {"in": [7, 8, 9], "other": [1, 2]}, timeout=60
        )
        assert sorted(result.records("out")) == [1, 2, 3]


class TestEmitIntoTheMergeOutput:
    """The merge output holds the returned value only. Emitting into it
    used to give results that depended on the clone count: the records sat
    beside the value un-cloned, and hit a partial bag no codec knows once
    cloned (``KeyError: 'agg.partial.1'``)."""

    @staticmethod
    def app(named):
        app = Application("emit-into-merge-output")
        app.bag("in", codec="u64")
        app.bag("out", codec="u64")

        def agg(ctx):
            total = 0
            for batch in ctx.batches():
                ctx.emit("out" if named else None, len(batch))
                total += len(batch)
            return total

        app.task("agg", ["in"], ["out"], fn=agg, merge="sum")
        return app

    @pytest.mark.parametrize("named", [False, True])
    @pytest.mark.parametrize("clones", [0, 1])
    def test_refused_on_the_local_engine(self, clones, named):
        runtime = LocalRuntime(
            self.app(named), workers=2, chunk_size=64, forced_clones={"agg": clones}
        )
        with pytest.raises(BagError, match="holds the returned value only"):
            runtime.run({"in": list(range(200))}, timeout=60)

    @pytest.mark.parametrize("named", [False, True])
    @pytest.mark.parametrize("clones", [0, 1])
    def test_refused_on_the_dist_engine(self, clones, named):
        runtime = DistRuntime(
            self.app(named), workers=2, chunk_size=64, forced_clones={"agg": clones}
        )
        with pytest.raises(RemoteTaskError, match="holds the returned value only"):
            runtime.run({"in": list(range(200))}, timeout=60)


def test_cancel_mid_task_is_acknowledged_within_one_batch(held_worker):
    """The cancel poll sits in the chunk loop under both forms: a task on
    ``batches()`` handed a cancel while it works on one batch is unwound
    before it sees the next, however much input is waiting."""
    seen, holding, release = [], threading.Event(), threading.Event()

    def task(ctx):
        for batch in ctx.batches():
            seen.append(len(batch))
            ctx.emit_many(None, batch)
            holding.set()
            assert release.wait(10)

    master_end, shard = held_worker(
        task, records=range(2**40, 2**40 + 200), input_chunk_size=64
    )
    try:
        assert len(shard.chunks) > 10  # plenty still to fetch
        assert holding.wait(10)
        master_end.send({"type": "cancel", "node_id": "copy#0"})
    finally:
        release.set()
    while not master_end.poll(0.01):
        for future in shard.inserts:  # ``aborted`` waits for the inserts' acks
            if not future.done():
                future.set_result(None)
    assert master_end.recv() == {"type": "aborted", "node_id": "copy#0"}
    assert len(seen) == 1
