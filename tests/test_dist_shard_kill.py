"""Shard-death recovery: kill a storage shard mid-run, demand exact sinks.

The injected fault (``kill_shard`` / ``kill_shard_after_ops``) makes the
victim shard hard-exit upon its N-th ``remove_batch`` — mid-stream, with
clients connected and chunks in flight. Recovery must fence nothing less
than the full protocol: detect the exit, respawn the shard on the same
socket path, rebind live workers, reset every task family whose bags
were lost (the loss closure; a lost source bag's input tasks among
them), and replay — ending with sinks byte-identical to the no-fault
LocalRuntime baseline.
"""

import os
import signal

import pytest

from repro.apps import build_clicklog_local, build_hashjoin_local
from repro.dist import DistRuntime, ShardRouter
from repro.local import LocalRuntime
from repro.trace import Tracer

from tests.test_dist_runtime import (
    REGIONS,
    clicklog_baseline,
    clicklog_counts,
    clicklog_records,
    hashjoin_inputs,
    hashjoin_rows,
)


def clicklog_run(shards, victim, ops, **kwargs):
    records = clicklog_records()
    expected = clicklog_baseline(records)
    result = DistRuntime(
        build_clicklog_local(regions=REGIONS),
        workers=3,
        shards=shards,
        chunk_size=2048,
        kill_shard=victim,
        kill_shard_after_ops=ops,
        **kwargs,
    ).run({"clicklog": records}, timeout=180)
    return result, clicklog_counts(result), expected


class TestShardKillRecovery:
    @pytest.mark.parametrize("ops", [1, 3, 6])
    def test_stream_shard_kill_recovers_to_baseline(self, ops):
        # The victim homes the stream bag, so the kill lands mid-stream
        # (remove_batch traffic is guaranteed) and the loss takes the
        # source bag with it — recovery must re-run its input tasks.
        victim = ShardRouter(2).home("clicklog")
        result, counts, expected = clicklog_run(2, victim, ops)
        assert result.shard_deaths == 1
        assert result.family_resets >= 1
        assert counts == expected

    def test_other_shard_kill_recovers_to_baseline(self):
        # The non-stream shard homes intermediate/sink bags; killing it
        # exercises the closure's finished-family resets (outputs already
        # produced there are gone and must be re-produced).
        victim = 1 - ShardRouter(2).home("clicklog")
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=3,
            shards=2,
            chunk_size=2048,
            kill_shard=victim,
            # The kill arms on remove_batch traffic, which reaches this
            # shard once phase2/phase3 stream the bags it homes.
            kill_shard_after_ops=2,
        ).run({"clicklog": records}, timeout=180)
        assert result.shard_deaths == 1
        assert clicklog_counts(result) == expected

    @pytest.mark.parametrize("victim", [0, 1])
    def test_hashjoin_shard_kill_recovers(self, victim):
        # Both shards home at least one streamed bag (relation.s on one,
        # the partitioned s.* on both), so either victim sees remove_batch.
        inputs = hashjoin_inputs()
        expected = hashjoin_rows(
            LocalRuntime(
                build_hashjoin_local(partitions=2), workers=1, cloning=False
            ).run(dict(inputs), timeout=120)
        )
        result = DistRuntime(
            build_hashjoin_local(partitions=2),
            workers=3,
            shards=2,
            kill_shard=victim,
            kill_shard_after_ops=2,
        ).run(dict(inputs), timeout=180)
        assert result.shard_deaths == 1
        assert hashjoin_rows(result) == expected

    def test_shard_kill_with_forced_clones(self):
        # Clones mid-flight when the shard dies: their partial bags join
        # the loss closure and the whole family replays consistently.
        victim = ShardRouter(2).home("clicklog")
        result, counts, expected = clicklog_run(
            2, victim, 4, forced_clones={"phase1": 2}
        )
        assert result.shard_deaths == 1
        assert counts == expected

    def test_shard_and_worker_kill_together(self):
        # Compound failure: a worker AND a shard die in one run. The two
        # recovery paths (fence/cascade vs loss closure) must compose.
        victim = ShardRouter(2).home("clicklog")
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=3,
            shards=2,
            chunk_size=2048,
            kill_shard=victim,
            kill_shard_after_ops=5,
            kill_task="phase1",
            kill_after_chunks=2,
        ).run({"clicklog": records}, timeout=180)
        assert result.shard_deaths == 1
        assert result.worker_deaths == 1
        assert clicklog_counts(result) == expected

    def test_three_shards_single_kill(self):
        victim = ShardRouter(3).home("clicklog")
        result, counts, expected = clicklog_run(3, victim, 3)
        assert result.shard_deaths == 1
        assert counts == expected

    def test_sink_shard_killed_before_the_snapshot_reruns_what_it_lost(self):
        # The result snapshot reads through the master's one waiting loop:
        # a death there is handled like any other — respawned, its lost
        # sinks' families reset — and the run goes back to its event loop
        # instead of returning the respawned shard's empty bags.
        records = clicklog_records()
        runtime = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=3,
            shards=2,
            chunk_size=2048,
        )
        snapshot = runtime._snapshot
        killed = []

        def kill_then_snapshot():
            if not killed:
                victim = runtime.router.home(runtime.graph.sink_bags()[0])
                proc = runtime._shard_procs[victim]
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5.0)
                killed.append(victim)
            return snapshot()

        runtime._snapshot = kill_then_snapshot
        result = runtime.run({"clicklog": records}, timeout=180)
        assert killed and result.shard_deaths == 1
        assert result.family_resets >= 1
        assert clicklog_counts(result) == clicklog_baseline(records)


class TestOneRecoveryPath:
    """Every configuration runs the same shard-death sequence (promote,
    respawn, rebind, recover copies, loss closure over what is still
    lost); which of reopen / resync / refill ran is pinned per
    configuration by what a run already reports — refill being the loss
    closure re-running the lost bags' producers, a source bag's input
    tasks among them."""

    @pytest.mark.parametrize(
        "replication, resident_bytes, recovered_by",
        [
            (1, None, "refill"),
            (1, 8192, "reopen"),
            (2, None, "resync"),
            (2, 8192, "resync"),
        ],
    )
    def test_which_recovery_ran(self, replication, resident_bytes, recovered_by):
        victim = ShardRouter(2).home("clicklog")
        result, counts, expected = clicklog_run(
            2,
            victim,
            3,
            replication=replication,
            resident_bytes=resident_bytes,
            tracer=Tracer(),
        )
        assert result.shard_deaths == 1
        assert counts == expected
        reopens = result.trace_metrics.get("dist.shard_reopens", 0)
        assert reopens == (1 if recovered_by == "reopen" else 0)
        # resync_ms has an entry only when copies were re-replicated: the
        # bench's resync_ms column must stay empty at replication 1.
        assert len(result.resync_ms) == (1 if recovered_by == "resync" else 0)
        assert result.segment_resync == (
            recovered_by == "resync" and resident_bytes is not None
        )
        assert len(result.failover_ms) == (1 if replication > 1 else 0)
        # One op family at every replication level and on either store.
        stats = result.storage_stats
        assert stats["insert"] > 0 and stats["remove_batch"] > 0
        assert not {"rinsert", "rremove_batch", "remove", "read_all"} & set(stats)
        # Only the configuration with no surviving copy anywhere replays.
        if recovered_by == "refill":
            assert result.family_resets > 0
        else:
            assert result.family_resets == 0


class TestResyncUnderTheFrameCap:
    """Re-replication ships one bag per round trip, so the frame cap
    bounds a *bag*, not a shard's whole replicated dataset — and a bag
    that still cannot be framed has no shippable replica: it degrades to
    the replay path instead of killing the run. The cap is lowered
    before the fleet forks, so every process inherits it; one outstanding
    1 KiB chunk per request keeps ordinary traffic far below it."""

    def run(self, monkeypatch, cap, records, resident_bytes):
        from repro.dist import protocol

        monkeypatch.setattr(protocol, "MAX_FRAME_PAYLOAD", cap)
        records = clicklog_records(records)
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=3,
            shards=2,
            replication=2,
            chunk_size=1024,
            batch_requests=1,
            resident_bytes=resident_bytes,
            kill_shard=ShardRouter(2).home("clicklog"),
            kill_shard_after_ops=3,
            tracer=Tracer(),
        ).run({"clicklog": records}, timeout=180)
        assert result.shard_deaths == 1
        assert clicklog_counts(result) == clicklog_baseline(records)
        return result

    # Sizes under the column layout (width-4 u64 columns: the china ips
    # set bit 26, so every clicklog chunk pays 4 B a record whatever the
    # usa ips would need alone). 6 000 generated records keep 1 361; the
    # source bag's package — all six 1 KiB chunks, consumed or not, plus
    # ids and the removal log — frames at 5 750 B from memory and 5 975 B
    # from segments. The ten bags beside it add at least 1 030 B however
    # early the pull lands (eight near-empty ones of ~100 B and the two
    # region bags, ~100 B empty and up to 2.2 KB by the end of phase 1).

    @pytest.mark.parametrize("resident_bytes", [None, 8192])
    def test_dataset_over_the_cap_ships_bag_by_bag(self, monkeypatch, resident_bytes):
        # Regression: the resync pulled every bag a source held in one
        # frame; here that frame (>= 6 750 B) is past the 6 400 B cap
        # while each bag alone (<= 5 975 B) is under it, which used to
        # end the run in a bare ReproError.
        result = self.run(monkeypatch, 6400, 6_000, resident_bytes)
        assert result.family_resets == 0
        assert result.trace_metrics.get("dist.resync_oversize", 0) == 0

    @pytest.mark.parametrize("resident_bytes", [None, 8192])
    def test_one_bag_over_the_cap_degrades_to_replay(self, monkeypatch, resident_bytes):
        # The source bag alone (5 316 records, a ~22 KB package) cannot
        # be framed: it joins the lost bags, its families reset, and the
        # sinks still match.
        result = self.run(monkeypatch, 4000, 24_000, resident_bytes)
        assert result.family_resets > 0
        assert result.trace_metrics["dist.resync_oversize"] >= 1


class TestReplicatedShardKill:
    """With ``replication=2`` a shard death is absorbed by failover: the
    backup replica is promoted and re-replication restores two copies —
    no family replays, no ``reset_families``, sinks identical anyway."""

    @pytest.mark.parametrize("victim", [0, 1])
    def test_kill_either_replica_zero_resets(self, victim):
        result, counts, expected = clicklog_run(2, victim, 2, replication=2)
        assert result.shard_deaths == 1
        assert result.family_resets == 0
        assert result.storage_resets == 0
        assert result.worker_deaths == 0
        assert counts == expected
        # One failover (epoch push) and one re-replication were measured.
        assert len(result.failover_ms) == 1 and result.failover_ms[0] >= 0
        assert len(result.resync_ms) == 1 and result.resync_ms[0] >= 0

    def test_hashjoin_replicated_kill_zero_resets(self):
        inputs = hashjoin_inputs()
        expected = hashjoin_rows(
            LocalRuntime(
                build_hashjoin_local(partitions=2), workers=1, cloning=False
            ).run(dict(inputs), timeout=120)
        )
        result = DistRuntime(
            build_hashjoin_local(partitions=2),
            workers=3,
            shards=2,
            replication=2,
            kill_shard=0,
            kill_shard_after_ops=2,
        ).run(dict(inputs), timeout=180)
        assert result.shard_deaths == 1
        assert result.family_resets == 0
        assert hashjoin_rows(result) == expected

    def test_replicated_kill_with_forced_clones(self):
        # Clones in two workers race remove_batch on the same replicated
        # bag across the failover; the per-client removal logs must keep
        # the partition exact (no chunk double-consumed or dropped).
        victim = ShardRouter(2).home("clicklog")
        result, counts, expected = clicklog_run(
            2, victim, 4, replication=2, forced_clones={"phase1": 2}
        )
        assert result.shard_deaths == 1
        assert result.family_resets == 0
        assert counts == expected

    def test_replicated_shard_and_worker_kill_compose(self):
        # Compound failure: the worker death still resets its family
        # (compute state is unreplicated), but the shard death must not
        # add replay on top — recovery is fence+reset plus failover.
        victim = ShardRouter(2).home("clicklog")
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=3,
            shards=2,
            replication=2,
            chunk_size=2048,
            kill_shard=victim,
            kill_shard_after_ops=5,
            kill_task="phase1",
            kill_after_chunks=2,
        ).run({"clicklog": records}, timeout=180)
        assert result.shard_deaths == 1
        assert result.worker_deaths == 1
        assert clicklog_counts(result) == expected

    def test_replicated_three_shards_r2(self):
        victim = ShardRouter(3).home("clicklog")
        result, counts, expected = clicklog_run(3, victim, 2, replication=2)
        assert result.shard_deaths == 1
        assert result.family_resets == 0
        assert counts == expected

    def test_replication_exceeding_shards_rejected(self):
        with pytest.raises(ValueError):
            DistRuntime(
                build_clicklog_local(regions=REGIONS), shards=2, replication=3
            )


class TestShardKillProtocol:
    def test_respawn_bumps_generation_not_placement(self):
        victim = ShardRouter(2).home("clicklog")
        runtime = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=2,
            shards=2,
            chunk_size=2048,
            kill_shard=victim,
            kill_shard_after_ops=3,
        )
        records = clicklog_records()
        runtime.run({"clicklog": records}, timeout=180)
        assert runtime.shard_deaths == 1
        # The replacement is a new generation of the *same* shard index...
        assert runtime.router.generations[victim] == 1
        # ...and no bag re-homed: placement is pure in (bag_id, shards).
        fresh = ShardRouter(2)
        for bag_id in runtime.graph.bags:
            assert runtime.router.home(bag_id) == fresh.home(bag_id)

    def test_restart_budget_bounds_shard_deaths(self):
        victim = ShardRouter(2).home("clicklog")
        with pytest.raises(Exception) as excinfo:
            DistRuntime(
                build_clicklog_local(regions=REGIONS),
                workers=2,
                shards=2,
                chunk_size=2048,
                kill_shard=victim,
                kill_shard_after_ops=1,
                max_shard_restarts=0,
            ).run({"clicklog": clicklog_records(2000)}, timeout=60)
        assert "restart budget" in str(excinfo.value)

    def test_no_kill_no_deaths(self):
        result, counts, expected = clicklog_run(2, None, 1)
        assert result.shard_deaths == 0
        assert result.storage_resets == 0
        assert counts == expected

    def test_worker_eof_acks_pending_cancel(self, monkeypatch):
        # A member killed between its family's condemnation and its abort
        # poll can never acknowledge the cancel — the corpse's EOF must
        # count as the ack. Without that, the reset waits on the dead
        # worker forever: every survivor idles and the run rides out its
        # timeout (chaos-found: a shard kill and a worker kill landing in
        # the same loss closure, seed 11 hashjoin).
        from types import SimpleNamespace

        runtime = DistRuntime(
            build_hashjoin_local(partitions=2), workers=2, shards=2
        )
        corpse = SimpleNamespace(
            proc=SimpleNamespace(
                is_alive=lambda: False,
                join=lambda timeout=None: None,
                exitcode=17,
            ),
            conn=SimpleNamespace(close=lambda: None),
        )
        runtime._workers = {1: corpse}
        # Mid-condemnation: both partitions' cancels are in flight.
        for record in (
            ("assign", "partition.s", 1),
            ("assign", "partition.r", 2),
            ("condemn", ["partition.r", "partition.s"]),
        ):
            runtime._commit(record)
        applied = []

        def fake_apply():
            applied.append(sorted(runtime.control.condemned))
            runtime._commit(("reset", applied[-1]))

        monkeypatch.setattr(runtime, "_apply_recovery", fake_apply)
        monkeypatch.setattr(runtime, "_spawn_worker", lambda: None)
        monkeypatch.setattr(runtime, "_retrying", lambda fn: None)  # store fence
        monkeypatch.setattr(runtime, "_unwatch", lambda fileobj: None)
        runtime._on_worker_dead(1)
        # The corpse's cancel is acked by its EOF; the reset still waits
        # for the live owner of partition.r, and applies on its ack.
        assert runtime.control.owner("partition.s") is None
        assert not applied
        runtime._on_aborted(2, {"node_id": "partition.r"})
        assert applied == [["partition.r", "partition.s"]]

    def test_nothing_is_dispatched_while_a_reset_is_pending(self, monkeypatch):
        # The loss closure is closed over the families started when it is
        # computed, but applies only once every cancel is acknowledged.
        # A consumer dispatched in between — its producer condemned, the
        # graph not yet reset, so still READY — streamed a bag the reset
        # was about to discard: empty and (after a retried seal on the
        # respawned shard) sealed. It finished on no input and its result
        # stood: about one r=1 shard-kill run in 150 ended with one
        # region's count at 0.
        runtime = DistRuntime(
            build_hashjoin_local(partitions=2), workers=2, shards=2
        )
        # The source bags are filled, then both producers finish, which
        # readies their consumers.
        for task_id in runtime.graph.tasks:
            if not runtime.graph.tasks[task_id].inputs:
                runtime._commit(("assign", task_id, 0))
                runtime._commit(("done", task_id))
        ready = []
        for wid, task_id in enumerate(("partition.r", "partition.s")):
            runtime._commit(("assign", task_id, wid))
            ready += runtime._commit(("done", task_id))
        consumer = ready[0]
        assert "partition.s" in {
            producer.task_id
            for bag_id in consumer.spec.inputs
            for producer in runtime.graph.producers_of(bag_id)
        }
        runtime._ready = [consumer]
        runtime._idle = [0]
        dispatched = []
        monkeypatch.setattr(
            runtime, "_dispatch", lambda wid, node: dispatched.append(node.node_id)
        )
        # partition.s's output is lost: condemned, acks pending.
        runtime._commit(("condemn", ["partition.s"]))
        runtime._assign_ready()
        assert dispatched == []
        assert runtime._ready == [consumer] and runtime._idle == [0]
        # The reset applied: dispatch resumes — with the re-run producer,
        # the consumer having gone back to waiting for it.
        runtime._ready += runtime._commit(("reset", ["partition.s"]))
        runtime._assign_ready()
        assert dispatched == ["partition.s"]
