"""Master-death recovery: kill the control plane mid-run, demand exact sinks.

The injected fault (``kill_master_after_records``) makes the master die —
simulated ``SIGKILL`` scoped to its in-process state — at the event-loop
top once its write-ahead journal holds N records. Workers and shards are
real processes and genuinely survive; :class:`MasterKilled` hands them to
the test as a :class:`MasterFleet`. Recovery builds a **fresh**
``DistRuntime`` with the same constructor arguments and calls
``resume(fleet, inputs)`` with the inputs the dead master was given:
snapshot + WAL replay reconstructs the control state, the reattach
handshake re-adopts (or fences) the worker fleet, surviving
shards are probed for their epoch vectors and inventories, dead ones are
respawned, and everything the journal cannot prove committed replays
through the ordinary loss-closure machinery — ending with sinks
byte-identical to the no-fault LocalRuntime baseline.
"""

import multiprocessing.connection
import os
import time

import pytest

from repro.apps import build_clicklog_local, build_hashjoin_local
from repro.dist import DistRuntime, MasterKilled, ShardRouter
from repro.dist.client import ShardedBagStore
from repro.dist.journal import MasterJournal, SNAPSHOT_FILE, WAL_FILE
from repro.dist.runtime import input_task_id
from repro.errors import SchedulingError
from repro.local import LocalRuntime
from repro.trace import Tracer

from tests.test_dist_runtime import (
    AGGREGATION_INPUT,
    AGGREGATION_TOTAL,
    REGIONS,
    aggregation_app,
    clicklog_baseline,
    clicklog_counts,
    clicklog_records,
    hashjoin_inputs,
    hashjoin_rows,
)


def kill_and_resume(tmp_path, kill_after, inputs=None, app=None, **kwargs):
    """Run with the master armed to die; resume a successor on the kill.

    Returns ``(result, recovered)`` — ``recovered`` is False when the run
    finished before the journal reached the kill threshold (legal for
    high thresholds: the injection must be a no-op then).
    """
    app = app if app is not None else build_clicklog_local(regions=REGIONS)
    if inputs is None:
        inputs = {"clicklog": clicklog_records()}
    base = dict(workers=2, chunk_size=2048, journal_dir=str(tmp_path), **kwargs)
    runtime = DistRuntime(app, kill_master_after_records=kill_after, **base)
    try:
        return runtime.run(dict(inputs), timeout=180), False
    except MasterKilled as exc:
        successor = DistRuntime(app, kill_master_after_records=None, **base)
        return successor.resume(exc.fleet, dict(inputs), timeout=180), True


class TestMasterKillRecovery:
    @pytest.mark.parametrize("kill_after", [2, 4, 7, 11, 15])
    def test_seeded_kill_points_recover_to_baseline(self, tmp_path, kill_after):
        # Kill points sweep the run's whole life: during initial spawns,
        # mid-phase1, and while the phase2/phase3 families are in flight.
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result, recovered = kill_and_resume(
            tmp_path, kill_after, inputs={"clicklog": records}
        )
        assert clicklog_counts(result) == expected
        if recovered:
            assert result.master_recoveries == 1
            assert len(result.master_failover_ms) == 1
            assert result.master_failover_ms[0] >= 0

    @pytest.mark.parametrize("compact_every", [1, 4])
    def test_kill_under_aggressive_compaction(self, tmp_path, compact_every):
        # Snapshot-heavy journals: recovery replays mostly from the
        # compacted snapshot, with at most compact_every WAL records.
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result, recovered = kill_and_resume(
            tmp_path,
            6,
            inputs={"clicklog": records},
            journal_compact_every=compact_every,
        )
        assert recovered
        assert clicklog_counts(result) == expected

    def test_hashjoin_master_kill(self, tmp_path):
        inputs = hashjoin_inputs()
        expected = hashjoin_rows(
            LocalRuntime(
                build_hashjoin_local(partitions=2), workers=1, cloning=False
            ).run(dict(inputs), timeout=120)
        )
        result, recovered = kill_and_resume(
            tmp_path,
            8,
            inputs=inputs,
            app=build_hashjoin_local(partitions=2),
        )
        assert recovered
        assert hashjoin_rows(result) == expected

    def test_master_and_worker_kill_compose(self, tmp_path):
        # The worker kill may land before the master kill (its delivery
        # journaled, must not re-arm) or during the master-absent window
        # (its dead event lost, re-detected at reattach) — both must
        # converge to baseline sinks.
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result, recovered = kill_and_resume(
            tmp_path,
            9,
            inputs={"clicklog": records},
            kill_task="phase1",
            kill_after_chunks=2,
        )
        assert recovered
        assert clicklog_counts(result) == expected

    def test_master_kill_during_shard_failover(self, tmp_path):
        # r=1: the shard death recovers by loss-closure replay; killing
        # the master mid-window exercises the condemn/reset write-ahead
        # pairing (a death inside the cancel-pending window must replay
        # the condemnation, not resurrect the condemned families).
        records = clicklog_records()
        expected = clicklog_baseline(records)
        victim = ShardRouter(2).home("clicklog")
        result, _ = kill_and_resume(
            tmp_path,
            10,
            inputs={"clicklog": records},
            shards=2,
            kill_shard=victim,
            kill_shard_after_ops=2,
        )
        assert clicklog_counts(result) == expected

    def test_master_kill_replicated_failover(self, tmp_path):
        # r=2: the shard death recovers by epoch promotion. If it lands
        # in the master-absent window the shards' peer-to-peer gossip
        # must demote the corpse, and resume max-merges the gossiped
        # vector from the survivors' probes.
        records = clicklog_records()
        expected = clicklog_baseline(records)
        victim = ShardRouter(3).home("clicklog")
        result, _ = kill_and_resume(
            tmp_path,
            10,
            inputs={"clicklog": records},
            shards=3,
            replication=2,
            kill_shard=victim,
            kill_shard_after_ops=2,
        )
        assert clicklog_counts(result) == expected

    def test_master_kill_with_forced_clones(self, tmp_path):
        # Clone grants are journaled; replay must rebuild the clone and
        # merge wiring (member indices included) before re-adoption.
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result, _ = kill_and_resume(
            tmp_path,
            12,
            inputs={"clicklog": records},
            forced_clones={"phase1": 2},
        )
        assert clicklog_counts(result) == expected

    def test_kill_before_an_aggregations_done_is_journaled(self, tmp_path):
        # The aggregation's worker writes the value into the output bag and
        # then reports ``done`` — to a master that died after journaling
        # the assign. The successor can prove nothing about that node: it
        # replays as RUNNING-unclaimed, and the family reset discards the
        # written value before the re-run writes it again. Present once.
        app = aggregation_app()
        base = dict(
            workers=1, cloning=False, chunk_size=256, journal_dir=str(tmp_path)
        )
        # spawn, assign and done of the input task and of double, assign
        # agg: the master dies at the loop top after handling the
        # aggregation's first progress.
        runtime = DistRuntime(app, kill_master_after_records=6, **base)
        with pytest.raises(MasterKilled) as excinfo:
            runtime.run({"in": AGGREGATION_INPUT}, timeout=60)
        fleet = excinfo.value.fleet
        records = MasterJournal.load(str(tmp_path))
        assert records[-1][:2] == ("assign", "agg")
        probe = ShardedBagStore(fleet.shard_addresses, fleet.authkey, "probe")
        try:
            deadline = time.monotonic() + 10
            while probe.get("total").size() != 1:
                assert time.monotonic() < deadline, "the worker never wrote"
                time.sleep(0.01)
        finally:
            probe.close()
        result = DistRuntime(app, **base).resume(
            fleet, {"in": AGGREGATION_INPUT}, timeout=60
        )
        assert result.master_recoveries == 1
        assert result.family_resets == 1
        assert result.records("total") == [AGGREGATION_TOTAL]

    def test_high_threshold_never_fires(self, tmp_path):
        # Journaling on, kill threshold beyond the run's record count:
        # the injection must be a pure no-op and the journal overhead
        # must not disturb results.
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result, recovered = kill_and_resume(
            tmp_path, 100_000, inputs={"clicklog": records}
        )
        assert not recovered
        assert result.master_recoveries == 0
        assert result.master_failover_ms == []
        assert clicklog_counts(result) == expected

    def test_kill_without_journal_rejected(self):
        with pytest.raises(ValueError):
            DistRuntime(
                build_clicklog_local(regions=REGIONS),
                kill_master_after_records=5,
            )

    def test_resume_without_checkpoint_raises(self, tmp_path):
        runtime = DistRuntime(
            build_clicklog_local(regions=REGIONS), journal_dir=str(tmp_path)
        )
        fleet = type(
            "F", (), {"journal_dir": str(tmp_path), "workers": {}}
        )()
        with pytest.raises(SchedulingError):
            runtime.resume(fleet, {}, timeout=5)


class TestTornJournalTail:
    """A torn or truncated WAL tail means "the log ends here": replay uses
    the surviving prefix and recovery conservatively replays whatever the
    lost records would have proven committed."""

    @staticmethod
    def _kill(tmp_path, kill_after, records):
        runtime = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=2,
            chunk_size=2048,
            journal_dir=str(tmp_path),
            kill_master_after_records=kill_after,
        )
        with pytest.raises(MasterKilled) as excinfo:
            runtime.run({"clicklog": records}, timeout=180)
        return excinfo.value.fleet

    @pytest.mark.parametrize("chop", [1, 7])
    def test_truncated_wal_tail_still_recovers(self, tmp_path, chop):
        records = clicklog_records()
        expected = clicklog_baseline(records)
        fleet = self._kill(tmp_path, 10, records)
        # Tear the WAL mid-record: the tail record's frame is cut short,
        # exactly like a crash between write and flush.
        wal = os.path.join(str(tmp_path), WAL_FILE)
        size = os.path.getsize(wal)
        if size > chop:
            with open(wal, "r+b") as handle:
                handle.truncate(size - chop)
        successor = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=2,
            chunk_size=2048,
            journal_dir=str(tmp_path),
        )
        result = successor.resume(fleet, {"clicklog": records}, timeout=180)
        assert clicklog_counts(result) == expected

    def test_corrupt_wal_tail_still_recovers(self, tmp_path):
        records = clicklog_records()
        expected = clicklog_baseline(records)
        fleet = self._kill(tmp_path, 10, records)
        # Flip bytes inside the last record's payload: the crc rejects it
        # and everything after it, keeping the intact prefix.
        wal = os.path.join(str(tmp_path), WAL_FILE)
        size = os.path.getsize(wal)
        with open(wal, "r+b") as handle:
            handle.seek(max(0, size - 3))
            handle.write(b"\xff\xff\xff")
        successor = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=2,
            chunk_size=2048,
            journal_dir=str(tmp_path),
        )
        result = successor.resume(fleet, {"clicklog": records}, timeout=180)
        assert clicklog_counts(result) == expected


class TestManifestFile:
    """There is no input manifest: the journal is two files of control
    records, and the inputs stay the caller's, handed to ``run`` and
    again to ``resume``."""

    @staticmethod
    def _checkpoint(tmp_path, count):
        # Everything ``run()`` journals before it starts a process: stop it
        # at the first shard spawn and look at what is on disk.
        class Stop(Exception):
            pass

        def stop(index):
            raise Stop

        journal_dir = tmp_path / str(count)
        runtime = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            chunk_size=2048,
            journal_dir=str(journal_dir),
        )
        runtime._spawn_shard = stop
        with pytest.raises(Stop):
            runtime.run({"clicklog": clicklog_records(count)}, timeout=60)
        assert sorted(os.listdir(journal_dir)) == [SNAPSHOT_FILE, WAL_FILE]
        return os.path.getsize(journal_dir / SNAPSHOT_FILE)

    def test_snapshot_size_is_independent_of_input_size(self, tmp_path):
        assert self._checkpoint(tmp_path, 1_000) == self._checkpoint(
            tmp_path, 100_000
        )

    def test_successor_reruns_the_input_family_from_the_resubmitted_inputs(
        self, tmp_path
    ):
        # Master kill, then the r=1 memory shard homing the source bag dies
        # in the master-absent window: the bag is re-produced by its input
        # tasks, which the successor runs from the inputs handed to it.
        records = clicklog_records()
        app = build_clicklog_local(regions=REGIONS)
        base = dict(workers=2, shards=2, chunk_size=2048, journal_dir=str(tmp_path))
        runtime = DistRuntime(app, kill_master_after_records=6, **base)
        with pytest.raises(MasterKilled) as excinfo:
            runtime.run({"clicklog": records}, timeout=180)
        fleet = excinfo.value.fleet
        victim = fleet.shard_procs[ShardRouter(2).home("clicklog")]
        victim.kill()
        # The sentinel, not join(): the dead master's monitor thread is
        # already blocked reaping this process.
        assert multiprocessing.connection.wait([victim.sentinel], timeout=10)
        tracer = Tracer()
        successor = DistRuntime(app, tracer=tracer, **base)
        result = successor.resume(fleet, {"clicklog": iter(records)}, timeout=180)
        assert result.shard_deaths == 1
        reset = {e["args"]["task"] for e in tracer.events(name="family_reset")}
        assert {input_task_id("clicklog", part) for part in range(2)} <= reset
        assert clicklog_counts(result) == clicklog_baseline(records)


class TestJournalFormat:
    def test_snapshot_then_wal_round_trip(self, tmp_path):
        journal = MasterJournal(str(tmp_path))
        journal.append(("spawn", 0))
        journal.append(("assign", "a", 0))
        journal.write_snapshot([("spawn", 3)])
        journal.append(("done", "a"))
        journal.close()
        records = MasterJournal.load(str(tmp_path))
        # Pre-snapshot records are compacted away; the WAL tail follows
        # the snapshot's records in order.
        assert records == [("spawn", 3), ("done", "a")]

    def test_missing_dir_loads_empty(self, tmp_path):
        # No snapshot, no checkpoint: nothing a master could resume from.
        assert MasterJournal.load(str(tmp_path / "nowhere")) is None

    def test_torn_snapshot_is_atomic(self, tmp_path):
        # The snapshot goes through tmp + rename: a temp file lying
        # around must never shadow the committed one.
        journal = MasterJournal(str(tmp_path))
        journal.write_snapshot([("spawn", 1)])
        journal.close()
        (tmp_path / (SNAPSHOT_FILE + ".tmp")).write_bytes(b"garbage")
        assert MasterJournal.load(str(tmp_path)) == [("spawn", 1)]

    def test_appended_counts_this_instance_only(self, tmp_path):
        journal = MasterJournal(str(tmp_path))
        journal.write_snapshot([])
        journal.append(("spawn", 0))
        journal.append(("spawn", 1))
        assert journal.appended == 2
        journal.close()
        # A successor's counter starts at zero: kill thresholds are per
        # incarnation, not per journal lifetime.
        successor = MasterJournal(str(tmp_path))
        assert successor.appended == 0
        successor.append(("spawn", 2))
        assert successor.appended == 1
        successor.close()
        records = MasterJournal.load(str(tmp_path))
        assert records == [("spawn", 0), ("spawn", 1), ("spawn", 2)]
