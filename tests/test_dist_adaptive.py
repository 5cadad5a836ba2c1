"""The closed loop on the real dist engine: parity, journaling, recovery.

The streaming click-log scenario (shifting Zipf hot keys, windowed
aggregation) runs with the controller armed and must produce exactly the
reference windowed counts; the master's ``adaptive``/``governor``
journal records must survive checkpoint-replay; and the promotion-retry
regression (a monitor-thread promotion that raises used to vanish into
a bare ``pass``) is pinned with an injected failure.
"""

import threading

import pytest

from repro.trace import Tracer

from repro.apps import build_clicklog_stream
from repro.dist import DistRuntime, MasterKilled
from repro.dist.adaptive import AdaptiveConfig, BatchDepthController, CloneGovernor
from repro.dist.journal import MasterJournal
from repro.dist.protocol import DistSettings, NodeDescriptor
from repro.local import LocalRuntime
from repro.workloads.clicklog_data import (
    exact_windowed_counts,
    generate_stream_clicklog,
)

WINDOWS = 3


def stream_records(n=4_000):
    return list(generate_stream_clicklog(n, skew=0.8, seed=7, windows=WINDOWS))


def windowed_counts(result):
    return {
        (w, region): count
        for w in range(WINDOWS)
        for region, count in result.value(f"counts.{w}").items()
    }


class TestAdaptiveParity:
    def test_dist_adaptive_matches_exact_reference(self):
        records = stream_records()
        result = DistRuntime(
            build_clicklog_stream(windows=WINDOWS),
            workers=2,
            shards=2,
            adaptive=True,
            chunk_size=640,  # ~64 (window, ip) records a chunk
        ).run({"clicks": records}, timeout=180)
        assert windowed_counts(result) == exact_windowed_counts(records)
        assert result.adaptive_enabled
        # Every consuming task armed a controller; trajectories always
        # start at the initial depth even when no decision moved it.
        assert result.adaptive_b_trajectory
        for trajectory in result.adaptive_b_trajectory.values():
            assert trajectory[0][0] == 0
            for _chunks, depth in trajectory:
                assert 1 <= depth <= 16

    def test_local_adaptive_matches_exact_reference(self):
        records = stream_records()
        result = LocalRuntime(
            build_clicklog_stream(windows=WINDOWS),
            workers=4,
            adaptive=True,
            chunk_size=640,  # ~64 (window, ip) records a chunk
        ).run({"clicks": records}, timeout=120)
        assert windowed_counts(result) == exact_windowed_counts(records)
        assert result.adaptive_enabled
        # Clone grants went through the governor: every grant decision
        # is on the log, and only sustained overload allowed one.
        for decision in result.clone_decisions:
            assert decision["allow"] == (
                decision["onset"] >= AdaptiveConfig().clone_onset_decisions
            )

    def test_static_runs_carry_no_adaptive_surface(self):
        records = stream_records(1_200)
        result = LocalRuntime(
            build_clicklog_stream(windows=WINDOWS), workers=2
        ).run({"clicks": records}, timeout=120)
        assert not result.adaptive_enabled
        assert result.clone_decisions == []

    def test_adaptive_arg_validation(self):
        with pytest.raises(ValueError):
            DistRuntime(build_clicklog_stream(windows=2), adaptive="yes")
        runtime = DistRuntime(build_clicklog_stream(windows=2), adaptive=False)
        assert runtime.adaptive is None


class TestAdaptiveJournal:
    """Master-side state: absorb, journal, replay — without processes."""

    def build_runtime(self, tmp_path=None, **kwargs):
        runtime = DistRuntime(
            build_clicklog_stream(windows=2), adaptive=True, **kwargs
        )
        if tmp_path is not None:
            runtime._journal = MasterJournal(str(tmp_path))
        return runtime

    def snapshot_after(self, chunks):
        controller = BatchDepthController(AdaptiveConfig(), shards=2)
        for _ in range(chunks):
            controller.observe(latencies=[0.02], service_s=0.001)
        return controller.snapshot()

    def test_furthest_adapted_snapshot_wins(self):
        runtime = self.build_runtime()
        ahead = self.snapshot_after(16)
        behind = self.snapshot_after(8)
        runtime._absorb_adaptive("t", {"adaptive": ahead})
        runtime._absorb_adaptive("t", {"adaptive": behind})
        assert runtime.control.adaptive["t"] == ahead

    def test_journaled_only_when_the_trajectory_grows(self, tmp_path):
        runtime = self.build_runtime(tmp_path)
        moved = self.snapshot_after(16)
        assert len(moved["trajectory"]) > 1  # the decision really moved b
        runtime._absorb_adaptive("t", {"adaptive": moved})
        assert runtime._journal.appended == 1
        # A later heartbeat with the same trajectory is not re-journaled.
        further = dict(moved, chunks_seen=moved["chunks_seen"] + 1)
        runtime._absorb_adaptive("t", {"adaptive": further})
        assert runtime._journal.appended == 1

    def test_replay_restores_controller_and_governor(self, tmp_path):
        runtime = self.build_runtime(tmp_path)
        snapshot = self.snapshot_after(16)
        runtime._absorb_adaptive(
            "t", {"adaptive": snapshot, "latency_window": {0: [0.01] * 8}}
        )
        runtime._governor.evaluate(20)
        runtime._commit(("governor", runtime._governor.snapshot()))
        runtime._journal.close()
        _header, records = MasterJournal.load(str(tmp_path))
        successor = self.build_runtime()
        for record in records:
            successor.control.apply(record)
        assert successor.control.adaptive["t"] == snapshot
        # Replay must also restore the dedup cursor (the journaled
        # trajectory's length), or the successor would re-journal the
        # same trajectory on the next heartbeat.
        further = dict(snapshot, chunks_seen=snapshot["chunks_seen"] + 1)
        successor._absorb_adaptive("t", {"adaptive": further})
        assert successor.control.adaptive["t"] == snapshot
        restored = CloneGovernor.restore(
            successor.adaptive, successor.control.governor
        ).snapshot()
        assert restored == runtime._governor.snapshot()

    def test_descriptor_and_settings_carry_adaptive_state(self):
        # The wire types round-trip the controller config and snapshot:
        # workers restore mid-task depth from their (re)spawn descriptor.
        settings = DistSettings(adaptive=AdaptiveConfig(max_batch=12))
        assert settings.adaptive.max_batch == 12
        descriptor = NodeDescriptor(
            node_id="t#0",
            task_id="t",
            kind="task",
            stream_input="clicks",
            side_inputs=(),
            outputs=("win.0",),
            adaptive_state=self.snapshot_after(16),
        )
        assert descriptor.adaptive_state["depth"] >= 1
        assert NodeDescriptor(
            node_id="t#0",
            task_id="t",
            kind="task",
            stream_input="clicks",
            side_inputs=(),
            outputs=("win.0",),
        ).adaptive_state is None


class TestAdaptiveMasterKill:
    def test_resume_with_controller_armed_keeps_parity(self, tmp_path):
        records = stream_records()
        expected = exact_windowed_counts(records)
        base = dict(
            workers=2,
            shards=2,
            adaptive=True,
            chunk_size=640,  # ~64 (window, ip) records a chunk
            journal_dir=str(tmp_path),
        )
        app = build_clicklog_stream(windows=WINDOWS)
        runtime = DistRuntime(app, kill_master_after_records=5, **base)
        try:
            result = runtime.run({"clicks": records}, timeout=180)
            recovered = False
        except MasterKilled as exc:
            successor = DistRuntime(app, kill_master_after_records=None, **base)
            result = successor.resume(exc.fleet, timeout=180)
            recovered = True
        assert windowed_counts(result) == expected
        assert result.adaptive_enabled
        if recovered:
            assert result.master_recoveries == 1


class TestPromotionRetry:
    def test_failed_monitor_promotion_is_retried(self, monkeypatch):
        # Satellite regression: the shard-monitor thread's promotion
        # used to swallow exceptions while leaving the corpse claimed in
        # _promoted, so the event-loop retry was a silent no-op and
        # clients rode out their whole failover patience. Inject one
        # monitor-thread failure and demand the event loop's retry
        # actually promotes: the run still ends in parity with zero
        # family resets (failover, not replay).
        records = stream_records(2_000)
        expected = exact_windowed_counts(records)
        original = DistRuntime._promote_backups
        failed = []

        def flaky(self, index, proc):
            monitor = threading.current_thread().name.startswith("dist-shardmon")
            with self._epoch_lock:
                claimed = proc in self._promoted
            if monitor and not claimed and not failed:
                failed.append(proc)
                raise RuntimeError("injected promotion failure")
            return original(self, index, proc)

        monkeypatch.setattr(DistRuntime, "_promote_backups", flaky)
        runtime = DistRuntime(
            build_clicklog_stream(windows=WINDOWS),
            workers=2,
            shards=2,
            replication=2,
            chunk_size=640,  # ~64 (window, ip) records a chunk
            kill_shard=0,
            kill_shard_after_ops=1,
            tracer=Tracer(),
        )
        result = runtime.run({"clicks": records}, timeout=180)
        assert failed, "the injected failure never fired"
        assert windowed_counts(result) == expected
        assert result.shard_deaths == 1
        assert result.family_resets == 0
        assert runtime.tracer.metrics.get("dist.promotion_failures") == 1
        assert runtime.tracer.metrics.get("dist.promotion_retries") == 1


class TestWorkerLatencyReservoir:
    def test_stats_latencies_are_capped_without_truncation(self):
        # The per-worker latency stats feed the bench percentiles; the
        # old cap froze the first 512 (warm-up) samples. A run long
        # enough to overflow the cap must still report exactly 512
        # samples per worker — reservoir-sampled, which the unit test
        # in test_adaptive.py proves is truncation-free.
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


class TestAdaptiveCloneGate:
    def test_governor_gates_dist_clones(self):
        # With the controller armed, every granted clone followed an
        # evaluate() that returned allow=True after sustained onset.
        records = stream_records()
        result = DistRuntime(
            build_clicklog_stream(windows=WINDOWS),
            workers=3,
            shards=2,
            adaptive=True,
            chunk_size=160,  # ~16 (window, ip) records a chunk
        ).run({"clicks": records}, timeout=180)
        assert windowed_counts(result) == exact_windowed_counts(records)
        allows = [d for d in result.clone_decisions if d["allow"]]
        assert len(allows) >= result.total_clones()
        config = AdaptiveConfig()
        for decision in allows:
            assert decision["onset"] >= config.clone_onset_decisions
