"""The dist master: process topology, scheduling, cloning, and recovery.

``DistRuntime.run`` forks ``m`` storage-shard processes (each a
:mod:`repro.dist.server` instance listening on a stable per-shard socket
path) and N worker processes (each holding a copy-on-write snapshot of
the graph and the run's inputs), then drives the shared
:class:`~repro.model.execution_graph.ExecutionGraph` from one thread: its
event loop selects on every worker's pipe and every shard's exit
sentinel itself. The graph is the application's plus *input tasks* that
fill its source bags (:func:`with_input_tasks`), so the master fills no
bag itself. Everything the master must remember — the graph, who holds
which node, what is condemned — is one :class:`~repro.dist.control.ControlState`, changed
only through :meth:`DistRuntime._commit` (journal the record, then
``apply`` it); this module decides and performs the *effects*:

* READY nodes are assigned to idle workers as
  :class:`~repro.dist.protocol.NodeDescriptor` messages;
* ``progress`` messages give mid-task visibility — they trigger the
  forced-clone schedule and, together with server-side ``remaining``
  queries, the work-conserving clone heuristic (an idle worker clones the
  running task with the most input left, exactly like ``repro.local``);
* a worker's pipe EOF means the process died: the master joins the
  corpse, **fences** its storage connections on every shard (all its
  in-flight writes are applied before recovery proceeds), cancels
  surviving family members, resets the family (discard outputs + partial
  bags, rewind the stream input), forks a replacement worker, and reruns
  — Section 4.4's compute-failure story on real processes;
* a **shard process** dying extends that story to storage failure: the
  event loop sees its exit sentinel (or a storage op sees the torn
  connection and sweeps for the corpse), the master respawns the shard
  on the same socket path, broadcasts ``rebind`` so live workers drop
  stale connections, then *recovers the copies* the dead shard held —
  one sequence for every configuration. A replacement
  that reopened its predecessor's segment directory lost nothing.
  Otherwise each bag is re-replicated onto the replacement from a
  surviving replica (``pull``/``push``), restoring ``r`` live copies
  without replaying a single task; with ``replication = r > 1`` the
  master first bumps the dead shard's demotion epoch and pushes the
  vector to the survivors — promoting each affected bag's next ring
  replica, to which the clients' sweeps fail over on their own.
  Section 4.4's ``n`` failures with ``n + 1`` replicas, on real
  processes. Bags with **no** surviving copy (every bag of an ``r = 1``
  in-memory shard; deaths beyond the replication factor) feed the *loss
  closure*: every started family that produced or consumed one of them
  resets (finished families included, since their outputs may need
  re-producing) — a lost source bag's input tasks among them.

An aggregation's output bag is written by its own family alone: member 0
emits its partial straight into it, clone ``k`` into partial bag ``k``, and
a cloned family's merge node — assigned to a worker like any other —
replaces the bag's content with the fold. A family that never cloned needs
only its ``done`` and the seal: until the result snapshot no chunk
crosses this process.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import selectors
import shutil
import tempfile
import time
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.dist.client import ShardedBagStore
from repro.dist.control import ControlState
from repro.dist.journal import MasterJournal
from repro.dist.protocol import (
    DIST_STORAGE_POLICY,
    DistSettings,
    NodeDescriptor,
    StorageAddress,
)
from repro.dist.server import storage_server_main
from repro.dist.sharding import ShardRouter
from repro.dist.worker import worker_main
from repro.engine.common import bag_records, require_tasks
from repro.errors import (
    FrameError,
    RemoteTaskError,
    ReproError,
    SchedulingError,
    StorageNodeDown,
)
from repro.model.application import Application
from repro.model.execution_graph import (
    ExecutionNode,
    NodeKind,
    NodeState,
    partial_bag_id,
)
from repro.model.graph import AppGraph, TaskSpec
from repro.storage.policy import StorageConfig, call_with_retry
from repro.trace import NULL_TRACER
from repro.units import KB


class _Worker:
    """Master-side bookkeeping for one worker process: its process and
    the master's end of its pipe. The pipe outlives a master: a recovered
    master selects on the same ``conn``, so the surviving worker process
    is re-adopted without ever re-establishing its channel."""

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn


class MasterKilled(Exception):
    """The injected master death fired; carries the surviving fleet.

    Deliberately *not* a :class:`~repro.errors.ReproError`: generic
    recovery handlers must never absorb a simulated master death — the
    only legitimate catcher is a test or chaos harness that follows up
    with :meth:`DistRuntime.resume` on a fresh runtime.
    """

    def __init__(self, fleet: "MasterFleet"):
        super().__init__("master process killed (simulated)")
        self.fleet = fleet


class MasterFleet:
    """What survives a master death: worker/shard processes and channels.

    A real master crash leaves these processes running with their sockets
    and pipes intact; the simulation hands them to the next
    :class:`DistRuntime` incarnation through this bundle instead of
    through the kernel. Everything the new master must *not* trust — node
    states, assignments, epochs — is deliberately absent: that state is
    reconstructed from the journal and from probing the fleet itself.
    """

    def __init__(
        self,
        workers: Dict[int, _Worker],
        shard_procs: List[Any],
        shard_addresses: List["StorageAddress"],
        shard_paths: List[str],
        socket_dir: str,
        authkey: bytes,
        journal_dir: str,
    ):
        self.workers = workers
        self.shard_procs = shard_procs
        self.shard_addresses = shard_addresses
        self.shard_paths = shard_paths
        self.socket_dir = socket_dir
        self.authkey = authkey
        self.journal_dir = journal_dir


def _latency_percentiles(samples_s: List[float]) -> Dict[str, Optional[float]]:
    """Percentile summary (milliseconds) of latency samples in seconds.

    With no samples every percentile is ``None`` — an explicit "absent",
    distinct from 0.0 (which is a legal, excellent latency). Consumers
    (the bench report, JSON artifacts) render ``None`` as missing rather
    than as a zero that would skew cross-run comparisons.
    """
    samples = sorted(samples_s)
    if not samples:
        return {
            "count": 0,
            "p50_ms": None,
            "p90_ms": None,
            "p99_ms": None,
            "max_ms": None,
        }

    def pct(p: float) -> float:
        # Nearest-rank: the smallest sample >= p of the distribution is
        # element ceil(p*n) (1-based), i.e. index ceil(p*n)-1. The old
        # int(p*n) form pointed one rank too high — p50 of two samples
        # returned the max.
        index = max(0, min(len(samples) - 1, math.ceil(p * len(samples)) - 1))
        return samples[index] * 1e3

    return {
        "count": len(samples),
        "p50_ms": pct(0.50),
        "p90_ms": pct(0.90),
        "p99_ms": pct(0.99),
        "max_ms": samples[-1] * 1e3,
    }


class DistResult:
    """Decoded bag snapshots plus execution statistics of a dist run."""

    def __init__(
        self,
        runtime: "DistRuntime",
        snapshots: Dict[str, List[Any]],
        shard_stats: List[Dict[str, int]],
    ):
        self.clone_counts: Dict[str, int] = {
            task_id: 1 + len(family.clones)
            for task_id, family in runtime.control.exec.families.items()
        }
        self.records_processed = runtime.records_processed
        self.chunks_processed = runtime.chunks_processed
        self.worker_deaths = runtime.worker_deaths
        self.family_resets = runtime.family_resets
        self.shards = runtime.shards
        self.replication = runtime.replication
        self.shard_deaths = runtime.shard_deaths
        self.storage_resets = runtime.storage_resets
        #: Per-shard-death failover latency (ms): death detection until the
        #: promotion epochs are live on every surviving shard (empty when
        #: replication is 1 — those deaths recover by replay, not failover).
        self.failover_ms: List[float] = [
            s * 1e3 for s in runtime.failover_seconds
        ]
        #: Per-shard-death re-replication latency (ms): pulling the
        #: surviving copies and installing them on the replacement shard
        #: (no entry for a death that had no copy to re-replicate).
        self.resync_ms: List[float] = [s * 1e3 for s in runtime.resync_seconds]
        #: How many times this run's master was reconstructed from its
        #: journal (0 for a run whose master never died).
        self.master_recoveries = runtime.master_recoveries
        #: Per-recovery master failover latency (ms): journal replay start
        #: until the resumed event loop is live (fleet re-adoption, shard
        #: probe/respawn, and recovery resets included).
        self.master_failover_ms: List[float] = [
            s * 1e3 for s in runtime.master_failover_seconds
        ]
        self.chunk_rpc_seconds: List[float] = list(runtime.chunk_rpc_seconds)
        self.chunk_rpc_seconds_by_shard: Dict[int, List[float]] = {
            shard: list(samples)
            for shard, samples in runtime.chunk_rpc_seconds_by_shard.items()
        }
        #: Raw per-shard op counters (each dict carries its ``shard`` index).
        self.shard_stats: List[Dict[str, int]] = [dict(s) for s in shard_stats]
        #: Op counters summed across shards — the pre-sharding surface.
        #: Gauges (identity tags and high-water marks) are not counters
        #: and stay out of the sum; they surface as dedicated fields.
        gauges = {"shard", "rss_hwm_kb", "resident_peak_bytes"}
        aggregate: Dict[str, int] = {}
        for stats in shard_stats:
            for op, count in stats.items():
                if op in gauges:
                    continue
                aggregate[op] = aggregate.get(op, 0) + count
        self.storage_stats = aggregate
        #: Max per-shard resident-set high-water mark (KiB, from the
        #: kernel's VmHWM) — the bench's bounded-memory evidence.
        self.shard_rss_hwm_kb = max(
            (s.get("rss_hwm_kb", 0) for s in shard_stats), default=0
        )
        #: Max per-shard hot-cache peak (bytes; 0 with spill off). May
        #: exceed the budget by at most one frame: eviction runs after
        #: the oversized insert lands.
        self.resident_peak_bytes = max(
            (s.get("resident_peak_bytes", 0) for s in shard_stats), default=0
        )
        self.segments_written = aggregate.get("segments_written", 0)
        #: Compaction yield, summed across shards: sealed-segment files
        #: rewritten away, and the net bytes of dead frames reclaimed.
        self.segments_compacted = aggregate.get("segments_compacted", 0)
        self.bytes_reclaimed = aggregate.get("bytes_reclaimed", 0)
        #: True when at least one shard death resynced by shipping
        #: sealed segment files instead of loose chunks.
        self.segment_resync = (
            bool(runtime.resync_seconds)
            and runtime.settings.resident_bytes is not None
        )
        self.trace_metrics = dict(runtime.tracer.metrics)
        self._snapshots = snapshots

    def records(self, bag_id: str) -> List[Any]:
        try:
            return self._snapshots[bag_id]
        except KeyError:
            raise ReproError(
                f"bag {bag_id!r} was not snapshotted; pass snapshot_bags='all' "
                "(or include it explicitly) to DistRuntime"
            ) from None

    def value(self, bag_id: str) -> Any:
        records = self.records(bag_id)
        if len(records) != 1:
            raise ReproError(
                f"bag {bag_id!r} holds {len(records)} records, expected 1"
            )
        return records[0]

    def total_clones(self) -> int:
        return sum(count - 1 for count in self.clone_counts.values())

    def chunk_latency_percentiles(self) -> Dict[str, float]:
        """Chunk-service RPC latency percentiles (ms), all shards pooled."""
        return _latency_percentiles(self.chunk_rpc_seconds)

    def per_shard_latency_percentiles(self) -> Dict[int, Dict[str, float]]:
        """Chunk-service RPC latency percentiles (ms) per storage shard."""
        return {
            shard: _latency_percentiles(samples)
            for shard, samples in sorted(self.chunk_rpc_seconds_by_shard.items())
        }


def input_task_id(bag_id: str, part: int) -> str:
    return f"{bag_id}.input{part}"


def with_input_tasks(
    graph: AppGraph, parts: int, sources: Dict[str, List[Any]]
) -> AppGraph:
    """A copy of ``graph`` plus ``parts`` input tasks per source bag ``b``:
    task ``i`` emits the ``i``-th of ``parts`` slices of ``sources[b]``,
    read when it runs — fill ``sources`` before forking the workers."""

    def fill(bag_id: str, part: int):
        def emit_slice(ctx) -> None:
            records = sources[bag_id]
            n = len(records)
            ctx.emit_many(
                bag_id, records[part * n // parts:(part + 1) * n // parts]
            )

        return emit_slice

    derived = AppGraph(graph.name)
    for bag in graph.bags.values():
        derived.add_bag(bag)
    for task in graph.tasks.values():
        derived.add_task(task)
    for bag_id in graph.source_bags():
        for part in range(parts):
            derived.add_task(
                TaskSpec(
                    input_task_id(bag_id, part), (), (bag_id,), fn=fill(bag_id, part)
                )
            )
    return derived


class DistRuntime:
    """Multiprocess engine: master + N workers + ``m`` storage shards."""

    def __init__(
        self,
        app: Application,
        workers: int = 4,
        shards: int = 1,
        replication: int = 1,
        cloning: bool = True,
        chunk_size: int = 64 * KB,
        clone_min_chunks: int = 2,
        max_clones_per_task: Optional[int] = None,
        batch_requests: int = 4,
        resident_bytes: Optional[int] = None,
        segment_dir: Optional[str] = None,
        storage_policy: StorageConfig = DIST_STORAGE_POLICY,
        forced_clones: Optional[Dict[str, int]] = None,
        kill_task: Optional[str] = None,
        kill_after_chunks: int = 1,
        kill_shard: Optional[int] = None,
        kill_shard_after_ops: int = 4,
        kill_shard_in_compaction: Optional[str] = None,
        journal_dir: Optional[str] = None,
        journal_compact_every: int = 256,
        kill_master_after_records: Optional[int] = None,
        max_worker_restarts: Optional[int] = None,
        max_shard_restarts: Optional[int] = None,
        max_storage_resets: Optional[int] = None,
        snapshot_bags: Any = "sinks",
        tracer=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not 1 <= replication <= shards:
            raise ValueError(
                f"replication must be in [1, {shards}], got {replication}"
            )
        if kill_shard is not None and not 0 <= kill_shard < shards:
            raise ValueError(
                f"kill_shard {kill_shard} out of range for {shards} shards"
            )
        if kill_shard_in_compaction is not None:
            if kill_shard_in_compaction not in ("written", "indexed"):
                raise ValueError(
                    "kill_shard_in_compaction must be 'written' or 'indexed', "
                    f"got {kill_shard_in_compaction!r}"
                )
            if kill_shard is None:
                raise ValueError(
                    "kill_shard_in_compaction needs kill_shard to name a victim"
                )
            if resident_bytes is None:
                raise ValueError(
                    "kill_shard_in_compaction without resident_bytes: "
                    "compaction only runs on the spilling segment store"
                )
        if resident_bytes is not None and resident_bytes < 1:
            raise ValueError(
                f"resident_bytes must be >= 1 (or None), got {resident_bytes}"
            )
        if segment_dir is not None and resident_bytes is None:
            raise ValueError(
                "segment_dir without resident_bytes: the layered segment "
                "store only runs when a resident-bytes budget is set"
            )
        app_graph: AppGraph = app.graph if isinstance(app, Application) else app
        require_tasks(app_graph, "kill_task", [] if kill_task is None else [kill_task])
        require_tasks(app_graph, "forced_clones", forced_clones or {})
        #: Source bag -> its records: filled by ``run``/``resume`` before
        #: any worker forks, read by the input tasks in the workers.
        self._sources: Dict[str, List[Any]] = {}
        self._source_bags = app_graph.source_bags()
        self.graph = with_input_tasks(app_graph, workers, self._sources)
        self.workers = workers
        self.shards = shards
        self.replication = replication
        self.router = ShardRouter(shards, replication)
        self.cloning = cloning
        self.settings = DistSettings(
            chunk_size=chunk_size,
            batch_requests=batch_requests,
            replication=replication,
            policy=storage_policy,
            resident_bytes=resident_bytes,
        )
        #: Caller-owned root for the shards' segment directories (chaos
        #: keeps it as a post-mortem artifact); None = a ``segments/``
        #: subtree of the run's temp socket dir, removed at shutdown.
        self.segment_dir = segment_dir
        self.clone_min_chunks = clone_min_chunks
        self.max_clones_per_task = max_clones_per_task or workers
        self.forced_clones = dict(forced_clones or {})
        self.kill_task = kill_task
        self.kill_after_chunks = kill_after_chunks
        self.kill_shard = kill_shard
        self.kill_shard_after_ops = kill_shard_after_ops
        self.kill_shard_in_compaction = kill_shard_in_compaction
        if kill_master_after_records is not None and journal_dir is None:
            raise ValueError(
                "kill_master_after_records requires journal_dir: a master "
                "death without a journal is unrecoverable by design"
            )
        if journal_compact_every < 1:
            raise ValueError(
                f"journal_compact_every must be >= 1, got {journal_compact_every}"
            )
        self.journal_dir = journal_dir
        self.journal_compact_every = journal_compact_every
        self.kill_master_after_records = kill_master_after_records
        self.max_worker_restarts = (
            max_worker_restarts if max_worker_restarts is not None else 2 * workers
        )
        self.max_shard_restarts = (
            max_shard_restarts if max_shard_restarts is not None else 2 * shards
        )
        # Storage blips (a task racing a shard respawn on a stale
        # connection) reset one family each; the budget keeps a persistent
        # storage fault from retrying forever.
        self.max_storage_resets = (
            max_storage_resets if max_storage_resets is not None else 4 + 2 * workers
        )
        self.snapshot_bags = snapshot_bags
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Everything the journal records; changed only via ``_commit``.
        self.control = ControlState(self.graph)
        for task in self.graph.tasks.values():
            if not task.needs_merge:
                continue
            # A cloned family's merge *replaces* its output bag's content.
            for other in self.graph.producers_of(task.outputs[0]):
                if other is not task:
                    raise SchedulingError(
                        f"aggregation {task.task_id!r} shares its merge output "
                        f"{task.outputs[0]!r} with task {other.task_id!r}; the "
                        "dist engine needs that bag to be the family's alone"
                    )
        self.records_processed = 0
        self.chunks_processed = 0
        self.worker_deaths = 0
        self.family_resets = 0
        self.shard_deaths = 0
        self.storage_resets = 0
        self.failover_seconds: List[float] = []
        self.resync_seconds: List[float] = []
        self.master_recoveries = 0
        self.master_failover_seconds: List[float] = []
        self.chunk_rpc_seconds: List[float] = []
        self.chunk_rpc_seconds_by_shard: Dict[int, List[float]] = {}
        # -- run-scoped state --
        self._ctx = multiprocessing.get_context("fork")
        #: Every live worker's pipe (data ``("msg", wid)``) and every live
        #: shard's exit sentinel (data ``("shard_dead", index, proc)``).
        self._selector = selectors.DefaultSelector()
        #: Events read off the selector and not yet handled, oldest first.
        self._pending: "deque[Tuple]" = deque()
        self._workers: Dict[int, _Worker] = {}
        self._idle: List[int] = []
        self._ready: List[ExecutionNode] = []
        #: The node currently armed to die by the worker-kill injection.
        #: Arming alone does not spend the injection
        #: (``control.kill_delivered`` does) — if the armed incarnation is
        #: cancelled or reset (e.g. a shard death condemned its family)
        #: before reaching kill_after_chunks, the next incarnation
        #: re-arms, so the requested fault reliably happens once.
        self._kill_armed_node: Optional[str] = None
        self._in_recovery = False
        self._socket_dir: Optional[str] = None
        #: Shards whose segment directory has been opened at least once
        #: this master's lifetime: a *re*spawn of one at replication 1
        #: reopens the directory (recovery-by-reopen) instead of wiping it.
        self._segments_opened: Set[int] = set()
        self._shard_paths: List[str] = []
        self._shard_procs: List[Any] = []
        self._shard_addresses: List[StorageAddress] = []
        self._store: Optional[ShardedBagStore] = None
        self._authkey = os.urandom(16)
        self._teardown = False
        #: Write-ahead journal (None = journaling off, zero overhead).
        self._journal: Optional[MasterJournal] = None
        self._compact_base = 0
        #: True once a simulated master death fired: _shutdown becomes a
        #: no-op so the fleet survives for the next incarnation to adopt.
        self._simulated_death = False

    # -- process management ---------------------------------------------------

    def _spawn_shard(self, index: int) -> bool:
        """Start (or restart) shard ``index`` on its stable socket path.

        Returns whether the process was told to *reopen* its
        predecessor's segment directory (everything the dead shard had
        acknowledged is back) rather than start empty.
        """
        kill_after = None
        kill_in_compaction = None
        if self.kill_shard == index and not self.control.shard_kill_spent:
            # Fault injection arms the *first* incarnation only; the
            # respawned replacement must live, or recovery would livelock.
            # Journaled so a recovered master does not re-arm the fault on
            # the victim's next respawn and kill the same shard twice.
            self._commit(("shard_kill_armed",))
            if self.kill_shard_in_compaction is not None:
                kill_in_compaction = self.kill_shard_in_compaction
            else:
                kill_after = self.kill_shard_after_ops
        segment_dir = None
        reopen = False
        if self.settings.resident_bytes is not None:
            root = self.segment_dir or os.path.join(self._socket_dir, "segments")
            segment_dir = os.path.join(root, f"shard-{index}")
            # A respawn at replication 1 *reopens* its directory — the
            # spilled segments plus the consumed/dedup index ARE the
            # recovery path. Replicated respawns start empty instead:
            # resync ships sealed segments over from the survivors.
            reopen = self.replication == 1 and index in self._segments_opened
            self._segments_opened.add(index)
        ready_parent, ready_child = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=storage_server_main,
            args=(
                ready_child,
                self._authkey,
                index,
                self._shard_paths[index],
                kill_after,
                self.replication,
                list(self._shard_paths),
                dict(self.control.epochs),
                segment_dir,
                self.settings.resident_bytes,
                reopen,
                kill_in_compaction,
            ),
            name=f"dist-shard-{index}",
            daemon=True,
        )
        proc.start()
        ready_child.close()
        if not ready_parent.poll(15.0):
            raise SchedulingError(f"storage shard {index} did not start within 15s")
        address = ready_parent.recv()
        ready_parent.close()
        self._shard_procs[index] = proc
        self._shard_addresses[index] = address
        self._watch(proc.sentinel, ("shard_dead", index, proc))
        return reopen

    def _promote_backups(self, index: int) -> None:
        """Demote dead shard ``index``: bump its epoch, push to live shards.

        The bump is max-of-all-epochs + 1, so the most recent death always
        carries the strictly largest epoch and the least-recently-demoted
        replica of every bag serves, regardless of how unevenly deaths
        were distributed across shards.
        """
        vector = dict(self.control.epochs)
        vector[index] = max(vector.values(), default=0) + 1
        # A recovered master must start from the bumped vector, or it
        # could briefly trust a demoted shard.
        self._commit(("epochs", vector))
        started = time.monotonic()
        self._store.adopt_epochs(vector)
        for shard in range(self.shards):
            if shard == index or not self._shard_alive(shard):
                continue
            try:
                self._store.push_epochs(shard, vector)
            except ReproError:
                pass  # died just now; its own death event re-pushes
        self.failover_seconds.append(time.monotonic() - started)

    def _spawn_worker(self) -> _Worker:
        wid = self.control.max_wid + 1
        self._commit(("spawn", wid))
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Close inherited copies of every *other* worker's pipe ends in the
        # child, so one worker holding a sibling's fd can't mask its EOF.
        close_conns = [w.conn for w in self._workers.values()]
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                wid,
                child_conn,
                list(self._shard_addresses),
                self._authkey,
                self.graph,
                self.settings,
                close_conns,
                dict(self.control.epochs),
            ),
            name=f"dist-worker-{wid}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        self._workers[wid] = worker
        self._watch(parent_conn, ("msg", wid))
        return worker

    def _watch(self, fileobj, event: Tuple) -> None:
        self._selector.register(fileobj, selectors.EVENT_READ, event)

    def _unwatch(self, fileobj) -> None:
        try:
            self._selector.unregister(fileobj)
        except KeyError:
            pass  # already unwatched: ``_poll`` saw its EOF or exit

    def _poll(self, timeout: float) -> None:
        """Queue what one ``select`` finds, every ready key of it: a
        message per readable worker pipe, ``("dead", wid)`` for a pipe at
        EOF and the ``shard_dead`` event of an exited shard. Each EOF and
        each exit is queued once: its key is unwatched here."""
        for key, _ in self._selector.select(timeout):
            event = key.data
            if event[0] == "msg":
                try:
                    self._pending.append(("msg", event[1], key.fileobj.recv()))
                    continue
                except (EOFError, OSError):
                    event = ("dead", event[1])
            self._unwatch(key.fileobj)
            self._pending.append(event)

    # -- run -------------------------------------------------------------------

    def _take_inputs(self, inputs: Dict[str, Iterable[Any]]) -> None:
        """Hand ``inputs`` (source bag -> records) to the input tasks: a
        list as is, any other iterable materialised once."""
        if self._sources:  # every graph has a source bag: this one ran
            raise SchedulingError(
                "a DistRuntime runs once; build a new one for another run"
            )
        unknown = set(inputs) - set(self._source_bags)
        if unknown:
            raise SchedulingError(f"inputs given for non-source bags: {unknown}")
        for bag_id in self._source_bags:
            records = inputs.get(bag_id, ())
            if not isinstance(records, list):
                records = list(records)
            self._sources[bag_id] = records

    def run(self, inputs: Dict[str, Iterable[Any]], timeout: float = 120.0) -> DistResult:
        """Execute the application over ``inputs`` (source bag -> records)."""
        self._take_inputs(inputs)
        deadline = time.monotonic() + timeout
        if self.journal_dir is not None:
            self._journal = MasterJournal(self.journal_dir)
            self._write_checkpoint()
        self._socket_dir = tempfile.mkdtemp(prefix="repro-dist-")
        self._shard_paths = [
            os.path.join(self._socket_dir, f"shard-{index}.sock")
            for index in range(self.shards)
        ]
        self._shard_procs = [None] * self.shards
        self._shard_addresses = [None] * self.shards
        try:
            for index in range(self.shards):
                self._spawn_shard(index)
            self._store = ShardedBagStore(
                self._shard_addresses,
                self._authkey,
                "master",
                self.settings.policy,
                router=self.router,
            )
            for _ in range(self.workers):
                self._spawn_worker()
            return self._run_to_completion(deadline)
        finally:
            self._shutdown()

    def _run_to_completion(self, deadline: float) -> DistResult:
        """The tail ``run`` and ``resume`` share, each under its own
        ``finally: _shutdown``: event loop, snapshot, shard stats, result."""
        # From graph state, not from what ``_commit`` returned so far: a
        # resumed master's predecessor held its queue only in memory.
        self._ready = self.control.ready_nodes()
        self._event_loop(deadline)
        return DistResult(self, self._snapshot(), self._store.stats())

    # -- event loop ------------------------------------------------------------

    def _event_loop(self, deadline: float) -> None:
        while not self.control.exec.all_done():
            if self._journal is not None:
                self._maybe_kill_master()
                if (
                    self._journal.appended - self._compact_base
                    >= self.journal_compact_every
                ):
                    # Between events: the snapshot is the state every
                    # record appended so far has produced.
                    self._write_checkpoint()
            try:
                self._reconcile_dropped_recovery()
                self._assign_ready()
                if self.cloning and self._idle and not self._pending_ready():
                    self._maybe_clone()
                    self._assign_ready()
            except StorageNodeDown:
                if not self._absorb_storage_down():
                    raise
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SchedulingError("distributed run exceeded its timeout")
            if not self._pending:
                self._poll(min(remaining, 0.5))
                if not self._pending:
                    continue
            event = self._pending.popleft()
            try:
                if event[0] == "dead":
                    self._on_worker_dead(event[1])
                elif event[0] == "shard_dead":
                    self._on_shard_dead(event[1], event[2])
                elif event[1] in self._workers:  # else: a corpse's last words
                    self._on_message(event[1], event[2])
            except StorageNodeDown:
                # The op that failed is abandoned; if a shard really died,
                # the loss closure re-produces whatever that op was doing.
                if not self._absorb_storage_down():
                    raise

    def _pending_ready(self) -> bool:
        nodes = self.control.exec.nodes
        return any(
            node.node_id in nodes and node.state == NodeState.READY
            for node in self._ready
        )

    def _assign_ready(self) -> None:
        if self.control.condemned:
            # Nothing starts between a condemnation and its reset (which
            # applies only once every cancel is acknowledged). A member
            # of a condemned family would be discarded unfenced — a
            # zombie racing the family's replay for the same chunks. And
            # the loss closure was closed over the families started
            # *then*: a consumer dispatched in the window (its producer
            # condemned but not yet reset, so the graph still calls it
            # READY) would read a bag the reset is about to discard —
            # empty, possibly already re-sealed on a respawned shard —
            # and its result would stand.
            return
        while self._idle and self._ready:
            node = self._ready.pop(0)
            # Skip nodes discarded by a family reset, or already taken.
            if (
                node.node_id not in self.control.exec.nodes
                or node.state != NodeState.READY
            ):
                continue
            wid = self._idle.pop(0)
            self._dispatch(wid, node)

    def _dispatch(self, wid: int, node: ExecutionNode) -> None:
        worker = self._workers[wid]
        desc = self._descriptor(node)
        # Write-ahead: the assign record lands before the worker can see
        # the command. A master that dies in between replays the node as
        # RUNNING-unclaimed and resets its family — conservative but safe;
        # the reverse order could leave a running task the replay has
        # never heard of, silently double-producing after recovery.
        self._commit(("assign", node.node_id, wid))
        if self.tracer.enabled:
            self.tracer.instant(
                "dist_assign", cat="dist", node=node.node_id, worker=wid
            )
        worker.conn.send({"type": "run", "desc": desc})

    def _descriptor(self, node: ExecutionNode) -> NodeDescriptor:
        kill_after = None
        if (
            self._kill_armed_node is not None
            and self.control.owner(self._kill_armed_node) is None
        ):
            # The armed incarnation went away without dying (cancelled by
            # a concurrent recovery, or finished under the threshold and
            # was reset): the injection is unspent, so let it re-arm.
            self._kill_armed_node = None
        if (
            self._kill_armed_node is None
            and not self.control.kill_delivered
            and self.kill_task is not None
            and node.task_id == self.kill_task
            and node.kind != NodeKind.MERGE
        ):
            self._kill_armed_node = node.node_id
            kill_after = self.kill_after_chunks
        return NodeDescriptor(
            node_id=node.node_id,
            task_id=node.task_id,
            kind=node.kind.value,
            stream_input=node.stream_input,
            side_inputs=tuple(node.side_inputs),
            outputs=tuple(node.outputs),
            # Member 0's partial is in the output bag: no partial bag 0 here.
            merge_inputs=node.merge_inputs
            and (node.outputs[0], *node.merge_inputs[1:]),
            member=node.member,
            kill_after_chunks=kill_after,
        )

    # -- messages ---------------------------------------------------------------

    def _on_message(self, wid: int, msg: dict) -> None:
        mtype = msg.get("type")
        if mtype == "hello":
            self._on_hello(wid, msg)
        elif mtype == "progress":
            self._on_progress(wid, msg)
        elif mtype == "done":
            self._on_done(wid, msg)
        elif mtype == "aborted":
            self._on_aborted(wid, msg)
        elif mtype == "failed":
            node_id = msg.get("node_id")
            error = str(msg.get("error", ""))
            held = self.control.assignment.get(wid)
            if held is not None and held.task_id in self.control.condemned:
                # The cancel raced the failure (e.g. a cancelled merge read
                # an already-discarded partial bag); same cleanup.
                self._on_aborted(wid, msg)
            elif error.startswith("StorageNodeDown"):
                self._on_storage_failed(wid, msg)
            else:
                raise RemoteTaskError(
                    node_id or "?", msg.get("error", "unknown error"),
                    msg.get("traceback", ""),
                )

    def _mark_idle(self, wid: int) -> None:
        """Queue ``wid`` for work, deduplicated.

        Recovery can introduce a worker twice (a re-hello racing an
        aborted ack, or a completion whose assignment record died with the
        old master). Double-listing would let one worker hold two nodes,
        and the second assignment would overwrite the first in the
        assignment map — the orphaned node then never reports done, a
        silent hang. Dead or busy workers never re-enter the pool.
        """
        if (
            wid in self._workers
            and wid not in self.control.assignment
            and wid not in self._idle
        ):
            self._idle.append(wid)

    def _release(self, wid: int) -> Optional[ExecutionNode]:
        """``wid`` no longer holds its node — it finished, aborted, failed
        or died, each of which also acknowledges any cancel in flight to
        it. Returns the node it held."""
        node = self.control.assignment.get(wid)
        if node is not None:
            self._commit(("release", wid))
        return node

    def _on_hello(self, wid: int, msg: dict) -> None:
        """A worker introduced itself: fresh spawn, or recovery re-hello.

        A re-hello (answer to ``reattach``) carries ``running``: the node
        id the worker is mid-task on, or ``None``. What it claims replaces
        what the journal said it holds. Running work is **re-adopted** —
        the task keeps streaming, nothing resets — whether the journal
        has its assignment or lost that one record to a torn tail; a
        member of a condemned family is cancelled again (the dead
        master's cancel may have died with it) and the reset waits for
        the ack like any other.
        """
        running = msg.get("running")
        held = self.control.assignment.get(wid)
        if held is not None and held.node_id != running:
            # The journal's last word on this worker is stale: it finished
            # (or lost) that node into the dead master's void. The node it
            # left RUNNING is an orphan for the loop-top sweep, and its
            # family replays.
            self._commit(("release", wid))
            held = None
        if running is None:
            self._mark_idle(wid)
            return
        node = self.control.exec.nodes.get(running)
        if (
            node is not None
            and node.state in (NodeState.READY, NodeState.RUNNING)
            and self.control.owner(running) in (None, wid)
        ):
            if held is not node:
                self._commit(("assign", running, wid))
            if node.task_id in self.control.condemned:
                self._cancel(wid, running)
            elif self.tracer.enabled:
                self.tracer.instant(
                    "dist_readopt", cat="dist", node=running, worker=wid
                )
            return
        # Nothing the journal holds accounts for this claim — its node is
        # gone, finished, or another worker's — so more than one tail
        # record was lost. The claimant consumed stream chunks nobody
        # will re-deliver: kill it so it can never write again and
        # recover it as a corpse (fenced, replaced) whose family replays.
        # The hello's task id covers a claim whose very node is unknown.
        self._workers[wid].proc.terminate()
        self._on_worker_dead(
            wid, node.task_id if node is not None else msg.get("task")
        )

    def _on_progress(self, wid: int, msg: dict) -> None:
        node = self.control.assignment.get(wid)
        if node is None:
            return
        if self.tracer.enabled:
            self.tracer.counter(
                "dist_progress", chunks=float(msg.get("chunks", 0))
            )
        task_id = node.task_id
        if (
            node.kind == NodeKind.TASK
            and task_id in self.forced_clones
            and task_id not in self.control.forced_spent
            and task_id not in self.control.condemned
        ):
            # The original is demonstrably mid-task (it just reported
            # progress): grant the forced clones now.
            # Forced schedules are explicit test/benchmark instructions and
            # bypass the max-clones heuristic cap.
            self._commit(("forced", task_id))
            for _ in range(self.forced_clones[task_id]):
                self._grant_clone(task_id)

    def _grant_clone(self, task_id: str) -> None:
        index = self.control.exec.families[task_id].clone_counter + 1
        self._ready.extend(self._commit(("clone", task_id, index)))
        if self.tracer.enabled:
            self.tracer.instant("clone_granted", cat="dist", task=task_id)
        self.tracer.inc("dist.clones")

    def _maybe_clone(self) -> None:
        """Idle workers clone the running task with the most input left."""
        running = [
            (task_id, family)
            for task_id, family in self.control.exec.families.items()
            if not family.finished
            # An input task reads no bag: there is nothing to share.
            and family.original.stream_input is not None
            and task_id not in self.control.condemned
            and any(w.state == NodeState.RUNNING for w in family.workers)
            and self.control.exec.clone_count(task_id) < self.max_clones_per_task
            # An armed-but-undelivered worker kill pins its task to the
            # armed incarnation: a clone could drain the stream under the
            # kill threshold, and the injected fault would silently never
            # happen. Forced clone schedules still apply (explicit).
            and not (
                task_id == self.kill_task and not self.control.kill_delivered
            )
        ]
        if not running:
            return
        remaining = self._store.remaining_many(
            [family.original.stream_input for _, family in running]
        )
        best, best_remaining = None, self.clone_min_chunks - 1
        for task_id, family in running:
            left = remaining.get(family.original.stream_input, 0)
            if left > best_remaining:
                best, best_remaining = task_id, left
        if best is not None:
            self._grant_clone(best)

    def _on_done(self, wid: int, msg: dict) -> None:
        node = self.control.assignment.get(wid)
        try:
            if node is not None:
                self._complete(node, msg)
        finally:
            # The worker is idle whichever way that went. A committed
            # ``done`` released it; where the completion was ignored, the
            # node it leaves RUNNING is the loop-top sweep's to reset.
            self._release(wid)
            self._mark_idle(wid)

    def _complete(self, node: ExecutionNode, msg: dict) -> None:
        self.records_processed += msg.get("records", 0)
        self.chunks_processed += msg.get("chunks", 0)
        # Each sample is tagged with the shard that actually served it (a
        # fetcher can cross shards mid-stream on failover).
        for shard, samples in msg.get("latencies_by_shard", {}).items():
            self.chunk_rpc_seconds.extend(samples)
            self.chunk_rpc_seconds_by_shard.setdefault(shard, []).extend(samples)
        if not self.control.live(node):
            # Completed before the cancel landed; the family is being reset,
            # so ignore the completion itself.
            return
        # Write-ahead of the graph transition. What the node wrote (an
        # aggregation's value included) its worker wrote before this message:
        # a done the journal never saw replays the node as RUNNING-unclaimed,
        # and the recovery reset discards that output before the re-run.
        self._ready.extend(self._commit(("done", node.node_id)))
        family = self.control.exec.families[node.task_id]
        if family.finished:
            self._seal_complete(family.original.spec.outputs)
            self._maybe_finalize_inputs(family)

    def _maybe_finalize_inputs(self, family) -> None:
        """Compact the finished family's fully-consumed input bags.

        Spill mode only. A graph bag has at most one consumer task (a
        validated invariant), so the moment its consumer family finishes,
        the consumed frames of its input bags are dead weight on the
        shards' disks — unless the result snapshot still wants to read a
        bag back, in which case it is left alone. Journaled write-ahead
        per bag: a compacted bag can no longer serve a rewind, so a
        recovered master must know to escalate its loss to its producers
        (see ``ControlState.loss_closure``) even when the compaction RPCs
        themselves never landed.
        """
        if self.settings.resident_bytes is None:
            return
        keep = set(self._snapshot_bag_ids())
        spec = family.original.spec
        for bag_id in spec.inputs:
            if (
                bag_id not in self.graph.bags
                or bag_id in keep
                or bag_id in self.control.finalized
            ):
                continue
            self._commit(("finalize", bag_id))
            # Every replica compacts its own copy: compaction is a local
            # disk rewrite, not a replicated mutation, so it is driven
            # per-shard like pull/push rather than fanned out.
            for index in self.router.replicas(bag_id):
                self._retrying(
                    lambda i=index, b=bag_id: self._store.finalize_bag(i, b)
                )

    def _seal_complete(self, bag_ids: Iterable[str]) -> None:
        """Seal the complete ones of ``bag_ids`` in one round trip,
        tolerating a concurrent shard death.

        The completeness re-check runs on every retry attempt: if a shard
        death reset a bag's producers while we were retrying, sealing the
        now-empty replacement bag would make the re-run's inserts explode,
        so that seal is simply skipped — the family seals it again when it
        re-finishes.
        """

        def attempt() -> None:
            complete = [b for b in bag_ids if self.control.exec.bag_complete(b)]
            rounds = [self._store.submit_round(b, "seal", (b,)) for b in complete]
            for bag_id, submitted in zip(complete, rounds):
                self._store.settle(bag_id, "seal", (bag_id,), submitted)

        self._retrying(attempt)

    def _on_aborted(self, wid: int, msg: dict) -> None:
        self._release(wid)
        self._mark_idle(wid)
        self._finish_recovery_if_ready()

    # -- failure recovery --------------------------------------------------------

    def _retrying(self, fn: Callable[[], Any]) -> Any:
        """Run an *idempotent* storage op, riding out shard deaths.

        Each failure first handles any dead shard (respawn + loss closure)
        so the retry has a live process to reconnect to — without this, a
        recovery-path RPC against a dead shard would back off forever,
        because the event loop that respawns shards (and, at ``r > 1``,
        promotes their backups) is the caller: no other thread notices
        the death while a handler waits here. The sweep is the graceful
        one: a client observes the torn connection
        milliseconds before the corpse is reapable, and burning the whole
        retry budget against a shard that ``is_alive()`` still vouches for
        lets StorageNodeDown escape mid-recovery — stranding whatever
        bookkeeping the caller had already torn down.
        """

        def attempt() -> Any:
            try:
                return fn()
            except StorageNodeDown:
                self._absorb_storage_down()
                raise

        return call_with_retry(attempt, self.settings.policy, (StorageNodeDown,))

    def _check_dead_shards(self) -> bool:
        """Synchronous shard-death sweep; True if any death was handled."""
        handled = False
        for index, proc in enumerate(self._shard_procs):
            if proc is not None and not proc.is_alive():
                self._on_shard_dead(index, proc)
                handled = True
        return handled

    def _absorb_storage_down(self) -> bool:
        """Shard-death sweep with a grace window for an exit in flight.

        A client can observe the torn connection *before* the dying
        process is reapable — ``is_alive()`` still says True for a few
        milliseconds. Re-sweep briefly before declaring the failure
        unexplained; True means a death was found and handled.
        """
        deadline = time.monotonic() + 1.0
        while True:
            if self._check_dead_shards():
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    def _on_worker_dead(self, wid: int, in_doubt: Optional[str] = None) -> None:
        worker = self._workers.pop(wid, None)
        if worker is None or self._teardown:
            return
        self._unwatch(worker.conn)
        worker.proc.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        if wid in self._idle:
            self._idle.remove(wid)
        self.worker_deaths += 1
        self.tracer.inc("dist.worker_deaths")
        if self.tracer.enabled:
            self.tracer.instant("worker_dead", cat="dist", worker=wid)
        # A cancel in flight to this worker can never be acknowledged —
        # the EOF *is* the acknowledgement, like every release. Without
        # it a member killed between its family's condemnation and its
        # abort poll holds its node forever: the reset never applies, every
        # worker idles, and the run rides its timeout out (seen as a
        # shard-kill + worker-kill cocktail wedging the whole job).
        node = self._release(wid)
        if node is not None and node.node_id == self._kill_armed_node:
            self._kill_armed_node = None
            # Journaled so a recovered master knows the injected worker
            # kill already happened and must not re-arm it.
            self._commit(("kill_delivered",))
        if self.worker_deaths > self.max_worker_restarts:
            raise SchedulingError(
                f"{self.worker_deaths} worker deaths exceed the restart budget"
            )
        # All of the corpse's in-flight storage writes — on every shard it
        # touched — are applied before recovery mutates any bag.
        self._retrying(lambda: self._store.fence(f"worker-{wid}", 10.0))
        self._spawn_worker()
        # Unless the family is already being reset (e.g. its shard died
        # first), what the corpse consumed is gone: replay its family
        # (``in_doubt``: the one it claimed, unknown to the journal).
        seeds = self._seed(node)
        if in_doubt in self.control.exec.families:
            seeds += (in_doubt,)
        self._condemn(set(), {}, seeds)

    def _seed(self, node: Optional[ExecutionNode]) -> Tuple[str, ...]:
        """The loss-closure seed for a node whose worker failed under it:
        its family, unless the node is no longer live."""
        if node is not None and self.control.live(node):
            return (node.task_id,)
        return ()

    def _on_shard_dead(self, index: int, proc) -> None:
        if self._teardown:
            return
        if self._shard_procs[index] is not proc:
            return  # stale event for an already-replaced process
        self._unwatch(proc.sentinel)
        proc.join(timeout=5.0)
        self.shard_deaths += 1
        self.tracer.inc("dist.shard_deaths")
        if self.tracer.enabled:
            self.tracer.instant(
                "shard_dead", cat="dist", shard=index, exitcode=proc.exitcode
            )
        if self.shard_deaths > self.max_shard_restarts:
            raise SchedulingError(
                f"{self.shard_deaths} shard deaths exceed the restart budget"
            )
        self._store.invalidate(index)
        if self.replication > 1:
            # Failover, not replay: promote the dead shard's backups by
            # bumping its demotion epoch and pushing the vector to every
            # surviving shard — from that point the epoch-minimal backup
            # serves each affected bag and clients' sweeps land there.
            # Until then — this handler may run late, behind a busy loop —
            # the survivors' own gossip demotes the dead peer after
            # GOSSIP_DEATH_STRIKES refused rounds, well inside the
            # clients' patience.
            self._promote_backups(index)
        # Replacement next: reconnects must find a listener on the stable
        # path, and the recovery discards/resync go through it too. The
        # spawn args carry the bumped epoch vector, so the replacement
        # starts demoted and cannot serve its empty bags as truth.
        reopened = self._spawn_shard(index)
        self.router.respawn(index)
        for worker in self._workers.values():
            try:
                worker.conn.send(
                    {"type": "rebind", "shard": index, "epochs": self.control.epochs}
                )
            except (OSError, BrokenPipeError):
                pass  # dying worker; its EOF recovery handles the rest
        # Recover the copies the dead shard held. A replacement that
        # reopened its segment directory has them all — pending chunks,
        # consumed markers and removal-dedup logs — and in-flight client
        # streams retry straight through; the probe confirms it answers
        # before trusting it. Otherwise every copy is re-replicated from
        # a surviving replica, and what has none is lost.
        if reopened and self._probe_reopen(index):
            self.tracer.inc("dist.shard_reopens")
            if self.tracer.enabled:
                self.tracer.instant("shard_reopened", cat="dist", shard=index)
            return
        # With every copy re-replicated nothing is lost: zero resets.
        self._condemn(*self._resync_shard(index))

    def _shard_alive(self, shard: int) -> bool:
        proc = self._shard_procs[shard]
        return proc is not None and proc.is_alive()

    def _probe_reopen(self, index: int) -> bool:
        """True once respawned shard ``index`` answers; its reopened
        segment directory is then trusted as the bags' state."""
        try:
            self._retrying(lambda: self._store.probe(index))
            return True
        except ReproError:
            return False

    def _resync_shard(self, index: int) -> Tuple[Set[str], Dict[str, str]]:
        """Re-replicate every bag copy the dead shard held, onto its respawn.

        Each affected bag is pulled from its *serving* replica (the
        promoted copy clients are now reading — packages merge
        monotonically, so concurrent traffic is safe) and pushed into the
        replacement, one pull/push round trip per bag so no frame ever
        carries more than one bag. Returns the bags with **no**
        shippable replica — at ``replication == 1`` every bag the shard
        held, otherwise deaths beyond the replication factor, or a bag
        whose package alone exceeds the frame cap; those fall back to
        the replay path.
        """
        resync_started = time.monotonic()
        graph_bags, partials = self.control.replica_bags(index, self.router)
        lost_bags: Set[str] = set()
        lost_partials: Dict[str, str] = {}
        shipped = 0
        for bag_id in sorted(graph_bags) + sorted(partials):
            source = next(
                (
                    shard
                    for shard in self._store.serving_order(bag_id)
                    if shard != index and self._shard_alive(shard)
                ),
                None,
            )
            if source is not None:
                try:
                    packages = self._retrying(
                        lambda s=source, b=bag_id: self._store.pull(s, [b])
                    )
                    self._retrying(lambda p=packages: self._store.push(index, p))
                    shipped += 1
                    continue
                except FrameError as exc:
                    self.tracer.inc("dist.resync_oversize")
                    if self.tracer.enabled:
                        self.tracer.instant(
                            "resync_oversize", cat="dist", bag=bag_id, error=str(exc)
                        )
            if bag_id in partials:
                lost_partials[bag_id] = partials[bag_id]
            else:
                lost_bags.add(bag_id)
        if shipped:
            self.resync_seconds.append(time.monotonic() - resync_started)
        if self.tracer.enabled:
            self.tracer.instant(
                "shard_resynced",
                cat="dist",
                shard=index,
                bags=shipped,
                lost=len(lost_bags) + len(lost_partials),
            )
        return lost_bags, lost_partials

    def _condemn(
        self,
        lost_bags: Set[str],
        lost_partials: Dict[str, str],
        seeds: Iterable[str] = (),
    ) -> None:
        """Close the loss over the started families, record the
        condemnation, cancel what still runs, reset if nothing does.

        The one path from any failure to a family reset: a dead worker,
        a storage blip or an orphan seeds its family; a dead shard names
        the bags with no surviving copy.
        """
        to_reset = self.control.loss_closure(lost_bags, lost_partials, seeds)
        if to_reset:
            # Write-ahead condemnation: the decision to reset these
            # families must survive a master death that lands between the
            # cancels below and the eventual reset record — replaying only
            # the assigns would resurrect families whose inputs a
            # shard-loss closure already declared inconsistent.
            self._commit(("condemn", sorted(to_reset)))
        for wid, node in sorted(self.control.assignment.items()):
            if node.task_id in to_reset:
                self._cancel(wid, node.node_id)
        self._finish_recovery_if_ready()

    def _cancel(self, wid: int, node_id: str) -> None:
        try:
            self._workers[wid].conn.send({"type": "cancel", "node_id": node_id})
        except (KeyError, OSError, BrokenPipeError):
            pass  # that worker is dying too; its EOF releases the node

    def _on_storage_failed(self, wid: int, msg: dict) -> None:
        """A task failed with StorageNodeDown: shard death or a blip."""
        node = self._release(wid)
        self._mark_idle(wid)
        # Most likely a shard just died under the task; handling the death
        # first usually folds this family into the loss closure.
        self._absorb_storage_down()
        seed = self._seed(node)
        if seed:
            # No dead shard owns this: a blip (e.g. a stale connection
            # racing a respawn). Reset just this family, under a budget.
            self.storage_resets += 1
            self.tracer.inc("dist.storage_resets")
            if self.storage_resets > self.max_storage_resets:
                raise RemoteTaskError(
                    msg.get("node_id", "?"), msg.get("error", "storage failure"),
                    msg.get("traceback", ""),
                )
        self._condemn(set(), {}, seed)

    def _finish_recovery_if_ready(self) -> None:
        if self._in_recovery:
            return  # a nested shard death condemned more; the loop below sees it
        self._in_recovery = True
        try:
            while self.control.condemned and not self.control.cancels_outstanding():
                self._apply_recovery()
        finally:
            self._in_recovery = False

    def _reconcile_dropped_recovery(self) -> None:
        """Loop-top repair for recoveries interrupted by an absorbed shard death.

        A worker death and a shard death landing together can unwind
        ``_on_worker_dead`` / ``_apply_recovery`` mid-way: the event loop
        absorbs the StorageNodeDown (respawn + segment reopen or replica
        resync, zero resets) and carries on, but the interrupted handler
        never finished — a replacement worker never spawned, a condemned
        family never reset, a RUNNING node held by nobody. A resumed
        master finds the same three in its journal. Repair each:

        * finish any condemned-but-unapplied reset (the condemnation
          stays outstanding until its ``reset`` is committed);
        * top the worker pool back up if a death handler unwound before
          its ``_spawn_worker``;
        * condemn RUNNING nodes that no live worker holds — nothing will
          ever report those done, and every worker idles forever.
        """
        self._finish_recovery_if_ready()
        while len(self._workers) < self.workers:
            self._spawn_worker()
        for wid in [w for w in self.control.assignment if w not in self._workers]:
            # Held by no worker of ours (the journal's fleet lost it, or
            # its death handler unwound early): it will never ack or finish.
            self._release(wid)
        orphans = self.control.orphans()
        if orphans:
            self.tracer.inc("dist.orphan_resets")
            self._condemn(set(), {}, sorted(orphans))

    def _apply_recovery(self) -> None:
        """Carry out the outstanding condemnation, then record the reset.

        Nothing is committed before every storage effect has landed: a
        StorageNodeDown that outlives _retrying's budget (a shard dying
        while a worker-death reset is being applied) unwinds to the event
        loop, which absorbs the death and carries on — the condemnation
        is still outstanding, so the loop-top reconcile re-runs the whole
        (idempotent) apply. Dropping it would be a permanent hang.
        """
        tasks = sorted(self.control.condemned)
        deaths = self.shard_deaths
        families = self.control.exec.families
        for task_id in tasks:
            family = families[task_id]
            spec = family.original.spec
            # All a member or merge writes: the outputs, a clone's partial.
            bags = set(spec.outputs)
            if spec.needs_merge:
                for index in range(1, family.clone_counter + 1):
                    bags.add(partial_bag_id(task_id, index))
            for bag_id in sorted(bags):
                self._retrying(lambda b=bag_id: self._store.get(b).discard())
        for task_id in tasks:
            stream_input = families[task_id].original.spec.stream_input
            if stream_input is not None:  # an input task reads no bag
                self._retrying(lambda b=stream_input: self._store.get(b).rewind())
        if self.shard_deaths != deaths:
            # A shard died under these effects (absorbed inside _retrying):
            # some of what was just discarded or rewound may have
            # gone with it, and its loss closure may have condemned more.
            # Close nothing — the caller's loop runs the effects again over
            # the union once the new cancels are acknowledged.
            return
        # Committed *after* the storage effects: the record asserts "these
        # families were reset and their bags discarded/rewound", which is
        # only true here. A death before this line replays the condemn
        # record instead, and the recovery re-runs the (idempotent)
        # discards — conservative, never wrong.
        self._ready.extend(self._commit(("reset", tasks)))
        for task_id in tasks:
            self.family_resets += 1
            self.tracer.inc("dist.family_resets")
            if self.tracer.enabled:
                self.tracer.instant("family_reset", cat="dist", task=task_id)

    # -- master checkpoint-replay -------------------------------------------------

    def _commit(self, record: Tuple) -> List[ExecutionNode]:
        """The one way control state changes: journal ``record`` (when
        journaling; write-ahead of the effect it licenses), then apply it.
        Returns the nodes the transition made READY."""
        if self._journal is not None:
            self._journal.append(record)
        return self.control.apply(record)

    def _maybe_kill_master(self) -> None:
        """Fault injection: simulate a master SIGKILL at the event-loop top.

        Workers and shards are real processes and genuinely survive; only
        the master's in-process state dies — by abandonment. It stops
        reading its pipes (what the workers send waits there, unread, for
        :meth:`resume`'s attendance to drop), the storage connections drop
        without goodbye, and ``_shutdown`` is disarmed so the fleet
        outlives this incarnation for :meth:`resume` to adopt.
        """
        if (
            self.kill_master_after_records is None
            or self._simulated_death
            or self._journal.appended < self.kill_master_after_records
        ):
            return
        self._simulated_death = True
        self._teardown = True
        fleet = MasterFleet(
            workers=dict(self._workers),
            shard_procs=list(self._shard_procs),
            shard_addresses=list(self._shard_addresses),
            shard_paths=list(self._shard_paths),
            socket_dir=self._socket_dir,
            authkey=self._authkey,
            journal_dir=self.journal_dir,
        )
        self._selector.close()
        self._journal.close()
        if self._store is not None:
            self._store.close()
        raise MasterKilled(fleet)

    def _write_checkpoint(self) -> None:
        """Compact the journal: current state as snapshot, WAL truncated."""
        self._journal.write_snapshot(self.control.snapshot_records())
        self._compact_base = self._journal.appended

    def resume(
        self,
        fleet: MasterFleet,
        inputs: Dict[str, Iterable[Any]],
        timeout: float = 120.0,
    ) -> DistResult:
        """Reconstruct the master from its journal and drive the run home.

        Call on a **fresh** runtime built with the same application,
        constructor arguments (and ``journal_dir``) and ``inputs`` as the
        one that raised :class:`MasterKilled`: the journal holds control
        records only. Recovery: load snapshot + WAL tail and
        ``apply`` each record — the very function the dead master ran them
        through; adopt the surviving shard fleet (probing each survivor
        for its epoch vector, respawning the dead); re-adopt the workers
        via the reattach handshake — a re-hello replaces what the journal
        said that worker holds with what it claims, so running nodes a
        live worker still claims continue untouched, and everything
        RUNNING per the journal but claimed by nobody is an orphan the
        event loop's ordinary loop-top sweep resets, as it finishes any
        condemnation the journal left outstanding; re-seal what finished;
        resume the event loop.
        """
        self._take_inputs(inputs)
        deadline = time.monotonic() + timeout
        started = time.monotonic()
        if self.journal_dir is None:
            self.journal_dir = fleet.journal_dir
        records = MasterJournal.load(self.journal_dir)
        if records is None:
            raise SchedulingError(
                f"no journal checkpoint in {self.journal_dir!r}; a master "
                "that never checkpointed cannot be resumed"
            )
        for record in records:
            self.control.apply(record)
        # Adopt the surviving fleet.
        self._socket_dir = fleet.socket_dir
        if self.settings.resident_bytes is not None:
            # Every adopted shard already opened its segment directory
            # under the dead incarnation; a respawn under this one must
            # reopen, never wipe.
            self._segments_opened = set(range(self.shards))
        self._shard_paths = list(fleet.shard_paths)
        self._shard_procs = list(fleet.shard_procs)
        self._shard_addresses = list(fleet.shard_addresses)
        self._authkey = fleet.authkey
        self._workers = fleet.workers
        self._journal = MasterJournal(self.journal_dir)
        self._compact_base = self._journal.appended
        self._commit(("generation", self.control.generation + 1))
        if fleet.workers:
            # The fleet outranks the journal on wids in use: a spawn
            # record lost to a torn tail must not make the sequence hand
            # out a wid some surviving process already owns.
            self._commit(("spawn", max(fleet.workers)))
        try:
            # Generation-scoped client id: the dead incarnation's chunk-id
            # stamps and removal seqs live on in the shards' dedup state,
            # and a successor reusing ``master`` would have its first
            # writes silently swallowed as duplicates.
            self._store = ShardedBagStore(
                self._shard_addresses,
                self._authkey,
                f"master.g{self.control.generation}",
                self.settings.policy,
                router=self.router,
            )
            # Probe the survivors: max-merge any demotions the shards
            # gossiped among themselves while no master was alive, then
            # make the merged vector authoritative everywhere.
            for index, proc in enumerate(self._shard_procs):
                if not self._shard_alive(index):
                    continue
                self._watch(proc.sentinel, ("shard_dead", index, proc))
                try:
                    gossiped = self._store.probe(index).get("epochs")
                except ReproError:
                    continue  # died since the aliveness check; reaped below
                if gossiped:
                    self._commit(("epochs", gossiped))
            vector = dict(self.control.epochs)
            self._store.adopt_epochs(vector)
            if self.replication > 1 and vector:
                for index in range(self.shards):
                    if not self._shard_alive(index):
                        continue
                    try:
                        self._store.push_epochs(index, vector)
                    except ReproError:
                        pass  # its death event re-pushes
            # Re-adopt the workers: select on their pipes, then take
            # attendance with the reattach handshake.
            for wid, worker in self._workers.items():
                self._watch(worker.conn, ("msg", wid))
            dead_wids: Set[int] = set()
            awaiting: Set[int] = set()
            for wid, worker in sorted(self._workers.items()):
                if not worker.proc.is_alive():
                    dead_wids.add(wid)
                    continue
                try:
                    worker.conn.send(
                        {"type": "reattach", "epochs": vector}
                    )
                    awaiting.add(wid)
                except (OSError, BrokenPipeError):
                    dead_wids.add(wid)
            adopted = set(awaiting)
            stashed: List[Tuple] = []
            greeted: Set[int] = set()
            adopt_deadline = time.monotonic() + 10.0
            while awaiting and time.monotonic() < adopt_deadline:
                self._poll(0.1)
                while self._pending:
                    event = self._pending.popleft()
                    if event[0] == "dead":
                        awaiting.discard(event[1])
                        dead_wids.add(event[1])
                    elif (
                        event[0] == "msg"
                        and event[2].get("type") == "hello"
                        # An adopted worker's answer to the reattach; its
                        # spawn greeting (no ``running``) is pre-hello.
                        and ("running" in event[2] or event[1] not in adopted)
                    ):
                        awaiting.discard(event[1])
                        greeted.add(event[1])
                        self._on_hello(event[1], event[2])
                    elif event[0] == "shard_dead" or event[1] in greeted:
                        # A shard's exit, or post-hello traffic from an
                        # adopted mid-task worker (progress, or its done
                        # landing while attendance continues elsewhere):
                        # live — handed to the event loop below, once the
                        # dead are recovered.
                        stashed.append(event)
                    # Pre-hello traffic is from the dead master's era (a
                    # pipe is FIFO: it was sent before the hello) and is
                    # DROPPED, as the dead master would have lost it.
                    # This is load-bearing: a worker that finished node X
                    # into the void answers the reattach from its *idle*
                    # loop (running=None), so X resets and re-dispatches —
                    # replaying its stale pre-death done against the
                    # re-run's fresh assignment would complete a node whose
                    # partials the re-run has not produced yet. Nothing
                    # committed is lost: any done the dead master journaled
                    # replays from the journal, and one it did not journal
                    # is unprovable and must reset anyway.
            for wid in sorted(awaiting):
                # Unresponsive within the window: kill it first so it can
                # never write again, then recover it as a corpse.
                self._workers[wid].proc.terminate()
                dead_wids.add(wid)
            # The dead, through the ordinary handlers: the assignment map
            # already says what each corpse held.
            for index, proc in enumerate(list(self._shard_procs)):
                if proc is not None and not proc.is_alive():
                    self._on_shard_dead(index, proc)
            for wid in sorted(dead_wids):
                self._on_worker_dead(wid)
            # Re-seal: a family whose done landed in the journal may have
            # died before its output bag's seal RPC. Idempotent.
            self._seal_complete(sorted(self.graph.bags))
            self.master_recoveries += 1
            self._write_checkpoint()
            self.master_failover_seconds.append(time.monotonic() - started)
            self._pending.extend(stashed)
            return self._run_to_completion(deadline)
        finally:
            self._shutdown()

    # -- results & teardown -------------------------------------------------------

    def _snapshot_bag_ids(self) -> List[str]:
        if self.snapshot_bags == "all":
            return list(self.graph.bags)
        if self.snapshot_bags == "sinks":
            return self.graph.sink_bags()
        return list(self.snapshot_bags)

    def _snapshot(self) -> Dict[str, List[Any]]:
        return {
            bag_id: bag_records(self._store, self.graph, bag_id)
            for bag_id in self._snapshot_bag_ids()
        }

    def _shutdown(self) -> None:
        if self._simulated_death:
            # The fleet deliberately outlives this master incarnation; a
            # successor adopts it via resume().
            return
        self._teardown = True
        self._selector.close()  # before any pipe it watches is closed
        if self._journal is not None:
            self._journal.close()
        for worker in self._workers.values():
            try:
                worker.conn.send({"type": "shutdown"})
            except (OSError, BrokenPipeError):
                pass
        for worker in self._workers.values():
            worker.proc.join(timeout=3.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        if self._store is not None:
            try:
                self._store.shutdown()
            except ReproError:
                pass
            self._store.close()
        for proc in self._shard_procs:
            if proc is None:
                continue
            proc.join(timeout=3.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)
