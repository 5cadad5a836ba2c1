"""The worker process: clone-anywhere task execution over remote bags.

A worker is a loop over master commands. For a TASK/CLONE node it runs
the task function against a :class:`DistTaskContext` — the shared
:class:`~repro.local.context.TaskContext` with the stream input swapped
for the batch-sampling :class:`~repro.dist.client.MuxBatchFetcher`,
streaming from whichever storage shard serves the input bag — then writes
its partial (aggregations) itself: member 0, the original, straight into
the task's output bag (for a family that never clones that *is* the
result), clone ``k`` into the family's partial bag ``k``. An *input
task* gets no fetcher: it emits its slice of the fork-inherited inputs.

The task-side surface is the base class's, unchanged: ``batches()`` /
``emit_many()`` a chunk at a time, ``records()`` / ``emit()`` a record at
a time, one input cursor however the two are interleaved, and a batch is
the task's to mutate (a fetched chunk is decoded into a list nothing else
holds). The only thing this module overrides is the input loop,
:meth:`DistTaskContext._input` — one step per fetched chunk — and
everything the engine does per chunk lives in that one loop: the cancel
poll, the progress message, ``kill_after_chunks``. ``records()`` is the
base class's flatten over it, so no second copy of the loop exists for
the per-record form to drift from.

For a MERGE node the worker reads member 0's partial out of the output
bag and the clones' out of their partial bags, empties the output bag,
folds in member order and emits the reconciled value in the partial's
place. The bag is the family's alone (``DistRuntime`` refuses a graph
where another task writes it), and dying inside the replace is a worker
death inside the family: the reset discards the bag and re-runs everyone.

Late binding is literal here: a clone started mid-task simply opens the
same input bag and starts removing chunks; the storage server's
exactly-once removal partitions the remaining work between the clone and
the original without any coordination.

Cancellation piggybacks on the command pipe: between chunks the context
polls for a ``cancel`` message (sent when another family member's worker
died and the master is resetting the family) and unwinds with
``_Cancelled``, acknowledged as ``aborted`` — under either form of the
surface a cancelled task sees at most the batch it already holds.

Output goes through the store's pipelined chunk writer, ``b`` insert
fan-outs in flight, under one rule: nothing is acknowledged upward while
a write is in flight. ``flush()`` drains before ``done``; ``aborted`` and
``failed`` are sent only after the writer was abandoned (every in-flight
insert waited out, none re-sent).
"""

from __future__ import annotations

import os
import traceback
from typing import Any, List, Optional, Sequence

from repro.dist.client import MuxBatchFetcher, ShardedBagStore
from repro.dist.protocol import DistSettings, NodeDescriptor
from repro.dist.sharding import ShardRouter
from repro.engine.common import (
    bag_records,
    emit_value,
    fold_partials,
    resolve_merge,
)
from repro.errors import FetchTimeout, SchedulingError
from repro.local.context import TaskContext
from repro.model.execution_graph import partial_bag_id
from repro.model.graph import AppGraph
from repro.sim.rand import rng_from


class _Cancelled(BaseException):
    """Raised inside a task to unwind it after a master cancel message.

    BaseException so ordinary ``except Exception`` blocks in user task
    functions cannot swallow the cancellation.
    """


class _NodeShim:
    """Duck-typed stand-in for ExecutionNode built from a NodeDescriptor."""

    def __init__(self, desc: NodeDescriptor, spec):
        self.node_id = desc.node_id
        self.spec = spec
        self.stream_input = desc.stream_input
        self.side_inputs = desc.side_inputs
        self.outputs = desc.outputs

    @property
    def task_id(self) -> str:
        return self.spec.task_id


class _WorkerRuntime:
    """The runtime surface TaskContext expects (graph, store, chunking,
    and a chunk writer per task — Eq. 1's ``b``, applied to ``emit``)."""

    def __init__(self, graph: AppGraph, store: ShardedBagStore, settings: DistSettings):
        self.graph = graph
        self.store = store
        self.chunk_size = settings.chunk_size
        self._write_depth = settings.batch_requests

    def writer(self):
        return self.store.writer(self._write_depth)

    def emit_value(self, bag_id: str, value: Any) -> None:
        emit_value(self.store, self.graph, bag_id, value)


#: Cap on latency samples shipped back per task and shard, kept by a
#: seeded reservoir so the percentiles cover the whole run, not its
#: warm-up.
_LATENCY_SAMPLE_CAP = 512


def reservoir_sample(samples: Sequence[Any], k: int, *seed_parts: object) -> List[Any]:
    """Uniform ``k``-sample of ``samples`` (Algorithm R), seeded.

    Every element has probability ``k/n`` of surviving, so a capped
    latency population keeps its steady-state shape instead of freezing
    the first ``k`` warm-up samples.  Deterministic in the seed labels.
    """
    if k < 1:
        raise ValueError(f"reservoir size must be >= 1, got {k}")
    if len(samples) <= k:
        return list(samples)
    rng = rng_from("latency-reservoir", *seed_parts)
    reservoir = list(samples[:k])
    for index in range(k, len(samples)):
        slot = rng.randrange(index + 1)
        if slot < k:
            reservoir[slot] = samples[index]
    return reservoir


class DistTaskContext(TaskContext):
    """TaskContext whose stream input is served by the batch fetcher."""

    def __init__(self, runtime, node, fetcher, cmd_conn, desc: NodeDescriptor):
        super().__init__(runtime, node)
        self._fetcher = fetcher
        self._cmd_conn = cmd_conn
        self._desc = desc
        self._progress_every = max(1, fetcher.batch) if fetcher is not None else 1

    def abandon(self) -> None:
        """Wait out the writer's in-flight inserts, re-sending none."""
        self._writer.abandon()

    def _poll_cancel(self) -> None:
        while self._cmd_conn.poll(0):
            msg = self._cmd_conn.recv()
            if msg.get("type") == "cancel" and msg.get("node_id") == self._desc.node_id:
                raise _Cancelled(self._desc.node_id)
            if msg.get("type") == "rebind":
                # A storage shard was respawned mid-task: drop the stale
                # connection now so the next RPC reconnects to the new
                # process instead of failing on the corpse's socket.
                self._runtime.store.invalidate(msg["shard"])
                self._runtime.store.adopt_epochs(msg.get("epochs") or {})
                continue
            if msg.get("type") == "reattach":
                # A recovered master is taking attendance mid-task:
                # re-introduce ourselves with the node id we are running,
                # so it re-adopts this in-flight work instead of resetting
                # the family — the chunk stream continues uninterrupted.
                self._runtime.store.adopt_epochs(msg.get("epochs") or {})
                self._cmd_conn.send(
                    {
                        "type": "hello",
                        "pid": os.getpid(),
                        "running": self._desc.node_id,
                        # The task id rides along for the claim the master
                        # cannot confirm (e.g. a clone grant lost to a torn
                        # journal tail): the master knows which family to
                        # replay even when the node id means nothing to it.
                        "task": self._desc.task_id,
                    }
                )
                continue
            # Anything else addressed to a busy worker is stale; drop it.

    def _next_chunk(self):
        # Bounded waits, polling for cancellation in between: after a
        # storage-shard death the stream bag may sit empty-and-unsealed on
        # the respawned shard until recovery re-produces it — a task already
        # condemned by that same recovery must notice its cancel message
        # instead of blocking in fetcher.get() forever.
        while True:
            try:
                return self._fetcher.get(timeout=0.05)
            except FetchTimeout:
                self._poll_cancel()

    def _input(self):
        """The dist input loop: one fetched chunk's records per step."""
        kill_after = self._desc.kill_after_chunks
        while True:
            chunk = self._next_chunk()
            if chunk is None:
                return
            self._poll_cancel()
            self.chunks_in += 1
            if self.chunks_in == 1 or self.chunks_in % self._progress_every == 0:
                self._cmd_conn.send(
                    {
                        "type": "progress",
                        "node_id": self._desc.node_id,
                        "chunks": self.chunks_in,
                        "records": self.records_in,
                    }
                )
            records = self._decode(self._node.stream_input, chunk)
            self.records_in += len(records)
            yield records
            if kill_after is not None and self.chunks_in >= kill_after:
                # Fault injection: die exactly like a SIGKILLed process —
                # no flushes, no goodbyes; the master sees EOF.
                os._exit(17)


def _run_task(
    runtime: _WorkerRuntime,
    desc: NodeDescriptor,
    cmd_conn,
    settings: DistSettings,
    wid: str,
) -> dict:
    spec = runtime.graph.tasks[desc.task_id]
    if spec.fn is None:
        raise SchedulingError(
            f"task {desc.task_id!r} has no fn; distributed execution needs one"
        )
    node = _NodeShim(desc, spec)
    fetcher: Optional[MuxBatchFetcher] = None
    if desc.stream_input is not None:  # an input task streams nothing
        fetcher = MuxBatchFetcher(
            runtime.store, desc.stream_input, settings.batch_requests
        )
    ctx = DistTaskContext(runtime, node, fetcher, cmd_conn, desc)
    try:
        result = spec.fn(ctx)
        ctx.flush()
    except BaseException:
        # Nothing is acknowledged upward while a write is in flight: the
        # master discards a reset family's output bags over its own
        # connection the moment ``aborted``/``failed`` arrives, and an
        # insert landing on this worker's lane after that discard would
        # be delivered twice.
        ctx.abandon()
        raise
    finally:
        if fetcher is not None:
            fetcher.stop()
    latencies = fetcher.latencies_by_shard if fetcher is not None else {}
    if spec.needs_merge:
        if result is None:
            raise SchedulingError(
                f"aggregation task {desc.task_id!r} returned None; tasks "
                "with a merge must return their partial output"
            )
        if desc.member == 0:
            target = spec.outputs[0]
        else:
            target = partial_bag_id(desc.task_id, desc.member)
        runtime.emit_value(target, result)
    elif result is not None:
        raise SchedulingError(
            f"task {desc.task_id!r} returned a value but declares no merge"
        )
    return {
        "records": ctx.records_in,
        "chunks": ctx.chunks_in,
        # Tagged per serving shard (a fetcher can be served by several
        # shards across a failover). Capped via a seeded reservoir — a
        # plain head slice froze the percentiles at warm-up behavior
        # once a task streamed past the cap.
        "latencies_by_shard": {
            shard: reservoir_sample(
                samples, _LATENCY_SAMPLE_CAP, desc.node_id, shard
            )
            for shard, samples in latencies.items()
        },
    }


def _run_merge(runtime: _WorkerRuntime, desc: NodeDescriptor) -> dict:
    spec = runtime.graph.tasks[desc.task_id]
    store, output = runtime.store, desc.outputs[0]
    partials: List[Any] = []
    for bag_id in desc.merge_inputs:
        # Member 0's partial is encoded as the output bag's own record,
        # a clone's by the codec-less rule of a bag outside the graph.
        values = bag_records(store, runtime.graph, bag_id)
        if len(values) != 1:
            raise SchedulingError(
                f"merge input {bag_id!r} holds {len(values)} values, expected 1"
            )
        partials.append(values[0])
    store.get(output).discard()
    merged = fold_partials(resolve_merge(spec), desc.task_id, partials)
    runtime.emit_value(output, merged)
    return {"records": 0, "chunks": 0, "latencies_by_shard": {}}


def worker_main(
    wid: int,
    cmd_conn,
    addresses,
    authkey: bytes,
    graph: AppGraph,
    settings: DistSettings,
    close_conns=(),
    epochs=None,
) -> None:
    """Process entry point for one worker (forked; graph and inputs free).

    ``addresses`` lists the storage shards in index order; the worker
    holds one lazily-connected chunk client per shard behind a
    :class:`~repro.dist.client.ShardedBagStore` and routes every bag
    access through the shared :class:`~repro.dist.sharding.ShardRouter`.
    ``epochs`` seeds the replica sweep-order hints: a worker spawned
    after a shard failover must not waste its first RPCs rediscovering
    demotions the master already knows about.
    """
    for other in close_conns:
        # Inherited copies of other workers' pipe ends: close them so a
        # sibling's death is visible to the master as EOF.
        try:
            other.close()
        except OSError:
            pass
    client_id = f"worker-{wid}"
    router = ShardRouter(len(addresses), settings.replication)
    store = ShardedBagStore(
        addresses,
        authkey,
        client_id,
        settings.policy,
        router=router,
    )
    store.adopt_epochs(epochs or {})
    runtime = _WorkerRuntime(graph, store, settings)
    cmd_conn.send({"type": "hello", "wid": wid, "pid": os.getpid()})
    try:
        while True:
            try:
                msg = cmd_conn.recv()
            except (EOFError, OSError):
                return  # master went away
            mtype = msg.get("type")
            if mtype == "shutdown":
                return
            if mtype == "cancel":
                continue  # stale: the node already finished here
            if mtype == "rebind":
                # A storage shard was respawned while this worker idled;
                # drop the stale connection so the next task reconnects,
                # and adopt the demotion epochs so replicated reads go to
                # the promoted primary, not the freshly-resynced respawn.
                store.invalidate(msg["shard"])
                store.adopt_epochs(msg.get("epochs") or {})
                continue
            if mtype == "reattach":
                # A recovered master is taking attendance; an idle worker
                # answers with ``running: None`` — anything it finished
                # while the old master was dying was reported into the
                # void and will be re-proven by replay, not trusted.
                store.adopt_epochs(msg.get("epochs") or {})
                cmd_conn.send(
                    {"type": "hello", "pid": os.getpid(), "running": None}
                )
                continue
            if mtype != "run":
                continue
            desc: NodeDescriptor = msg["desc"]
            try:
                if desc.kind == "merge":
                    stats = _run_merge(runtime, desc)
                else:
                    stats = _run_task(runtime, desc, cmd_conn, settings, client_id)
            except _Cancelled:
                cmd_conn.send({"type": "aborted", "node_id": desc.node_id})
            except BaseException as exc:
                cmd_conn.send(
                    {
                        "type": "failed",
                        "node_id": desc.node_id,
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(),
                    }
                )
            else:
                cmd_conn.send({"type": "done", "node_id": desc.node_id, **stats})
    finally:
        store.close()
