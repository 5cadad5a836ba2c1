"""The local runtime: a thread pool executing the execution graph.

Scheduling mirrors the simulated master/task-manager split collapsed into
one process: a shared ready queue feeds worker threads; node completions
advance the shared :class:`~repro.model.execution_graph.ExecutionGraph`
under a lock; output bags seal when their producing family finishes, which
is what lets consumers treat "empty" as "done".

Aggregation tasks (those declaring a merge) *return* their partial value;
the runtime folds the family's partials with the merge procedure when the
merge node runs, so a cloned task reconciles to exactly the un-cloned
output. Idle workers clone the busiest running task (late binding does the
rest: clones simply start removing chunks from the shared input bag).
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Dict, Iterable, List, Optional

from repro.engine.common import (
    DirectWriter,
    bag_records,
    emit_value,
    fill_bag,
    fold_partials,
    require_tasks,
    resolve_merge,
)
from repro.errors import ReproError, SchedulingError
from repro.local.context import TaskContext
from repro.model.application import Application
from repro.model.execution_graph import (
    ExecutionGraph,
    ExecutionNode,
    NodeKind,
    NodeState,
)
from repro.model.graph import AppGraph
from repro.storage.local import LocalBagStore
from repro.units import KB


class LocalResult:
    """Read access to every bag after a run, plus execution statistics."""

    def __init__(self, runtime: "LocalRuntime"):
        self._runtime = runtime
        self.clone_counts: Dict[str, int] = {
            task_id: 1 + len(family.clones)
            for task_id, family in runtime.exec.families.items()
        }
        self.records_processed = runtime.records_processed
        self.chunks_processed = runtime.chunks_processed

    def records(self, bag_id: str) -> List[Any]:
        """All records of a bag, decoded (non-destructive)."""
        return bag_records(self._runtime.store, self._runtime.graph, bag_id)

    def value(self, bag_id: str) -> Any:
        """The single record of a one-record output bag."""
        records = self.records(bag_id)
        if len(records) != 1:
            raise ReproError(
                f"bag {bag_id!r} holds {len(records)} records, expected 1"
            )
        return records[0]

    def total_clones(self) -> int:
        return sum(count - 1 for count in self.clone_counts.values())


class LocalRuntime:
    def __init__(
        self,
        app: Application,
        workers: int = 4,
        cloning: bool = True,
        chunk_size: int = 64 * KB,
        clone_min_chunks: int = 2,
        max_clones_per_task: Optional[int] = None,
        store=None,
        forced_clones: Optional[Dict[str, int]] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.graph: AppGraph = app.graph if isinstance(app, Application) else app
        self.workers = workers
        self.cloning = cloning
        self.chunk_size = chunk_size
        self.clone_min_chunks = clone_min_chunks
        self.max_clones_per_task = max_clones_per_task or workers
        #: Any LocalBagStore-compatible store works; pass a
        #: :class:`repro.storage.filebag.FileBagStore` for disk-backed bags
        #: (the paper's actual representation, Section 4.3).
        self.store = store if store is not None else LocalBagStore()
        #: Deterministic cloning schedule for tests/benchmarks: task id ->
        #: number of clones created the moment the original starts running,
        #: regardless of the remaining-input heuristic.
        require_tasks(self.graph, "forced_clones", forced_clones or {})
        self.forced_clones = dict(forced_clones or {})
        self._forced_pending = set(self.forced_clones)
        self.exec = ExecutionGraph(self.graph)
        self._ran = False
        self.records_processed = 0
        self.chunks_processed = 0
        self._lock = threading.Lock()
        self._ready: "queue.Queue[ExecutionNode]" = queue.Queue()
        self._partials: Dict[str, List[Any]] = {}
        self._errors: List[BaseException] = []
        self._done = threading.Event()
        self._active = 0

    # -- input materialization ------------------------------------------------

    def _fill_bag(self, bag_id: str, records: Iterable[Any]) -> None:
        fill_bag(self.store, self.graph, bag_id, records, chunk_size=self.chunk_size)

    def writer(self) -> DirectWriter:
        """The chunk writer a ``TaskContext`` emits through."""
        return DirectWriter(self.store)

    # -- scheduling ---------------------------------------------------------------------

    def run(
        self,
        inputs: Dict[str, Iterable[Any]],
        timeout: float = 60.0,
    ) -> LocalResult:
        """Execute the application over ``inputs`` (source bag -> records)."""
        if self._ran:
            raise SchedulingError(
                "a LocalRuntime runs once; build a new one for another run"
            )
        unknown = set(inputs) - set(self.graph.source_bags())
        if unknown:
            raise SchedulingError(f"inputs given for non-source bags: {unknown}")
        self._ran = True
        for bag_id in self.graph.source_bags():
            self._fill_bag(bag_id, inputs.get(bag_id, ()))
        for bag_id in self.graph.bags:
            self.store.ensure(bag_id)
        for node in self.exec.initially_ready():
            self._ready.put(node)
        threads = [
            threading.Thread(target=self._worker_loop, name=f"worker-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        finished = self._done.wait(timeout)
        for thread in threads:
            thread.join(timeout=5.0)
        if self._errors:
            raise self._errors[0]
        if not finished:
            raise SchedulingError(f"local run did not finish within {timeout}s")
        return LocalResult(self)

    def _worker_loop(self) -> None:
        while not self._done.is_set():
            try:
                node = self._ready.get_nowait()
            except queue.Empty:
                node = self._maybe_clone()
                if node is None:
                    try:
                        node = self._ready.get(timeout=0.02)
                    except queue.Empty:
                        continue
            with self._lock:
                if node.state != NodeState.READY:
                    continue  # family was reset or node already taken
                node.state = NodeState.RUNNING
                self._active += 1
                if (
                    node.kind == NodeKind.TASK
                    and node.task_id in self._forced_pending
                ):
                    self._forced_pending.discard(node.task_id)
                    for _ in range(self.forced_clones[node.task_id]):
                        self._ready.put(self.exec.add_clone(node.task_id))
            try:
                self._execute(node)
            except BaseException as exc:  # surface task errors to run()
                with self._lock:
                    self._errors.append(exc)
                self._done.set()
                return
            finally:
                with self._lock:
                    self._active -= 1

    def _maybe_clone(self) -> Optional[ExecutionNode]:
        """An idle worker clones the running task with the most input left."""
        if not self.cloning:
            return None
        with self._lock:
            best: Optional[str] = None
            best_remaining = self.clone_min_chunks - 1
            for task_id, family in self.exec.families.items():
                if family.finished:
                    continue
                running = [
                    w for w in family.workers if w.state == NodeState.RUNNING
                ]
                if not running:
                    continue
                if self.exec.clone_count(task_id) >= self.max_clones_per_task:
                    continue
                remaining = self.store.get(
                    family.original.stream_input
                ).remaining()
                if remaining > best_remaining:
                    best = task_id
                    best_remaining = remaining
            if best is None:
                return None
            # The clone is created READY and handed straight to this idle
            # worker, which marks it RUNNING in its own loop.
            return self.exec.add_clone(best)

    # -- execution --------------------------------------------------------------------------

    def _execute(self, node: ExecutionNode) -> None:
        if node.kind == NodeKind.MERGE:
            self._execute_merge(node)
        else:
            self._execute_task(node)
        self._complete(node)

    def _execute_task(self, node: ExecutionNode) -> None:
        spec = node.spec
        if spec.fn is None:
            raise SchedulingError(
                f"task {spec.task_id!r} has no fn; local execution needs one"
            )
        ctx = TaskContext(self, node)
        result = spec.fn(ctx)
        ctx.flush()
        with self._lock:
            self.records_processed += ctx.records_in
            self.chunks_processed += ctx.chunks_in
        if spec.needs_merge:
            if result is None:
                raise SchedulingError(
                    f"aggregation task {spec.task_id!r} returned None; tasks "
                    "with a merge must return their partial output"
                )
            with self._lock:
                self._partials.setdefault(node.task_id, []).append(result)
        elif result is not None:
            raise SchedulingError(
                f"task {spec.task_id!r} returned a value but declares no merge"
            )

    def _execute_merge(self, node: ExecutionNode) -> None:
        merge = resolve_merge(node.spec)
        with self._lock:
            partials = self._partials.pop(node.task_id, [])
        merged = fold_partials(merge, node.task_id, partials)
        self._emit_value(node.outputs[0], merged)

    def _emit_value(self, bag_id: str, value: Any) -> None:
        emit_value(self.store, self.graph, bag_id, value)

    def _complete(self, node: ExecutionNode) -> None:
        with self._lock:
            family = self.exec.families[node.task_id]
            # A single-worker aggregation never grows a merge node: emit the
            # lone partial as the final output before finishing the family.
            if (
                node.kind != NodeKind.MERGE
                and node.spec.needs_merge
                and family.merge is None
            ):
                partials = self._partials.pop(node.task_id, [])
                if len(partials) != 1:
                    raise SchedulingError(
                        f"expected one partial for un-cloned {node.task_id!r}, "
                        f"found {len(partials)}"
                    )
                self._emit_value(node.spec.outputs[0], partials[0])
            newly_ready = self.exec.node_done(node.node_id)
            if family.finished:
                for bag_id in family.original.spec.outputs:
                    # Multi-producer bags (e.g. PageRank message bags) seal
                    # only once *every* producing family has finished.
                    if self.exec.bag_complete(bag_id):
                        self.store.get(bag_id).seal()
            for ready in newly_ready:
                self._ready.put(ready)
            if self.exec.all_done():
                self._done.set()
