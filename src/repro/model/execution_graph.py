"""The runtime execution graph: tasks, clones, and induced merge nodes.

The application master mutates this structure as it makes cloning decisions
(Section 3.2): cloning a task adds a CLONE node reading the *same* input bag
as the original; if the task declares a merge procedure, the first clone
also creates a MERGE node, and every family member is redirected to write a
private partial-output bag that the merge node reconciles into the real
output bag once all members finish.

Semantics note: a task that declares a merge is an *aggregation* — its
output is emitted when the worker finishes (ClickLog Phase 2 inserts one
bitset at the end). That is what makes redirecting output to partial bags
at first-clone time safe: no output has been written yet. Tasks without a
merge (maps, filters) stream output directly into the shared output bag,
where bag insertion order is unspecified, i.e. concatenation.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import GraphError, SchedulingError
from repro.model.graph import AppGraph, TaskSpec


class NodeKind(Enum):
    TASK = "task"
    CLONE = "clone"
    MERGE = "merge"


class NodeState(Enum):
    PENDING = "pending"  # dependencies not yet satisfied
    READY = "ready"  # schedulable (in the ready work bag)
    RUNNING = "running"
    DONE = "done"


class ExecutionNode:
    """One schedulable unit: an original task, a clone, or a merge."""

    def __init__(
        self,
        node_id: str,
        kind: NodeKind,
        spec: TaskSpec,
        stream_input: str,
        side_inputs: Tuple[str, ...],
        outputs: Tuple[str, ...],
        merge_inputs: Tuple[str, ...] = (),
    ):
        self.node_id = node_id
        self.kind = kind
        self.spec = spec
        self.stream_input = stream_input
        self.side_inputs = side_inputs
        self.outputs = outputs
        #: For MERGE nodes: the partial-output bags to reconcile.
        self.merge_inputs = merge_inputs
        #: Family member index: a clone's index (which also names its
        #: partial bag); 0 for the original and the merge.
        self.member = 0
        self.state = NodeState.PENDING

    @property
    def task_id(self) -> str:
        return self.spec.task_id

    def __repr__(self) -> str:
        return f"<{self.kind.value} {self.node_id} {self.state.value}>"


def partial_bag_id(task_id: str, member: int) -> str:
    """Bag id holding the partial output of family member ``member``."""
    return f"{task_id}.partial.{member}"


def merge_node_id(task_id: str) -> str:
    return f"{task_id}.merge"


def clone_node_id(task_id: str, index: int) -> str:
    return f"{task_id}.clone{index}"


class _Family:
    """All execution nodes belonging to one logical task."""

    def __init__(self, original: ExecutionNode):
        self.original = original
        self.clones: List[ExecutionNode] = []
        self.merge: Optional[ExecutionNode] = None
        self.finished = False
        self.clone_counter = 0

    @property
    def workers(self) -> List[ExecutionNode]:
        return [self.original, *self.clones]

    def workers_done(self) -> bool:
        return all(n.state == NodeState.DONE for n in self.workers)


class ExecutionGraph:
    """Tracks node states, bag completion, and clone/merge bookkeeping."""

    def __init__(self, graph: AppGraph):
        graph.validate()
        self.graph = graph
        self.families: Dict[str, _Family] = {}
        self.nodes: Dict[str, ExecutionNode] = {}
        self._complete_bags: Set[str] = set(graph.source_bags())
        for task in graph.tasks.values():
            if task.needs_merge and len(task.outputs) != 1:
                raise GraphError(
                    f"task {task.task_id!r} declares a merge but has "
                    f"{len(task.outputs)} output bags; merges need exactly one"
                )
            node = ExecutionNode(
                node_id=task.task_id,
                kind=NodeKind.TASK,
                spec=task,
                stream_input=task.stream_input,
                side_inputs=task.side_inputs,
                outputs=task.outputs,
            )
            self.nodes[node.node_id] = node
            self.families[task.task_id] = _Family(node)

    # -- bag state -----------------------------------------------------------

    def bag_complete(self, bag_id: str) -> bool:
        """A bag is complete once every task that writes it has finished."""
        return bag_id in self._complete_bags

    def _refresh_bag(self, bag_id: str) -> None:
        producers = self.graph.producers_of(bag_id)
        if producers and all(self.families[p.task_id].finished for p in producers):
            self._complete_bags.add(bag_id)

    # -- readiness -----------------------------------------------------------

    def _task_ready(self, task_id: str) -> bool:
        spec = self.graph.tasks[task_id]
        return all(self.bag_complete(b) for b in spec.inputs)

    def initially_ready(self) -> List[ExecutionNode]:
        """Original task nodes whose inputs are all source bags."""
        ready = []
        for task_id, family in self.families.items():
            if self._task_ready(task_id):
                family.original.state = NodeState.READY
                ready.append(family.original)
        if not ready:
            raise SchedulingError(
                f"application {self.graph.name!r} has no runnable task"
            )
        return ready

    # -- cloning ---------------------------------------------------------------

    def clone_count(self, task_id: str) -> int:
        """k: the number of workers currently processing the task."""
        family = self.families[task_id]
        return 1 + len(family.clones)

    def add_clone(self, task_id: str) -> ExecutionNode:
        """Clone ``task_id``; creates the merge node on the first clone.

        Returns the new clone node in READY state. If a merge node was
        created, it is reachable via ``merge_node(task_id)`` and stays
        PENDING until every family worker is done.
        """
        family = self.families[task_id]
        if family.workers_done():
            raise SchedulingError(
                f"cannot clone {task_id!r}: all of its workers already finished"
            )
        if not any(
            w.state in (NodeState.READY, NodeState.RUNNING) for w in family.workers
        ):
            raise SchedulingError(f"cannot clone {task_id!r}: no active worker")
        return self._make_clone(task_id, family.clone_counter + 1)

    def restore_clone(self, task_id: str, index: int) -> ExecutionNode:
        """Recreate a clone known from work-bag state during master replay.

        Clones must be restored in increasing ``index`` order per family so
        partial-bag wiring matches what the workers were started with; gaps
        are allowed — indexes never seen again belonged to clones discarded
        by a family reset and need not exist.
        """
        family = self.families[task_id]
        if index <= family.clone_counter:
            raise SchedulingError(
                f"clone {index} of {task_id!r} restored out of order "
                f"(counter already at {family.clone_counter})"
            )
        return self._make_clone(task_id, index)

    def _make_clone(self, task_id: str, index: int) -> ExecutionNode:
        family = self.families[task_id]
        spec = family.original.spec
        if family.finished:
            raise SchedulingError(f"cannot clone finished task {task_id!r}")
        if spec.needs_merge and family.merge is None:
            # Redirect the original's output to a partial bag and create the
            # merge node targeting the real output bag.
            real_output = spec.outputs[0]
            family.original.outputs = (partial_bag_id(task_id, 0),)
            merge = ExecutionNode(
                node_id=merge_node_id(task_id),
                kind=NodeKind.MERGE,
                spec=spec,
                stream_input=partial_bag_id(task_id, 0),
                side_inputs=(),
                outputs=(real_output,),
                merge_inputs=(partial_bag_id(task_id, 0),),
            )
            family.merge = merge
            self.nodes[merge.node_id] = merge
        family.clone_counter = index
        if spec.needs_merge:
            outputs: Tuple[str, ...] = (partial_bag_id(task_id, index),)
            assert family.merge is not None
            family.merge.merge_inputs = (
                *family.merge.merge_inputs,
                partial_bag_id(task_id, index),
            )
        else:
            outputs = spec.outputs
        clone = ExecutionNode(
            node_id=clone_node_id(task_id, index),
            kind=NodeKind.CLONE,
            spec=spec,
            stream_input=spec.stream_input,
            side_inputs=spec.side_inputs,
            outputs=outputs,
        )
        clone.member = index
        clone.state = NodeState.READY
        self.nodes[clone.node_id] = clone
        family.clones.append(clone)
        return clone

    def merge_node(self, task_id: str) -> Optional[ExecutionNode]:
        return self.families[task_id].merge

    # -- progress ---------------------------------------------------------------

    def node_done(self, node_id: str) -> List[ExecutionNode]:
        """Mark a node done; return newly READY nodes (merge and/or downstream)."""
        node = self.nodes[node_id]
        if node.state == NodeState.DONE:
            raise SchedulingError(f"node {node_id!r} finished twice")
        node.state = NodeState.DONE
        family = self.families[node.task_id]
        newly_ready: List[ExecutionNode] = []
        if node.kind in (NodeKind.TASK, NodeKind.CLONE):
            if family.workers_done():
                if family.merge is not None and family.merge.state != NodeState.DONE:
                    family.merge.state = NodeState.READY
                    newly_ready.append(family.merge)
                else:
                    newly_ready.extend(self._finish_family(family))
        else:  # MERGE
            newly_ready.extend(self._finish_family(family))
        return newly_ready

    def _finish_family(self, family: _Family) -> List[ExecutionNode]:
        family.finished = True
        for bag_id in family.original.spec.outputs:
            self._refresh_bag(bag_id)
        newly_ready = []
        for task_id, other in self.families.items():
            if other.original.state == NodeState.PENDING and self._task_ready(task_id):
                other.original.state = NodeState.READY
                newly_ready.append(other.original)
        return newly_ready

    def all_done(self) -> bool:
        return all(family.finished for family in self.families.values())

    # -- failure recovery ---------------------------------------------------------

    def reset_family(self, task_id: str) -> List[str]:
        """Undo a family after a compute-node failure (Section 4.4).

        Removes clones and the merge node, puts the original task back in
        READY state, and restores its real output wiring. Returns the node
        ids that were discarded so the runtime can kill their workers; the
        caller must also rewind the input bags and discard partial outputs.
        """
        family = self.families[task_id]
        if family.finished:
            raise SchedulingError(f"cannot reset finished task {task_id!r}")
        discarded = [n.node_id for n in family.clones]
        for clone in family.clones:
            del self.nodes[clone.node_id]
        family.clones = []
        if family.merge is not None:
            discarded.append(family.merge.node_id)
            del self.nodes[family.merge.node_id]
            family.merge = None
            family.original.outputs = family.original.spec.outputs
        family.original.state = NodeState.READY
        return discarded

    def reset_families(self, task_ids: Iterable[str]) -> List[str]:
        """Reset a *batch* of families, finished ones included.

        ``reset_family`` undoes one unfinished family after a compute
        failure; losing a **storage shard** can additionally invalidate
        *finished* families, because their output data is gone and must be
        re-produced. Resetting a finished family marks it unfinished and
        removes its output bags from the complete set, so downstream
        readiness is recomputed honestly.

        The caller (the dist master's shard-loss closure) is responsible
        for passing a *closed* set: every started co-producer and consumer
        of a discarded bag must be in ``task_ids`` together. After the
        reset, each original is READY if its inputs are still complete and
        PENDING otherwise (it re-readies when its producers finish again),
        and any READY-but-unstarted original elsewhere whose input became
        incomplete is demoted back to PENDING. Returns the discarded
        clone/merge node ids.
        """
        tasks = sorted(set(task_ids))
        discarded: List[str] = []
        for task_id in tasks:
            family = self.families[task_id]
            family.finished = False
            for clone in family.clones:
                discarded.append(clone.node_id)
                del self.nodes[clone.node_id]
            family.clones = []
            if family.merge is not None:
                discarded.append(family.merge.node_id)
                del self.nodes[family.merge.node_id]
                family.merge = None
                family.original.outputs = family.original.spec.outputs
        # Output bags of reset producers are no longer complete. Safe
        # without a producer re-scan because the closure guarantees every
        # co-producer of these bags is itself being reset.
        for task_id in tasks:
            for bag_id in self.families[task_id].original.spec.outputs:
                self._complete_bags.discard(bag_id)
        for task_id in tasks:
            original = self.families[task_id].original
            original.state = (
                NodeState.READY if self._task_ready(task_id) else NodeState.PENDING
            )
        # A READY original outside the reset set cannot have started (it
        # would be RUNNING/DONE, and then the closure would include it), so
        # demoting it is always safe; it re-readies via _finish_family.
        reset = set(tasks)
        for task_id, family in self.families.items():
            if task_id in reset:
                continue
            original = family.original
            if original.state == NodeState.READY and not self._task_ready(task_id):
                original.state = NodeState.PENDING
        return discarded
