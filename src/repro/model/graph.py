"""Static application graphs: tasks, bags, and their wiring.

The static graph is what the programmer writes (Figure 1); the runtime
derives an :class:`~repro.model.execution_graph.ExecutionGraph` from it
(Figure 2) as cloning decisions are made. Validation enforces the paper's
execution-model assumptions: the graph is acyclic, every task input exists,
and each bag has at most one consuming task (clones of that task share the
bag; concurrent *different* consumers would race for chunks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import GraphError
from repro.model.costs import TaskCost

MergeRef = Union[str, Callable, None]


@dataclass(frozen=True)
class BagSpec:
    """A named data bag; ``codec_spec`` types its records for real execution."""

    bag_id: str
    codec_spec: Optional[object] = None

    def __post_init__(self):
        if not self.bag_id:
            raise GraphError("bag_id must be non-empty")


@dataclass(frozen=True)
class TaskSpec:
    """A task blueprint: identifier, wiring, code, merge, and cost model.

    ``inputs[0]`` is the *streamed* input the task drains chunk-by-chunk;
    any further inputs are *side state* loaded in full when a worker (or a
    clone) starts. ``fn`` is the real record-level function used by the
    local engine; ``cost`` drives the simulator. ``merge`` is a merge name
    from :mod:`repro.merges.registry`, a callable, or None for the default
    concatenation merge.

    A task with no inputs is an *input task*, READY from the start; only
    the dist engine derives them, to fill its source bags.
    """

    task_id: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    fn: Optional[Callable] = None
    merge: MergeRef = None
    cost: TaskCost = field(default_factory=TaskCost)
    phase: Optional[str] = None

    def __post_init__(self):
        if not self.task_id:
            raise GraphError("task_id must be non-empty")

    @property
    def stream_input(self) -> Optional[str]:
        """The streamed input bag; None for an input task."""
        return self.inputs[0] if self.inputs else None

    @property
    def side_inputs(self) -> Tuple[str, ...]:
        return self.inputs[1:]

    @property
    def needs_merge(self) -> bool:
        """Whether cloning this task requires an explicit merge node."""
        return self.merge is not None


class AppGraph:
    """The static task/bag DAG, with validation and dependency queries."""

    def __init__(self, name: str):
        self.name = name
        self.bags: Dict[str, BagSpec] = {}
        self.tasks: Dict[str, TaskSpec] = {}

    # -- construction -------------------------------------------------------

    def add_bag(self, bag: BagSpec) -> BagSpec:
        if bag.bag_id in self.bags:
            raise GraphError(f"duplicate bag id {bag.bag_id!r}")
        self.bags[bag.bag_id] = bag
        return bag

    def add_task(self, task: TaskSpec) -> TaskSpec:
        if task.task_id in self.tasks:
            raise GraphError(f"duplicate task id {task.task_id!r}")
        for bag_id in (*task.inputs, *task.outputs):
            if bag_id not in self.bags:
                raise GraphError(
                    f"task {task.task_id!r} references unknown bag {bag_id!r}"
                )
        self.tasks[task.task_id] = task
        return task

    # -- queries -------------------------------------------------------------

    def producers_of(self, bag_id: str) -> List[TaskSpec]:
        return [t for t in self.tasks.values() if bag_id in t.outputs]

    def consumers_of(self, bag_id: str) -> List[TaskSpec]:
        return [t for t in self.tasks.values() if bag_id in t.inputs]

    def source_bags(self) -> List[str]:
        """Bags with no producing task: the job's external inputs."""
        produced = {b for t in self.tasks.values() for b in t.outputs}
        return [b for b in self.bags if b not in produced]

    def sink_bags(self) -> List[str]:
        """Bags no task consumes: the job's outputs."""
        consumed = {b for t in self.tasks.values() for b in t.inputs}
        return [b for b in self.bags if b not in consumed]

    def upstream_tasks(self, task_id: str) -> List[str]:
        """Tasks producing any input bag of ``task_id``."""
        task = self.tasks[task_id]
        ups = []
        for bag_id in task.inputs:
            ups.extend(p.task_id for p in self.producers_of(bag_id))
        return sorted(set(ups))

    def topological_tasks(self) -> List[str]:
        """Task ids in dependency order; raises GraphError on a cycle."""
        indegree = {tid: len(self.upstream_tasks(tid)) for tid in self.tasks}
        ready = sorted(tid for tid, deg in indegree.items() if deg == 0)
        order: List[str] = []
        downstream: Dict[str, List[str]] = {tid: [] for tid in self.tasks}
        for tid in self.tasks:
            for up in self.upstream_tasks(tid):
                downstream[up].append(tid)
        while ready:
            tid = ready.pop()
            order.append(tid)
            for down in downstream[tid]:
                indegree[down] -= 1
                if indegree[down] == 0:
                    ready.append(down)
        if len(order) != len(self.tasks):
            raise GraphError(f"application graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Check the structural invariants the runtime relies on."""
        for bag_id in self.bags:
            consumers = self.consumers_of(bag_id)
            if len(consumers) > 1:
                raise GraphError(
                    f"bag {bag_id!r} is consumed by multiple tasks "
                    f"({[t.task_id for t in consumers]}); clones share a bag, "
                    "distinct tasks must not"
                )
        if not self.tasks:
            raise GraphError(f"application {self.name!r} has no tasks")
        self.topological_tasks()  # raises on cycles
