"""Fluent builder for Hurricane applications.

Mirrors how the paper's Figure 3 pseudo-code wires tasks to bags::

    app = Application("clicklog")
    src = app.bag("clicklog.txt", codec="str")
    regions = [app.bag(f"region.{r}") for r in REGIONS]
    app.task("phase1", inputs=[src], outputs=regions, fn=phase1)
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from repro.errors import GraphError
from repro.model.costs import TaskCost
from repro.model.graph import AppGraph, BagSpec, MergeRef, TaskSpec

BagRef = Union[str, BagSpec]


def _bag_id(ref: BagRef) -> str:
    return ref.bag_id if isinstance(ref, BagSpec) else ref


class Application:
    """An application under construction; ``graph`` is the validated DAG."""

    def __init__(self, name: str):
        self._graph = AppGraph(name)

    @property
    def name(self) -> str:
        return self._graph.name

    def bag(self, bag_id: str, codec: Optional[object] = None) -> BagSpec:
        """Declare a data bag (returns the spec so it can be passed around)."""
        return self._graph.add_bag(BagSpec(bag_id, codec))

    def task(
        self,
        task_id: str,
        inputs: Iterable[BagRef],
        outputs: Iterable[BagRef],
        fn: Optional[Callable] = None,
        merge: MergeRef = None,
        cost: Optional[TaskCost] = None,
        phase: Optional[str] = None,
    ) -> TaskSpec:
        """Declare a task reading ``inputs`` and writing ``outputs``.

        ``inputs[0]`` is streamed; the rest are side state (see TaskSpec).
        """
        inputs = tuple(_bag_id(b) for b in inputs)
        if not inputs:
            raise GraphError(f"task {task_id!r} needs at least one input bag")
        spec = TaskSpec(
            task_id=task_id,
            inputs=inputs,
            outputs=tuple(_bag_id(b) for b in outputs),
            fn=fn,
            merge=merge,
            cost=cost if cost is not None else TaskCost(),
            phase=phase,
        )
        return self._graph.add_task(spec)

    @property
    def graph(self) -> AppGraph:
        """Validate and return the underlying graph."""
        self._graph.validate()
        return self._graph
