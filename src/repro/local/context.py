"""Task-side API for the local engine (the paper's worker library).

A :class:`TaskContext` gives a task function:

* ``records()`` — late-binding iteration over the stream input bag: each
  call to the underlying ``remove`` grabs the next unprocessed chunk, so
  concurrent clones share the bag safely and each record is seen exactly
  once across the family;
* ``side_records(i)`` — a non-destructive full read of side input ``i``
  (the state a clone re-loads);
* ``emit(bag_id, record)`` — buffered, chunked insertion into an output
  bag (``bag_id=None`` targets the task's first output). Completed chunks
  go to the runtime's chunk writer (``runtime.writer()``: direct in the
  local engine, ``b`` fan-outs deep in the dist engine), and ``flush()``
  drains it — when it returns, every chunk the task emitted is acked.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional

from repro.engine.common import iter_bag_chunks
from repro.errors import BagError
from repro.model.execution_graph import ExecutionNode
from repro.serde.chunks import ChunkBuilder, decode_chunk
from repro.serde.codecs import codec_for


class _ObjectBatcher:
    """Chunk builder for codec-less bags: chunks are record lists."""

    def __init__(self, batch: int):
        self.batch = batch
        self._records = []

    def add(self, record: Any) -> Optional[list]:
        completed = None
        if len(self._records) >= self.batch:
            completed, self._records = self._records, []
        self._records.append(record)
        return completed

    def flush(self) -> Optional[list]:
        if not self._records:
            return None
        completed, self._records = self._records, []
        return completed


class TaskContext:
    def __init__(self, runtime, node: ExecutionNode):
        self._runtime = runtime
        self._node = node
        self._graph = runtime.graph
        self._builders: Dict[str, object] = {}
        self._writer = runtime.writer()
        self.records_in = 0
        self.chunks_in = 0

    # -- input ----------------------------------------------------------------

    def _codec_of(self, bag_id: str):
        spec = self._graph.bags[bag_id].codec_spec
        return codec_for(spec) if spec is not None else None

    def _decode(self, bag_id: str, chunk) -> List[Any]:
        codec = self._codec_of(bag_id)
        if codec is None:
            return chunk  # object chunk: a list of records
        return decode_chunk(chunk, codec)

    def records(self) -> Iterator[Any]:
        """Late-binding iteration over the stream input (exactly-once)."""
        bag = self._runtime.store.get(self._node.stream_input)
        # Optional overload signal: a runtime exposing note_chunk_seconds
        # (LocalRuntime in adaptive mode) gets each chunk's processing
        # wall time, which feeds its clone governor's drift detection.
        note = getattr(self._runtime, "note_chunk_seconds", None)
        while True:
            chunk = bag.remove()
            if chunk is None:
                return  # input bags are sealed before the task starts
            self.chunks_in += 1
            served = time.perf_counter() if note is not None else 0.0
            records = self._decode(self._node.stream_input, chunk)
            self.records_in += len(records)
            yield from records
            if note is not None:
                note(self._node.task_id, time.perf_counter() - served)

    def side_records(self, index: int) -> Iterator[Any]:
        """Non-destructive full read of side input ``index`` (task state)."""
        try:
            bag_id = self._node.side_inputs[index]
        except IndexError:
            raise BagError(
                f"task {self._node.node_id!r} has no side input {index}"
            ) from None
        for chunk in iter_bag_chunks(self._runtime.store, bag_id):
            yield from self._decode(bag_id, chunk)

    # -- output ------------------------------------------------------------------

    def _open_builder(self, target: str):
        """Validate ``target`` and create its builder: once per output bag."""
        if target not in self._node.spec.outputs and target not in self._node.outputs:
            raise BagError(
                f"task {self._node.task_id!r} cannot emit to {target!r}; "
                f"declared outputs are {self._node.spec.outputs}"
            )
        codec = self._codec_of(target)
        if codec is None:
            builder = _ObjectBatcher(self._runtime.records_per_chunk)
        else:
            builder = ChunkBuilder(codec, self._runtime.chunk_size)
        self._builders[target] = builder
        return builder

    def emit(self, bag_id: Optional[str], record: Any) -> None:
        """Append a record to an output bag (buffered into chunks)."""
        target = bag_id if bag_id is not None else self._node.outputs[0]
        builder = self._builders.get(target)
        if builder is None:
            builder = self._open_builder(target)
        chunk = builder.add(record)
        if chunk is not None:
            self._insert(target, chunk)

    def _insert(self, bag_id: str, chunk: Any) -> None:
        self._writer.insert(bag_id, chunk)

    def flush(self) -> None:
        """Push every buffered chunk and wait for the acks (called by the
        runtime at task end, before anything is reported upward)."""
        for bag_id, builder in self._builders.items():
            # A builder that cut a prefix can hold more than one chunk.
            while (chunk := builder.flush()) is not None:
                self._insert(bag_id, chunk)
        self._writer.drain()
