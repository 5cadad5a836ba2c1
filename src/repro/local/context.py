"""Task-side API for the local engine (the paper's worker library).

The chunk is the unit of data in a bag, of serde and of write pipelining;
this module makes it the unit of task work too. A :class:`TaskContext`
gives a task function two forms of the same surface:

* ``batches()`` — late-binding iteration over the stream input bag, a
  chunk at a time: each step removes the next unprocessed chunk and
  yields its decoded records as one list, so concurrent clones share the
  bag safely and each record is seen exactly once across the family.
  ``emit_many(bag_id, records)`` is its output twin: the records go to
  the output bag's chunk builder in one call. A task written on these
  two costs the library a few Python frames per *chunk*.
* ``records()`` / ``emit(bag_id, record)`` — the paper's Figure 3 API,
  one record at a time. ``records()`` is nothing but the flatten over
  ``batches()`` (one input loop per engine, and nothing an engine does
  per chunk — progress, cancellation — can differ between the forms);
  ``emit`` feeds the same builders. Both forms produce the same
  chunks, byte for byte: chunk boundaries depend on each bag's record
  sequence alone. They cost a few frames per *record*, which is noise
  for a task that computes (the calibration burn) and most of the job
  for one that only routes (the click log's phase 1).
* ``side_records(i)`` — a non-destructive full read of side input ``i``
  (the state a clone re-loads).

**One cursor.** The context owns a single input cursor. ``batches()`` and
``records()`` may be called any number of times and interleaved: a later
call resumes where the earlier one stopped, the unread tail of a
part-read batch first, so every fetched record is delivered exactly once.

**Batch ownership.** A batch is the task's to keep or mutate (sort it in
place, hand it to ``emit_many``), and so are its records, in every bag —
typed or codec-less, on either engine: a chunk is bytes, each read decodes
it afresh, so no bag, no rewind and no later ``side_records`` read sees a
change, and neither do the lists the caller passed as input. ``emit_many``
copies out of the sequence it is given and keeps no reference to it.

Completed chunks go to the runtime's chunk writer (``runtime.writer()``:
direct in the local engine, ``b`` fan-outs deep in the dist engine), and
``flush()`` drains it — when it returns, every chunk the task emitted is
acked. ``bag_id=None`` targets the task's first output.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.engine.common import bag_codec, iter_bag_chunks
from repro.errors import BagError
from repro.model.execution_graph import ExecutionNode
from repro.serde.chunks import ChunkBuilder, decode_chunk


class TaskContext:
    def __init__(self, runtime, node: ExecutionNode):
        self._runtime = runtime
        self._node = node
        self._graph = runtime.graph
        self._builders: Dict[str, ChunkBuilder] = {}
        self._writer = runtime.writer()
        self.records_in = 0
        self.chunks_in = 0
        #: The one input cursor: the engine's chunk loop, started once, and
        #: the unread tail of the batch ``records()`` is part-way through.
        self._chunks = self._input()
        self._unread: Iterator[Any] = iter(())

    # -- input ----------------------------------------------------------------

    def _decode(self, bag_id: str, chunk: bytes) -> List[Any]:
        return decode_chunk(chunk, bag_codec(self._graph, bag_id))

    def _input(self) -> Iterator[List[Any]]:
        """The engine's input loop: remove a chunk, yield its records."""
        bag = self._runtime.store.get(self._node.stream_input)
        while True:
            chunk = bag.remove()
            if chunk is None:
                return  # input bags are sealed before the task starts
            self.chunks_in += 1
            records = self._decode(self._node.stream_input, chunk)
            self.records_in += len(records)
            yield records

    def batches(self) -> Iterator[List[Any]]:
        """Late-binding iteration over the stream input (exactly-once),
        one removed chunk's records at a time; each list is the caller's."""
        while True:
            batch = list(self._unread) or next(self._chunks, None)
            if batch is None:
                return
            yield batch

    def records(self) -> Iterator[Any]:
        """``batches()``, flattened: the per-record form of the same cursor."""
        for batch in self.batches():
            # Read through the context's iterator, not a private one: if
            # this generator is dropped mid-batch the tail stays deliverable.
            self._unread = iter(batch)
            yield from self._unread

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

    def _open_builder(self, target: Optional[str]):
        """Validate ``target`` and create its builder: once per output bag."""
        spec = self._node.spec
        if spec.needs_merge and target in (spec.outputs[0], self._node.outputs[0]):
            # Records beside the value: the result would depend on cloning.
            raise BagError(
                f"task {self._node.task_id!r} cannot emit to its merge output "
                f"{spec.outputs[0]!r}: that bag holds the returned value only"
            )
        if target not in spec.outputs and target not in self._node.outputs:
            raise BagError(
                f"task {self._node.task_id!r} cannot emit to {target!r}; "
                f"declared outputs are {spec.outputs}"
            )
        builder = ChunkBuilder(
            bag_codec(self._graph, target), self._runtime.chunk_size
        )
        self._builders[target] = builder
        return builder

    def _default_target(self) -> Optional[str]:
        """The task's first output — or None, which ``_open_builder``
        refuses like any other bad target."""
        outputs = self._node.outputs
        return outputs[0] if outputs else None

    def emit(self, bag_id: Optional[str], record: Any) -> None:
        """Append a record to an output bag (buffered into chunks)."""
        target = bag_id if bag_id is not None else self._default_target()
        builder = self._builders.get(target)
        if builder is None:
            builder = self._open_builder(target)
        chunk = builder.add(record)
        if chunk is not None:
            self._insert(target, chunk)

    def emit_many(self, bag_id: Optional[str], records: Iterable[Any]) -> None:
        """``emit`` every record of ``records``, in order, in one call."""
        target = bag_id if bag_id is not None else self._default_target()
        builder = self._builders.get(target)
        if builder is None:
            builder = self._open_builder(target)
        for chunk in builder.extend(records):
            self._insert(target, chunk)

    def _insert(self, bag_id: str, chunk: bytes) -> None:
        self._writer.insert(bag_id, chunk)

    def flush(self) -> None:
        """Push every buffered chunk and wait for the acks (called by the
        runtime at task end, before anything is reported upward)."""
        for bag_id, builder in self._builders.items():
            # A builder that cut a prefix can hold more than one chunk.
            while (chunk := builder.flush()) is not None:
                self._insert(bag_id, chunk)
        self._writer.drain()
