"""Engine-agnostic execution helpers shared by ``repro.local`` and ``repro.dist``.

Every function takes the bag *store* as a duck-typed argument: a
:class:`~repro.storage.local.LocalBagStore` in the local engine, a
shard-routing ``ShardedBagStore`` proxy in the distributed one. The
store only needs ``ensure``/``get`` returning bags with
``insert``/``seal``/``read_page``; bulk producers write through a *chunk
writer* (``insert(bag_id, chunk)`` / ``drain()``) — the
:class:`DirectWriter` here, or the dist store's pipelined one — and
acknowledge nothing upward before ``drain()`` returns. Notably, nothing
here may assume two bags live in the same process: each ``ensure``/``get`` resolves
placement independently, which is what lets the same helpers drive one
storage server or ``m`` shards.

Every chunk is ``bytes`` built with :mod:`repro.serde.chunks` —
``uvarint(record_count)`` plus the records packed as one column by the
bag's codec (:func:`bag_codec`), cut at ``chunk_size``. A bag declared
without a codec gets the pickle codec — the escape hatch for values
nobody typed or sized (counters, bitsets, merged aggregates), whose
records must therefore pickle on either engine. A store never looks
inside a chunk: only the helpers here and the task context decode one.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List

from repro.errors import SchedulingError
from repro.merges.registry import get_merge
from repro.model.graph import TaskSpec
from repro.serde.chunks import chunk_records, encode_chunk, iter_chunks
from repro.serde.codecs import Codec, codec_for


def bag_codec(graph, bag_id: str) -> Codec:
    """The codec of ``bag_id``'s chunks. A bag outside the graph — a
    clone's partial bag — is codec-less, like one declared without."""
    bag = graph.bags.get(bag_id)
    return codec_for(bag.codec_spec if bag is not None else None)


def source_chunks(
    graph, bag_id: str, records: Iterable[Any], *, chunk_size: int
) -> List[bytes]:
    """Cut ``records`` into ``bag_id``'s chunks: the one source encoder.

    The list is what a runtime keeps of its input — inserted, journaled
    and re-inserted on a refill as is, so a recovered bag is the original
    byte for byte and nothing is encoded twice.
    """
    return list(chunk_records(records, bag_codec(graph, bag_id), chunk_size))


class DirectWriter:
    """The chunk-writer surface (``insert(bag_id, chunk)`` / ``drain()``)
    over a store whose ``insert`` is acked on return — nothing is ever in
    flight. ``ShardedBagStore.writer`` is the pipelined one."""

    def __init__(self, store):
        self._store = store

    def insert(self, bag_id: str, chunk: Any) -> None:
        self._store.get(bag_id).insert(chunk)

    def drain(self) -> None:
        pass


def insert_chunks(store, bag_id: str, chunks: Iterable[Any], writer=None) -> None:
    """Insert ``chunks`` into ``bag_id``, then seal it.

    Drain, *then* seal: a bag is sealed only after its last insert is
    acked — a seal overtaking a pipelined insert on another replica's
    lane would refuse it.
    """
    bag = store.ensure(bag_id)
    if writer is None:
        writer = DirectWriter(store)
    for chunk in chunks:
        writer.insert(bag_id, chunk)
    writer.drain()
    bag.seal()


def fill_bag(
    store, graph, bag_id: str, records: Iterable[Any], *, chunk_size: int
) -> None:
    """Materialize ``records`` into ``bag_id`` as chunks, then seal it."""
    chunks = source_chunks(graph, bag_id, records, chunk_size=chunk_size)
    insert_chunks(store, bag_id, chunks)


def refill_bag(store, bag_id: str, chunks: Iterable[Any], writer=None) -> None:
    """Discard ``bag_id`` and re-insert its kept source ``chunks``.

    The storage-loss recovery path: when the shard homing a source bag
    dies, its data is gone and the master re-inserts the chunk list it
    kept — the same chunks, not a second encoding of the records. The
    discard also clears the sealed flag — ``insert_chunks`` alone would
    raise ``BagSealedError`` against the sealed original (or a stale
    survivor), and must start from a zeroed read pointer so replaying
    consumers see every chunk again.
    """
    store.ensure(bag_id).discard()
    insert_chunks(store, bag_id, chunks, writer)


def resolve_merge(spec: TaskSpec) -> Callable:
    """The merge procedure of an aggregation task (name or callable)."""
    merge = spec.merge
    if callable(merge):
        return merge
    return get_merge(merge)


def fold_partials(merge: Callable, task_id: str, partials: List[Any]) -> Any:
    """Left-fold the family's partial outputs with the merge procedure."""
    if not partials:
        raise SchedulingError(f"merge of {task_id!r} found no partials")
    merged = partials[0]
    for partial in partials[1:]:
        merged = merge(merged, partial)
    return merged


def emit_value(store, graph, bag_id: str, value: Any) -> None:
    """Insert a single record (an aggregate, partial or merged) into
    ``bag_id`` as a one-record chunk: nobody sized an aggregate, so it
    travels whatever ``chunk_size`` is."""
    store.get(bag_id).insert(encode_chunk([value], bag_codec(graph, bag_id)))


def decode_bag_chunks(graph, bag_id: str, chunks: Iterable[bytes]) -> List[Any]:
    """Decode a bag's chunk sequence back into its records."""
    return list(iter_chunks(chunks, bag_codec(graph, bag_id)))


#: Default page budget for streamed bag reads — comfortably under the
#: storage channel's 64 MiB frame cap with headroom for pickling.
READ_PAGE_BYTES = 4 * 1024 * 1024


def iter_bag_chunks(store, bag_id: str, *, page_bytes: int = READ_PAGE_BYTES):
    """Stream a bag's chunks non-destructively, one bounded page resident.

    The bulk read of refill, snapshot and side-input paths: each ``read_page(cursor, page_bytes)`` round trip holds at
    most one page of payloads in this process (and, for remote bags, at
    most one page per RPC frame), so reading a spilled bag larger than
    the shard's ``resident_bytes`` never re-materializes it anywhere.
    """
    cursor = 0
    while True:
        chunks, cursor = store.get(bag_id).read_page(cursor, page_bytes)
        if not chunks:
            return
        yield from chunks


def bag_records(store, graph, bag_id: str) -> List[Any]:
    """Non-destructive decoded read of a whole bag (streamed page-wise)."""
    return decode_bag_chunks(graph, bag_id, iter_bag_chunks(store, bag_id))
