"""Packing records into fixed-size chunks.

A chunk is the indivisible unit of data in a bag (Section 2.2) and the unit
of serde work: ``uvarint(record_count)`` followed by the records packed as
one column by their codec (layouts in :mod:`repro.serde.codecs`; no version
byte, chunks never outlive a run). Every chunk decodes alone — no record
spans two — and is never longer than the builder's ``chunk_size``, with one
exception: under the pickle codec (a bag declared without a codec, holding
records nobody sized) a record that alone exceeds it is a chunk by itself.

A column's size is known only once it is packed, so :class:`ChunkBuilder`
**packs and verifies**: it buffers records up to a learned count, packs them
and checks the byte bound on the result. What fits and is at least 7/8 full
is emitted; what fits with room to spare stays buffered and the count rises;
what overshoots is cut at the longest prefix that fits and the rest stays
buffered. Each time the count is re-aimed from the bytes per record observed.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterable, Iterator, List, Optional

from repro.errors import ChunkOverflowError, SerdeError
from repro.serde.codecs import Codec
from repro.serde.varint import decode_uvarint, encode_uvarint
from repro.units import DEFAULT_CHUNK_SIZE


class ChunkBuilder:
    """Buffers records and emits chunk payloads of bounded size.

    ``add`` is an append and a compare; packing happens about once per chunk,
    and chunk boundaries depend on the record sequence alone. A record that
    does not fit in a chunk by itself raises
    :class:`~repro.errors.ChunkOverflowError` — not necessarily from the
    ``add`` that buffered it, but once it heads the buffer, at a later ``add``
    or ``flush`` — unless the codec is ``oversized_alone`` (the pickle codec),
    where it travels as a one-record chunk longer than ``chunk_size``, the
    way ``read_page`` already pages an oversized chunk. After a cut the
    buffer can hold more than one chunk: call ``flush`` until it returns None.
    """

    def __init__(self, codec: Codec, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size <= 10:  # a count header and one 8-byte integer
            raise ValueError(f"chunk_size too small: {chunk_size}")
        self.codec = codec
        self.chunk_size = chunk_size
        self._records: List[Any] = []
        #: Records to buffer before packing; 1 until a pack has been observed.
        self._target = 1

    @property
    def pending_records(self) -> int:
        return len(self._records)

    def add(self, record: Any) -> Optional[bytes]:
        """Buffer a record; returns a completed chunk if this record filled one."""
        self._records.append(record)
        if len(self._records) < self._target:
            return None
        return self._cut(final=False)

    def extend(self, records: Iterable[Any]) -> Iterator[bytes]:
        """``add`` every record, yielding the chunks they complete.

        Exactly an ``add`` loop, however a record sequence is cut into
        calls: the buffer is packed only when a record arrives.
        """
        source, pending = iter(records), self._records
        while True:
            held = len(pending)
            pending.extend(islice(source, max(1, self._target - held)))
            if len(pending) == held or len(pending) < self._target:
                return  # source exhausted
            chunk = self._cut(final=False)
            if chunk is not None:
                yield chunk

    def flush(self) -> Optional[bytes]:
        """Emit the next pending chunk, or None once nothing is pending."""
        if not self._records:
            return None
        return self._cut(final=True)

    def _cut(self, final: bool) -> Optional[bytes]:
        """Pack the buffer; emit a chunk of its head, or keep filling."""
        records, limit = self._records, self.chunk_size
        count, chunk = len(records), encode_chunk(records, self.codec)
        roomy = not final and len(chunk) * 8 < limit * 7
        if len(chunk) > limit:
            count, chunk = self._longest_prefix(len(chunk))
        # Records that fill a chunk at the bytes per record just observed
        # (headers included, so the aim errs low).
        self._target = max(1, count * limit // len(chunk))
        if roomy and self._target > count:
            return None
        del records[:count]
        return chunk

    def _longest_prefix(self, size: int):
        """The most leading records that pack within the limit -> (count, chunk).

        A prefix never packs larger than a longer one, so this bisects, from
        the proportional guess (the buffer packed to ``size``) that a near
        miss confirms in a step or two.
        """
        records, limit = self._records, self.chunk_size
        fits, over, best = 0, len(records), None
        guess = over * limit // size
        while over - fits > 1:
            guess = min(max(guess, fits + 1), over - 1)
            chunk = encode_chunk(records[:guess], self.codec)
            if len(chunk) <= limit:
                fits, best = guess, chunk
            else:
                over, size = guess, len(chunk)
            guess = (fits + over) // 2
        if best is None:
            if self.codec.oversized_alone:
                return 1, encode_chunk(records[:1], self.codec)
            raise ChunkOverflowError(
                f"record of {size} bytes exceeds chunk size "
                f"{limit} (records may not span chunks)"
            )
        return fits, best


def chunk_records(
    records: Iterable[Any], codec: Codec, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[bytes]:
    """Serialize ``records`` into a stream of chunk payloads."""
    builder = ChunkBuilder(codec, chunk_size)
    yield from builder.extend(records)
    while (chunk := builder.flush()) is not None:
        yield chunk


def encode_chunk(records: List[Any], codec: Codec) -> bytes:
    """``records`` as one chunk payload, whatever its size."""
    return encode_uvarint(len(records)) + codec.pack(records)


def decode_chunk(chunk: bytes, codec: Codec) -> List[Any]:
    """Decode one chunk payload into the list of its records."""
    view = memoryview(chunk)
    count, offset = decode_uvarint(view, 0)
    records, offset = codec.unpack(view, offset, count)
    if offset != len(view):
        raise SerdeError(
            f"chunk has {len(view) - offset} trailing bytes after {count} records"
        )
    return records


def iter_chunk(chunk: bytes, codec: Codec) -> Iterator[Any]:
    """Decode all records from one chunk payload.

    Eagerly: a corrupt chunk raises :class:`~repro.errors.SerdeError` from
    this call, before the caller sees its first record.
    """
    return iter(decode_chunk(chunk, codec))


def iter_chunks(chunks: Iterable[bytes], codec: Codec) -> Iterator[Any]:
    """Decode records from a stream of chunk payloads."""
    for chunk in chunks:
        yield from decode_chunk(chunk, codec)
