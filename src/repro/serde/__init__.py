"""Typed serialization of records into fixed-size chunks.

Hurricane workers serialize application records into chunks before inserting
them into bags, and deserialize after removing them (Section 2.2). Two
invariants from the paper are enforced here:

* **records never cross chunk boundaries** — every chunk is independently
  decodable, which is what lets any clone process any chunk in isolation;
* **typed iterators compose** — primitive codecs (ints, floats, strings,
  bytes) combine into tuples and lists to represent nested record types.

The chunk is also the unit of serde *work*: ``uvarint(record_count)`` plus
the records packed as one column (layouts in :mod:`repro.serde.codecs`) by
C-level standard-library calls — no Python bytecode per record between
``ChunkBuilder.add``, an append and a compare, and the task's own loop — with
the size bound verified on the packed chunk (:mod:`repro.serde.chunks`).
"""

from repro.serde.chunks import (
    ChunkBuilder,
    chunk_records,
    decode_chunk,
    encode_chunk,
    iter_chunk,
    iter_chunks,
)
from repro.serde.codecs import (
    BoolCodec,
    BytesCodec,
    Codec,
    Float64Codec,
    Int64Codec,
    ListCodec,
    PickleCodec,
    TupleCodec,
    UInt64Codec,
    Utf8Codec,
    codec_for,
)
from repro.serde.varint import decode_uvarint, encode_uvarint

__all__ = [
    "BoolCodec",
    "BytesCodec",
    "ChunkBuilder",
    "Codec",
    "Float64Codec",
    "Int64Codec",
    "ListCodec",
    "PickleCodec",
    "TupleCodec",
    "UInt64Codec",
    "Utf8Codec",
    "chunk_records",
    "codec_for",
    "decode_chunk",
    "decode_uvarint",
    "encode_chunk",
    "encode_uvarint",
    "iter_chunk",
    "iter_chunks",
]
