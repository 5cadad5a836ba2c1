"""Tests for varints, codecs, and chunk packing."""

import gc
import sys

import pytest

from repro.errors import ChunkOverflowError, SerdeError
from repro.serde import (
    ChunkBuilder,
    chunk_records,
    codec_for,
    decode_uvarint,
    encode_uvarint,
    iter_chunk,
    iter_chunks,
)


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_roundtrip(self, value):
        encoded = encode_uvarint(value)
        decoded, offset = decode_uvarint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_negative_rejected(self):
        with pytest.raises(SerdeError):
            encode_uvarint(-1)

    def test_truncated_raises(self):
        with pytest.raises(SerdeError, match="truncated"):
            decode_uvarint(b"\x80")

    # The zigzag varint these two cases were written for is gone; what it
    # bought — either sign round-trips, and a small magnitude of either sign
    # costs one byte — is now the signed column's job, held to the same cases.
    @pytest.mark.parametrize("value", [0, -1, 1, -123456, 2**40, -(2**40)])
    def test_zigzag_roundtrip(self, value):
        codec = codec_for("i64")
        assert codec.decode(codec.encode(value), 0) == (value, len(codec.encode(value)))

    def test_zigzag_small_magnitudes_stay_small(self):
        codec = codec_for("i64")
        for value in (-1, 1, -2, -128, 127):
            assert len(codec.encode(value)) == 2  # width byte + one byte
        assert len(codec.pack([-1, 1, -2, -128, 127])) == 1 + 5


class TestCodecs:
    @pytest.mark.parametrize(
        "spec,values",
        [
            ("u64", [0, 7, 2**50]),
            ("i64", [-5, 0, 12, -(2**40)]),
            ("f64", [0.0, -1.5, 3.141592653589793]),
            ("bool", [True, False]),
            ("str", ["", "hello", "héllo wörld"]),
            ("bytes", [b"", b"\x00\xff", b"payload"]),
            (("tuple", "str", "u64"), [("usa", 42), ("", 0)]),
            (("list", "u64"), [[], [1, 2, 3]]),
            (
                ("tuple", "str", ("list", ("tuple", "u64", "f64"))),
                [("nested", [(1, 1.5), (2, 2.5)])],
            ),
        ],
    )
    def test_roundtrip(self, spec, values):
        codec = codec_for(spec)
        for value in values:
            encoded = codec.encode(value)
            decoded, offset = codec.decode(memoryview(encoded), 0)
            assert decoded == value
            assert offset == len(encoded)

    def test_unknown_codec_name(self):
        with pytest.raises(SerdeError):
            codec_for("u128")

    def test_unknown_composite(self):
        with pytest.raises(SerdeError):
            codec_for(("map", "u64"))

    def test_tuple_arity_mismatch(self):
        codec = codec_for(("tuple", "u64", "u64"))
        with pytest.raises(SerdeError):
            codec.encode((1, 2, 3))

    def test_truncated_f64(self):
        codec = codec_for("f64")
        with pytest.raises(SerdeError):
            codec.decode(b"\x00\x01", 0)

    @pytest.mark.parametrize(
        "spec,value",
        [
            # The first three were silent at the parent: 3.9 was written as
            # 3, -(2**64) came back as another number, and 2**71 became 11
            # bytes that only the *reader* rejected, a phase later.
            ("u64", 3.9),
            ("i64", -(2**64)),
            ("u64", 2**71),
            ("u64", 2**70),
            ("u64", 2**64),
            ("u64", -1),
            ("u64", "7"),
            ("u64", None),
            ("i64", 2**63),
            ("i64", -(2**63) - 1),
            ("i64", 1.0),
            ("f64", "1.5"),
            pytest.param("f64", 10**400, id="f64-1e400"),
            ("bytes", "text"),
            ("str", "\ud800"),
            (("tuple", "u64", "u64"), 5),
            (("tuple", "u64", "u64"), (1, -1)),
            (("list", "u64"), 5),
            (("list", "u64"), [1, 2.5]),
            # A record with no field order: a set packed its fields in
            # hash-seed order, a dict packed its keys, and a generator was
            # transposed like a tuple.
            pytest.param(("tuple", "str", "str"), {"alpha", "beta"}, id="tuple-set"),
            pytest.param(("tuple", "u64", "str"), {1: "x", 2: "y"}, id="tuple-dict"),
            pytest.param(
                ("tuple", "u64", "u64"), (i for i in (1, 2)), id="tuple-generator"
            ),
        ],
    )
    def test_out_of_domain_value_raises_at_pack_time(self, spec, value):
        codec = codec_for(spec)
        with pytest.raises(SerdeError):
            codec.encode(value)
        # ... in the producing task, whatever the value sits next to.
        with pytest.raises(SerdeError):
            list(chunk_records([value], codec, chunk_size=64))

    def test_mixed_length_tuples_rejected(self):
        with pytest.raises(SerdeError):
            codec_for(("tuple", "u64", "u64")).pack([(1, 2), (3,)])

    @pytest.mark.parametrize(
        "spec,value,decoded",
        [
            ("u64", True, 1),
            ("i64", False, 0),
            ("u64", type("Idx", (), {"__index__": lambda self: 300})(), 300),
            ("i64", type("Idx", (), {"__index__": lambda self: -300})(), -300),
            ("f64", 3, 3.0),
            ("str", 12, "12"),
            ("bytes", bytearray(b"ab"), b"ab"),
            ("bytes", memoryview(b"cd"), b"cd"),
            (("list", "u64"), (1, 2), [1, 2]),
        ],
    )
    def test_legal_coercions_stay_legal(self, spec, value, decoded):
        codec = codec_for(spec)
        assert codec.decode(codec.encode(value), 0)[0] == decoded


class TestChunks:
    def test_records_roundtrip_across_chunks(self):
        codec = codec_for("u64")
        records = list(range(1000))
        chunks = list(chunk_records(records, codec, chunk_size=64))
        assert len(chunks) > 1
        assert list(iter_chunks(chunks, codec)) == records

    def test_each_chunk_independently_decodable(self):
        """The core invariant: records never span chunk boundaries."""
        codec = codec_for(("tuple", "str", "u64"))
        records = [(f"key-{i}", i) for i in range(500)]
        chunks = list(chunk_records(records, codec, chunk_size=128))
        reassembled = []
        for chunk in chunks:
            reassembled.extend(iter_chunk(chunk, codec))
        assert reassembled == records

    def test_chunk_size_respected(self):
        codec = codec_for("bytes")
        records = [bytes(20) for _ in range(100)]
        for chunk in chunk_records(records, codec, chunk_size=100):
            assert len(chunk) <= 100

    def test_oversized_record_rejected(self):
        codec = codec_for("bytes")
        builder = ChunkBuilder(codec, chunk_size=64)
        with pytest.raises(ChunkOverflowError):
            builder.add(bytes(100))

    def test_flush_empty_returns_none(self):
        builder = ChunkBuilder(codec_for("u64"), chunk_size=64)
        assert builder.flush() is None

    def test_trailing_garbage_detected(self):
        codec = codec_for("u64")
        chunk = next(chunk_records([1, 2], codec, chunk_size=64))
        with pytest.raises(SerdeError, match="trailing"):
            list(iter_chunk(chunk + b"\x07", codec))

    def test_empty_record_stream(self):
        assert list(chunk_records([], codec_for("u64"), 64)) == []

    def test_corrupt_chunk_raises_before_the_first_record(self):
        codec = codec_for("u64")
        (chunk,) = chunk_records([1, 2, 3], codec, chunk_size=64)
        with pytest.raises(SerdeError):
            iter_chunk(chunk[:-1], codec)  # no next(): decoding is eager

    def test_flush_drains_a_builder_holding_several_chunks(self):
        # 200 one-byte records teach the builder a high count; the 60-byte
        # ones that follow are buffered against it, so by flush() the
        # buffer holds several chunks' worth.
        codec = codec_for("bytes")
        records = [b"x"] * 200 + [bytes(60)] * 12
        builder = ChunkBuilder(codec, chunk_size=128)
        for record in records:
            builder.add(record)
        assert builder.pending_records > 2
        assert len(builder.flush()) <= 128 and builder.pending_records > 0
        chunks = list(chunk_records(records, codec, chunk_size=128))
        assert all(len(chunk) <= 128 for chunk in chunks)
        assert list(iter_chunks(chunks, codec)) == records

    def test_oversized_record_mid_buffer_still_rejected(self):
        # The offender is buffered by its own add(); the error surfaces
        # once it heads the buffer, here at the second flush().
        builder = ChunkBuilder(codec_for("bytes"), chunk_size=128)
        for record in [b"x"] * 10 + [bytes(200)] + [b"y"] * 3:
            assert builder.add(record) is None
        assert list(iter_chunk(builder.flush(), builder.codec)) == [b"x"] * 10
        with pytest.raises(ChunkOverflowError):
            builder.flush()


def test_serde_leaves_nothing_for_the_garbage_collector():
    """Nothing outlives a chunk: a width-4 column fails the two narrower
    widths first, and a kept exception would pin the whole column in a
    traceback cycle until the collector next ran."""
    codec = codec_for(("tuple", "u64", "i64", "str"))
    records = [(2**20 + i, -(2**20) - i, f"key-{i}") for i in range(2_000)]
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            chunks = list(chunk_records(records, codec, 8192))
            assert list(iter_chunks(chunks, codec)) == records
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_packing_tuple_chunks_fires_no_collection():
    """A tuple chunk allocates no tracked object per record. An 8 KiB chunk
    of these records holds several hundred of them, so one object each
    (an iterator per record, as a ``zip(*records)`` transpose holds) would
    cross the gen-0 threshold and fire a collection on nearly every chunk."""
    codec = codec_for(("tuple", "u64", "bytes"))
    # A hash-join row: a 2-byte key and an 8-byte payload, 743 to a chunk.
    records = [(i % 50_000, i.to_bytes(8, "little")) for i in range(90_000)]
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(700, 10, 10)
    gc.callbacks.append(count)
    try:
        chunks = list(chunk_records(records, codec, 8192))
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
    assert len(chunks) >= 100
    assert collections == []
    assert list(iter_chunks(chunks, codec)) == records


class TestNoPerRecordPython:
    """A count, not a timing: Python-level calls into the codec and varint
    modules grow with the number of *chunks*, never with the records."""

    @staticmethod
    def calls_during(work, modules=("repro/serde/codecs.py", "repro/serde/varint.py")):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.endswith(modules):
                calls += 1

        sys.setprofile(profile)
        try:
            result = work()
        finally:
            sys.setprofile(None)
        return calls, result

    @pytest.mark.parametrize(
        "spec,record",
        [
            ("u64", lambda i: i),
            (("tuple", "u64", "bytes"), lambda i: (i, b"payload-" + bytes([i % 251]))),
            ("str", lambda i: f"key-{i}"),
        ],
    )
    def test_serde_calls_are_per_chunk(self, spec, record):
        codec = codec_for(spec)
        records = [record(i) for i in range(50_000)]
        packs, chunks = self.calls_during(
            lambda: list(chunk_records(records, codec, 8192))
        )
        unpacks, decoded = self.calls_during(lambda: list(iter_chunks(chunks, codec)))
        assert decoded == records
        assert 5 <= len(chunks) <= 120
        # A tuple chunk costs ~20 calls each way (a pack/unpack per field,
        # their helpers, the count header); one call per record would be
        # 50 000.
        assert packs <= 40 * len(chunks)
        assert unpacks <= 40 * len(chunks)
