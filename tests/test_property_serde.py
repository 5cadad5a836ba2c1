"""Property-based tests for serde: any records, any chunk size, lossless."""

import pickle
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ChunkOverflowError, SerdeError
from repro.serde import (
    ChunkBuilder,
    chunk_records,
    codec_for,
    decode_chunk,
    encode_chunk,
    encode_uvarint,
    iter_chunk,
    iter_chunks,
)
from repro.serde.codecs import ListCodec, TupleCodec

u64s = st.integers(min_value=0, max_value=2**64 - 1)
i64s = st.integers(min_value=-(2**62), max_value=2**62)
strings = st.text(max_size=40)
blobs = st.binary(max_size=60)
floats = st.floats(allow_nan=False, width=64)


@given(st.lists(u64s, max_size=300), st.integers(min_value=32, max_value=4096))
def test_u64_roundtrip_any_chunk_size(records, chunk_size):
    codec = codec_for("u64")
    chunks = list(chunk_records(records, codec, chunk_size))
    assert list(iter_chunks(chunks, codec)) == records


@given(st.lists(st.tuples(strings, u64s, floats), max_size=100))
def test_tuple_roundtrip(records):
    codec = codec_for(("tuple", "str", "u64", "f64"))
    records = [tuple(r) for r in records]
    chunks = list(chunk_records(records, codec, chunk_size=512))
    assert list(iter_chunks(chunks, codec)) == records


@given(st.lists(st.lists(i64s, max_size=10), max_size=60))
def test_nested_list_roundtrip(records):
    codec = codec_for(("list", "i64"))
    chunks = list(chunk_records(records, codec, chunk_size=1024))
    assert list(iter_chunks(chunks, codec)) == records


@given(st.lists(blobs, min_size=1, max_size=100))
def test_chunks_are_independently_decodable(records):
    """Core invariant: any chunk decodes alone (records never span chunks)."""
    codec = codec_for("bytes")
    chunks = list(chunk_records(records, codec, chunk_size=256))
    reassembled = []
    for chunk in reversed(chunks):  # order within a chunk preserved
        reassembled[:0] = list(iter_chunk(chunk, codec))
    assert reassembled == records


@given(
    st.lists(st.text(max_size=20), min_size=1, max_size=120),
    st.integers(min_value=128, max_value=512),
)
def test_chunk_size_bound_respected(records, chunk_size):
    # Strings of <=20 chars encode to <=81+2 bytes, always below the
    # smallest chunk; oversized single records are a separate error path
    # covered by test_serde.TestChunks.test_oversized_record_rejected.
    codec = codec_for("str")
    for chunk in chunk_records(records, codec, chunk_size):
        assert len(chunk) <= chunk_size


# -- columns ---------------------------------------------------------------------

PRIMITIVES = {
    "u64": u64s,
    "i64": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "f64": floats,
    "bool": st.booleans(),
    "bytes": blobs,
    # Astral and combining characters: byte and character lengths differ.
    "str": st.text(max_size=12) | st.text(alphabet="aé€𝄞", max_size=12),
}

typed_specs = st.recursive(
    st.sampled_from(sorted(PRIMITIVES)),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda fs: ("tuple", *fs)),
        inner.map(lambda element: ("list", element)),
    ),
    max_leaves=4,
)
#: ``None`` is the spec of a bag declared without a codec: the pickle codec.
specs = typed_specs | st.none()

#: Values nobody typed: what a codec-less bag holds.
objects = st.recursive(
    st.none() | st.booleans() | i64s | floats | strings | blobs,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.frozensets(st.integers(0, 99), max_size=4),
        st.dictionaries(strings, inner, max_size=3),
    ),
    max_leaves=6,
)


def values_of(spec):
    """A strategy for one value of ``spec``."""
    if spec is None:
        return objects
    if isinstance(spec, str):
        return PRIMITIVES[spec]
    head, *rest = spec
    if head == "tuple":
        return st.tuples(*map(values_of, rest))
    return st.lists(values_of(rest[0]), max_size=4)


def zip_transpose_pack(codec, values):
    """The reference a tuple column is held to: the records transposed by
    ``zip(*values)``, as a list column's flattened items are too, and each
    field's column packed by the field's codec."""
    if isinstance(codec, TupleCodec):
        columns = list(zip(*values, strict=True)) if values else [()] * len(codec.fields)
        return b"".join(
            zip_transpose_pack(field, list(column))
            for field, column in zip(codec.fields, columns)
        )
    if isinstance(codec, ListCodec):
        items = list(chain.from_iterable(values))
        lengths = codec_for("u64").pack([len(value) for value in values])
        return lengths + zip_transpose_pack(codec.element, items)
    return codec.pack(values)


tuple_specs = st.lists(typed_specs, min_size=1, max_size=3).map(lambda fs: ("tuple", *fs))


@settings(max_examples=200)
@given(
    tuple_specs.flatmap(
        lambda spec: st.sampled_from([spec, ("list", spec)]).flatmap(
            lambda outer: st.tuples(
                st.just(outer), st.lists(values_of(outer), max_size=40)
            )
        )
    ),
    st.booleans(),
)
def test_tuple_pack_equals_the_zip_transpose(case, as_lists):
    """A tuple column (alone or as a list's element) packs to the bytes the
    zip transpose gave; a record given as a list packs like its tuple."""
    spec, column = case
    codec = codec_for(spec)
    expected = zip_transpose_pack(codec, column)
    if as_lists and spec[0] == "tuple":
        column = [list(record) for record in column]
    assert codec.pack(column) == expected


def columns():
    """A strategy for (spec, column of values of that spec)."""
    return specs.flatmap(
        lambda spec: st.tuples(st.just(spec), st.lists(values_of(spec), max_size=40))
    )


def chunk_of(count, body):
    return encode_uvarint(count) + body


@given(columns())
def test_any_column_roundtrips(case):
    spec, column = case
    codec = codec_for(spec)
    packed = codec.pack(column)
    assert codec.unpack(memoryview(packed), 0, len(column)) == (column, len(packed))
    # ... and at an offset, with bytes behind it left alone.
    framed = b"\xff" * 3 + packed + b"\xee"
    assert codec.unpack(memoryview(framed), 3, len(column)) == (column, 3 + len(packed))


@pytest.mark.parametrize(
    "spec,value,width",
    [
        ("u64", 0, 1),
        ("u64", 2**8 - 1, 1),
        ("u64", 2**8, 2),
        ("u64", 2**16 - 1, 2),
        ("u64", 2**16, 4),
        ("u64", 2**32 - 1, 4),
        ("u64", 2**32, 8),
        ("u64", 2**64 - 1, 8),
        ("i64", 2**7 - 1, 1),
        ("i64", -(2**7), 1),
        ("i64", 2**7, 2),
        ("i64", -(2**7) - 1, 2),
        ("i64", 2**15 - 1, 2),
        ("i64", -(2**15), 2),
        ("i64", 2**15, 4),
        ("i64", -(2**15) - 1, 4),
        ("i64", 2**31 - 1, 4),
        ("i64", -(2**31), 4),
        ("i64", 2**31, 8),
        ("i64", -(2**31) - 1, 8),
        ("i64", 2**63 - 1, 8),
        ("i64", -(2**63), 8),
    ],
)
def test_integer_width_boundaries(spec, value, width):
    codec = codec_for(spec)
    column = [0, value, 1]
    packed = codec.pack(column)
    assert packed[0] == width and len(packed) == 1 + 3 * width
    assert codec.unpack(memoryview(packed), 0, 3) == (column, len(packed))


@pytest.mark.parametrize(
    "spec", [*sorted(PRIMITIVES), ("tuple", "u64", "str"), ("list", "f64"), None]
)
def test_empty_column_roundtrips(spec):
    codec = codec_for(spec)
    packed = codec.pack([])
    assert codec.unpack(memoryview(packed), 0, 0) == ([], len(packed))


def test_str_lengths_are_characters_not_bytes():
    codec = codec_for("str")
    column = ["", "é", "𝄞𝄞", "a€𝄞", "plain"]
    packed = codec.pack(column)
    assert len("".join(column).encode()) > len("".join(column))
    assert codec.unpack(memoryview(packed), 0, 5) == (column, len(packed))
    # A lengths column that disagrees with the decoded text is corruption.
    lengths_too_long = codec_for("u64").pack([0, 1, 2, 3, 6])
    with pytest.raises(SerdeError):
        codec.unpack(memoryview(lengths_too_long + packed[6:]), 0, 5)


# -- corruption --------------------------------------------------------------------


@given(columns().filter(lambda case: case[1]))
def test_every_strict_prefix_of_a_chunk_is_rejected(case):
    spec, column = case
    codec = codec_for(spec)
    chunk = chunk_of(len(column), codec.pack(column))
    assert decode_chunk(chunk, codec) == column
    for cut in range(len(chunk)):
        # SerdeError and nothing else: no IndexError, ValueError or
        # struct.error, and never a short or wrong record list.
        with pytest.raises(SerdeError):
            decode_chunk(chunk[:cut], codec)


@pytest.mark.parametrize("spec", ["u64", "i64"])
@given(column=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=20))
def test_every_other_width_byte_is_rejected(spec, column):
    codec = codec_for(spec)
    chunk = bytearray(chunk_of(len(column), codec.pack(column)))
    written = chunk[1]
    for width in range(256):  # the 252 illegal values and the 3 wrong legal ones
        if width == written:
            continue
        chunk[1] = width
        with pytest.raises(SerdeError):
            iter_chunk(bytes(chunk), codec)  # eager: raises without a next()


@given(columns().filter(lambda case: case[1]))
def test_trailing_bytes_after_a_chunk_are_rejected(case):
    spec, column = case
    codec = codec_for(spec)
    with pytest.raises(SerdeError, match="trailing"):
        decode_chunk(encode_chunk(column, codec) + b"\x00", codec)


class Unpicklable:
    def __reduce__(self):
        raise RuntimeError("not this one")


@pytest.mark.parametrize("value", [lambda: 0, Unpicklable(), (1, [Unpicklable()])])
def test_a_record_that_will_not_pickle_fails_in_the_producer(value):
    """Like every other column: ``SerdeError`` from ``pack``, not a
    ``PicklingError`` out of some later flush."""
    with pytest.raises(SerdeError, match="will not pickle"):
        codec_for(None).pack([1, value])
    builder = ChunkBuilder(codec_for(None), 64)
    with pytest.raises(SerdeError):
        builder.add(value)


def test_a_pickle_column_of_the_wrong_shape_is_rejected():
    for payload in ([1, 2, 3], (1, 2), "ab"):  # wrong count, not a list
        blob = pickle.dumps(payload)
        with pytest.raises(SerdeError, match="does not hold 2"):
            decode_chunk(chunk_of(2, encode_uvarint(len(blob)) + blob), codec_for(None))
    with pytest.raises(SerdeError, match="will not load"):
        decode_chunk(chunk_of(1, encode_uvarint(4) + b"junk"), codec_for(None))


# -- the builder -------------------------------------------------------------------


def chunked_by_add(records, codec, chunk_size):
    builder = ChunkBuilder(codec, chunk_size)
    chunks = [chunk for chunk in map(builder.add, records) if chunk is not None]
    while (chunk := builder.flush()) is not None:
        chunks.append(chunk)
    return chunks


@settings(max_examples=200)
@given(columns(), st.integers(min_value=24, max_value=1024))
def test_builder_bounds_order_and_determinism(case, chunk_size):
    spec, records = case
    codec = codec_for(spec)
    largest = max((len(chunk_of(1, codec.pack([r]))) for r in records), default=0)
    if largest > chunk_size and spec is not None:
        with pytest.raises(ChunkOverflowError):
            list(chunk_records(records, codec, chunk_size))
        return
    chunks = list(chunk_records(records, codec, chunk_size))
    # The one chunk over the bound: a lone oversized record, pickle codec only.
    assert all(
        len(chunk) <= chunk_size or len(decode_chunk(chunk, codec)) == 1
        for chunk in chunks
    )
    assert list(iter_chunks(chunks, codec)) == records
    # Byte-identical on a second run, and whichever way the records arrive.
    assert list(chunk_records(iter(records), codec, chunk_size)) == chunks
    assert chunked_by_add(records, codec, chunk_size) == chunks


def test_a_lone_oversized_record_is_its_own_chunk_for_the_pickle_codec_only():
    """Nobody sized what a codec-less bag holds (a rank dict is one record);
    a typed record over the bound is still the producer's error."""
    big, codec = "x" * 500, codec_for(None)
    records = ["a", "b", big, "c", big, big, "d"]
    chunks = list(chunk_records(records, codec, 64))
    assert list(iter_chunks(chunks, codec)) == records
    assert chunked_by_add(records, codec, 64) == chunks
    over = [decode_chunk(chunk, codec) for chunk in chunks if len(chunk) > 64]
    assert over == [[big], [big], [big]]
    with pytest.raises(ChunkOverflowError):
        list(chunk_records(records, codec_for("str"), 64))


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from([1, 2, 5, 20, 40]).map(bytes), max_size=40),
    st.lists(st.integers(0, 40), max_size=6),
)
@example(
    [bytes(n) for n in (1, 20, 1, 20, 5, 2, 1, 40, 1, 40, 20, 40, 5, 40, 40, 1, 2, 40, 2, 1)],
    [16],
)
def test_extend_in_pieces_is_an_add_loop(records, cuts):
    """``emit_many`` hands a bag's records over a batch at a time: wherever
    the sequence is cut into ``extend`` calls, the chunks are ``add``'s. (A
    buffer still over its target when a piece ended used to be packed early.)"""
    codec = codec_for("bytes")
    bounds = sorted({0, len(records), *(min(cut, len(records)) for cut in cuts)})
    builder = ChunkBuilder(codec, 64)
    chunks = [
        chunk
        for start, stop in zip(bounds, bounds[1:])
        for chunk in builder.extend(records[start:stop])
    ]
    while (chunk := builder.flush()) is not None:
        chunks.append(chunk)
    assert chunks == chunked_by_add(records, codec, 64)


@settings(max_examples=200)
@given(
    specs.flatmap(lambda spec: st.tuples(st.just(spec), values_of(spec))),
    st.integers(min_value=50, max_value=3000),
    st.integers(min_value=16, max_value=200),
)
def test_homogeneous_stream_fills_its_chunks(case, count, per_chunk):
    """What keeps ``serde.chunks`` and ``dist.server.ops`` from creeping up:
    on a stream of equal records every chunk but the last is >= 85 % full."""
    spec, record = case
    codec = codec_for(spec)
    # Room for at least 16 records a chunk, or one record is most of a
    # chunk and no packing could fill it.
    chunk_size = max(24, per_chunk * len(chunk_of(1, codec.pack([record]))))
    chunks = list(chunk_records([record] * count, codec, chunk_size))
    assert list(iter_chunks(chunks, codec)) == [record] * count
    assert all(len(chunk) <= chunk_size for chunk in chunks)
    assert all(len(chunk) >= 0.85 * chunk_size for chunk in chunks[:-1])
