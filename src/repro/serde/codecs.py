"""Composable typed codecs ("typed iterators" in the paper's terms).

A :class:`Codec` serializes a *column*: ``pack(values)`` turns a sequence of
values of one type into bytes and ``unpack(view, offset, count)`` reads
``count`` of them back. A chunk is one column of records
(:mod:`repro.serde.chunks`), so serde is a few C-level standard-library calls
per chunk and no Python bytecode per value. The layouts, all little-endian:

``u64``    one width byte (1, 2, 4 or 8: the narrowest that holds the column's
           maximum), then ``count`` unsigned integers of that width
``i64``    the same over two's-complement signed integers
``f64``    ``count`` IEEE-754 doubles, no header
``bool``   one byte per value (0 or 1; any non-zero byte reads as true)
``bytes``  a ``u64`` column of lengths, then the values concatenated
``str``    a ``u64`` column of lengths *in characters*, ``uvarint(byte
           length)``, then the values concatenated and UTF-8 encoded once
``tuple``  each field's column in field order (the records transposed); a
           record is a sequence of the tuple's arity, read by position (a
           set or a generator is refused, and so is a dict not keyed by
           position: none of them has a field order)
``list``   a ``u64`` column of lengths, then the element codec's column of
           every list's items, flattened (a list of tuples is the tuple's
           field columns over all items)
``pickle`` ``uvarint(byte length)``, then the values pickled as one list:
           the codec of a bag declared without one (spec ``None``)

A value its column cannot represent exactly (a non-integer, a negative or an
integer past 64 bits in an integer column, a lone surrogate in ``str``, an
object that will not pickle) raises :class:`~repro.errors.SerdeError` from
``pack``, in the producer; a truncated or corrupt column raises it from
``unpack`` before any value is returned. ``codec_for`` builds a codec from a
compact spec, e.g.::

    codec_for("u64")
    codec_for(("tuple", "str", "f64"))
    codec_for(("list", ("tuple", "u64", "u64")))
"""

from __future__ import annotations

import io
import pickle
import sys
from array import array
from itertools import accumulate, chain, pairwise
from operator import itemgetter
from typing import Any, Sequence, Tuple, Union

from repro.errors import SerdeError
from repro.serde.varint import decode_uvarint, encode_uvarint

#: What a standard-library call raises for a value its column cannot hold.
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _dump(typecode: str, values: Sequence[Any]) -> bytes:
    """``values`` as little-endian items of ``typecode`` (raises ``_BAD_VALUE``)."""
    column = array(typecode, values)
    if sys.byteorder == "big":
        column.byteswap()
    return column.tobytes()


def _take(view, offset: int, size: int) -> Tuple[Any, int]:
    """The next ``size`` bytes of ``view`` at ``offset`` -> (slice, new_offset)."""
    end = offset + size
    if end > len(view):
        raise SerdeError(f"truncated column: {size} bytes at {offset} of {len(view)}")
    return view[offset:end], end


def _load(view, offset: int, count: int, typecode: str) -> Tuple[list, int]:
    """Read ``count`` little-endian items of ``typecode`` -> (values, new_offset)."""
    column = array(typecode)
    raw, end = _take(view, offset, count * column.itemsize)
    column.frombytes(raw)
    if sys.byteorder == "big":
        column.byteswap()
    return column.tolist(), end


class Codec:
    """Pack/unpack one column of values. Subclasses implement both directions."""

    #: Spec name used by :func:`codec_for`; subclasses override.
    name = "abstract"
    #: Whether a record that alone exceeds the chunk size is a chunk by
    #: itself (see ``ChunkBuilder``) rather than a ``ChunkOverflowError``.
    oversized_alone = False

    def pack(self, values: Sequence[Any]) -> bytes:
        """Serialize a sequence (sized, iterable twice) of values as one column."""
        raise NotImplementedError

    def unpack(self, view: memoryview, offset: int, count: int) -> Tuple[list, int]:
        """Read ``count`` values from ``view`` at ``offset`` -> (values, new_offset)."""
        raise NotImplementedError

    def encode(self, value: Any) -> bytes:
        """One value, as a one-element column."""
        return self.pack((value,))

    def decode(self, buf, offset: int) -> Tuple[Any, int]:
        """Decode a one-element column at ``offset`` -> (value, new_offset)."""
        (value,), offset = self.unpack(memoryview(buf), offset, 1)
        return value, offset


class UInt64Codec(Codec):
    name = "u64"
    #: Column width in bytes -> array typecode, narrowest first.
    _typecodes = {1: "B", 2: "H", 4: "I", 8: "Q"}

    def pack(self, values: Sequence[Any]) -> bytes:
        # The narrowest width whose array() takes every value: a width too
        # narrow gives up at its first oversized value, usually an early one.
        # (Only the message is kept: a stored exception would pin ``values``
        # in a traceback cycle until the next garbage collection.)
        for width, typecode in self._typecodes.items():
            try:
                return bytes((width,)) + _dump(typecode, values)
            except OverflowError as exc:
                reason = str(exc)  # too narrow, or (at 8 bytes) outside 64 bits
            except (TypeError, ValueError) as exc:
                reason = str(exc)  # not an integer at any width
                break
        raise SerdeError(f"value outside the {self.name} domain: {reason}")

    def unpack(self, view, offset, count):
        (width,), offset = _take(view, offset, 1)
        if width not in self._typecodes:
            raise SerdeError(f"illegal {self.name} column width {width}")
        return _load(view, offset, count, self._typecodes[width])


class Int64Codec(UInt64Codec):
    name = "i64"
    _typecodes = {1: "b", 2: "h", 4: "i", 8: "q"}


class Float64Codec(Codec):
    name = "f64"

    def pack(self, values: Sequence[Any]) -> bytes:
        try:
            return _dump("d", values)
        except _BAD_VALUE as exc:
            raise SerdeError(f"value outside the f64 domain: {exc}") from exc

    def unpack(self, view, offset, count):
        return _load(view, offset, count, "d")


class BoolCodec(Codec):
    name = "bool"

    def pack(self, values: Sequence[Any]) -> bytes:
        try:
            return bytes(map(bool, values))
        except _BAD_VALUE as exc:
            raise SerdeError(f"value with no truth value: {exc}") from exc

    def unpack(self, view, offset, count):
        raw, end = _take(view, offset, count)
        return list(map(bool, raw)), end


_U64 = UInt64Codec()


class BytesCodec(Codec):
    name = "bytes"

    def pack(self, values: Sequence[Any]) -> bytes:
        try:
            try:
                blob, lengths = b"".join(values), list(map(len, values))
                if sum(lengths) != len(blob):
                    raise TypeError("a buffer of items wider than a byte")
            except TypeError:
                # Not all flat byte buffers: whatever else bytes() accepts.
                values = list(map(bytes, values))
                blob, lengths = b"".join(values), list(map(len, values))
        except _BAD_VALUE as exc:
            raise SerdeError(f"value is not bytes-like: {exc}") from exc
        return _U64.pack(lengths) + blob

    def unpack(self, view, offset, count):
        lengths, offset = _U64.unpack(view, offset, count)
        raw, end = _take(view, offset, sum(lengths))
        return list(map(io.BytesIO(raw).read, lengths)), end


class Utf8Codec(Codec):
    name = "str"

    def pack(self, values: Sequence[Any]) -> bytes:
        try:
            texts = list(map(str, values))
            blob = "".join(texts).encode("utf-8")
        except _BAD_VALUE as exc:
            raise SerdeError(f"value has no UTF-8 encoding: {exc}") from exc
        return _U64.pack(list(map(len, texts))) + encode_uvarint(len(blob)) + blob

    def unpack(self, view, offset, count):
        lengths, offset = _U64.unpack(view, offset, count)
        size, offset = decode_uvarint(view, offset)
        raw, end = _take(view, offset, size)
        try:
            text = str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise SerdeError(f"str column is not UTF-8: {exc}") from exc
        if sum(lengths) != len(text):
            raise SerdeError(f"str lengths do not sum to its {len(text)} characters")
        return list(map(io.StringIO(text).read, lengths)), end


class TupleCodec(Codec):
    """A fixed-arity heterogeneous tuple of sub-codecs (nested tuples allowed)."""

    name = "tuple"

    def __init__(self, *fields: Codec):
        if not fields:
            raise SerdeError("TupleCodec needs at least one field")
        self.fields = fields

    def pack(self, values: Sequence[Any]) -> bytes:
        # One C-level pass per field and no object per record: a transpose
        # through ``zip(*values)`` holds an iterator per record, and a
        # chunk's worth of those trips the cyclic collector on every chunk.
        arity = len(self.fields)
        try:
            arities = set(map(len, values))
        except _BAD_VALUE as exc:
            raise SerdeError(f"records are not sequences: {exc}") from exc
        if arities - {arity}:
            raise SerdeError(f"tuple arity mismatch: {sorted(arities)} for {arity} fields")
        try:
            columns = [list(map(itemgetter(i), values)) for i in range(arity)]
        except (*_BAD_VALUE, LookupError) as exc:  # a set, a dict: no field order
            raise SerdeError(f"records are not sequences: {exc}") from exc
        return b"".join(f.pack(column) for f, column in zip(self.fields, columns))

    def unpack(self, view, offset, count):
        columns = []
        for field in self.fields:
            column, offset = field.unpack(view, offset, count)
            columns.append(column)
        return list(zip(*columns)), offset


class ListCodec(Codec):
    """A variable-length homogeneous list (any sized iterable) of one sub-codec."""

    name = "list"

    def __init__(self, element: Codec):
        self.element = element

    def pack(self, values: Sequence[Any]) -> bytes:
        try:
            lengths = list(map(len, values))
            items = list(chain.from_iterable(values))
        except _BAD_VALUE as exc:
            raise SerdeError(f"value is not a sized iterable: {exc}") from exc
        return _U64.pack(lengths) + self.element.pack(items)

    def unpack(self, view, offset, count):
        lengths, offset = _U64.unpack(view, offset, count)
        items, offset = self.element.unpack(view, offset, sum(lengths))
        bounds = pairwise(accumulate(lengths, initial=0))
        return [items[start:stop] for start, stop in bounds], offset


class PickleCodec(Codec):
    """Any picklable values: the codec of a bag declared without one.

    The escape hatch for records nobody sized (a counter, a bitset, a whole
    rank dict), hence ``oversized_alone``. Unpickling is code execution:
    only the job's own processes ever unpack a chunk.
    """

    name = "pickle"
    oversized_alone = True

    def pack(self, values: Sequence[Any]) -> bytes:
        try:
            blob = pickle.dumps(list(values), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pickling runs the values' own __reduce__
            raise SerdeError(f"value will not pickle: {exc}") from exc
        return encode_uvarint(len(blob)) + blob

    def unpack(self, view, offset, count):
        size, offset = decode_uvarint(view, offset)
        raw, end = _take(view, offset, size)
        try:
            values = pickle.loads(raw)
        except Exception as exc:  # ... and loading, their __setstate__
            raise SerdeError(f"pickle column will not load: {exc}") from exc
        if not isinstance(values, list) or len(values) != count:
            raise SerdeError(f"pickle column does not hold {count} values")
        return values, end


_PICKLE = PickleCodec()

_PRIMITIVES = {
    codec.name: codec
    for codec in (
        _U64, Int64Codec(), Float64Codec(), BoolCodec(), BytesCodec(), Utf8Codec(),
    )
}

Spec = Union[str, Sequence, None]


def codec_for(spec: Spec) -> Codec:
    """Build a codec from a compact spec (see module docstring); the spec of
    a bag declared without a codec, ``None``, is the pickle codec."""
    if spec is None:
        return _PICKLE
    if isinstance(spec, Codec):
        return spec
    if isinstance(spec, str):
        try:
            return _PRIMITIVES[spec]
        except KeyError:
            raise SerdeError(f"unknown codec name {spec!r}") from None
    head, *rest = spec
    if head == "tuple":
        return TupleCodec(*(codec_for(s) for s in rest))
    if head == "list":
        if len(rest) != 1:
            raise SerdeError("list spec takes exactly one element spec")
        return ListCodec(codec_for(rest[0]))
    raise SerdeError(f"unknown composite codec {head!r}")
