"""LEB128 variable-length integers: the length headers of chunks and file bags."""

from __future__ import annotations

from typing import Tuple

from repro.errors import SerdeError


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128.

    >>> encode_uvarint(0)
    b'\\x00'
    >>> encode_uvarint(300).hex()
    'ac02'
    """
    if value < 0:
        raise SerdeError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(buf, offset: int = 0) -> Tuple[int, int]:
    """Decode a LEB128 integer from ``buf`` at ``offset``.

    Returns ``(value, new_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    try:
        while True:
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, pos
            shift += 7
            if shift > 63:
                raise SerdeError("uvarint too long (corrupt chunk?)")
    except IndexError:
        raise SerdeError("truncated uvarint") from None
