"""Bitsets for distinct counting (ClickLog Phase 2).

The paper's ClickLog lists unique IP addresses per region in a bitset and
merges clone outputs with bitwise OR (Figure 3). Python's arbitrary-precision
integers give a compact, fast bitset with ``int.bit_count`` popcount.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Bitset:
    """A growable bitset over non-negative integer keys."""

    __slots__ = ("_bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("bitset backing integer must be non-negative")
        self._bits = bits

    @classmethod
    def from_keys(cls, keys: Iterable[int]) -> "Bitset":
        bits = 0
        for key in keys:
            bits |= 1 << key
        return cls(bits)

    def set(self, key: int) -> None:
        if key < 0:
            raise ValueError(f"bitset keys must be non-negative, got {key}")
        self._bits |= 1 << key

    def update(self, keys: Iterable[int]) -> None:
        """``set`` every key; none is set if any is negative."""
        bits = self._bits
        for key in keys:
            if key < 0:
                raise ValueError(f"bitset keys must be non-negative, got {key}")
            bits |= 1 << key
        self._bits = bits

    def test(self, key: int) -> bool:
        return bool((self._bits >> key) & 1)

    def count(self) -> int:
        """Number of set bits (the distinct count)."""
        return self._bits.bit_count()

    def union(self, other: "Bitset") -> "Bitset":
        return Bitset(self._bits | other._bits)

    def __or__(self, other: "Bitset") -> "Bitset":
        return self.union(other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bitset) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __len__(self) -> int:
        return self.count()

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        index = 0
        while bits:
            if bits & 1:
                yield index
            bits >>= 1
            index += 1

    def to_bytes(self) -> bytes:
        """Serialize for insertion into a bag (little-endian, minimal length)."""
        length = (self._bits.bit_length() + 7) // 8
        return self._bits.to_bytes(length, "little")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Bitset":
        return cls(int.from_bytes(raw, "little"))

    def __repr__(self) -> str:
        return f"Bitset(count={self.count()})"


def bitset_union_merge(a: Bitset, b: Bitset) -> Bitset:
    """ClickLog Phase 2 merge: ``output.insert(partial1 | partial2)``."""
    return a.union(b)
