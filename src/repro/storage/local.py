"""Real, thread-safe bags for the local execution engine.

These bags hold actual chunk payloads and implement the paper's bag
contract with real concurrency: many worker threads can ``insert`` and
``remove`` concurrently, and each chunk is returned **exactly once** —
the property that lets clones share an input partition safely. An
append-only chunk log plus an atomic read pointer mirrors the paper's
file-backed implementation (Section 4.3), which also makes ``rewind``
(failure recovery, whole-bag re-reads) and replay trivially correct.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.errors import BagError, BagSealedError


class LocalBag:
    """An in-memory bag of chunks with exactly-once removal."""

    def __init__(self, bag_id: str):
        self.bag_id = bag_id
        self._chunks: List[bytes] = []
        self._next = 0
        self._sealed = False
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)

    # -- write side ----------------------------------------------------------

    def insert(self, chunk: bytes) -> None:
        with self._lock:
            if self._sealed:
                raise BagSealedError(f"insert into sealed bag {self.bag_id!r}")
            self._chunks.append(chunk)
            self._available.notify()

    def seal(self) -> None:
        """No further inserts; blocked removers observe the final empty."""
        with self._lock:
            self._sealed = True
            self._available.notify_all()

    @property
    def sealed(self) -> bool:
        with self._lock:
            return self._sealed

    # -- read side -------------------------------------------------------------

    def remove(self) -> Optional[bytes]:
        """Take the next chunk, or None if none is currently available.

        Non-blocking; callers that need to distinguish "empty forever" from
        "empty for now" should check :attr:`sealed` or use
        :meth:`remove_wait`.
        """
        with self._lock:
            return self._take_locked()

    def remove_wait(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Take the next chunk, waiting for inserts; None once sealed+empty."""
        with self._lock:
            while True:
                chunk = self._take_locked()
                if chunk is not None:
                    return chunk
                if self._sealed:
                    return None
                if not self._available.wait(timeout):
                    return None

    def _take_locked(self) -> Optional[bytes]:
        if self._next < len(self._chunks):
            chunk = self._chunks[self._next]
            self._next += 1
            return chunk
        return None

    # -- bag API extras (Section 4.3) ----------------------------------------------

    def read_all(self) -> List[bytes]:
        """Non-destructive snapshot of the full contents ("reuse" reads)."""
        with self._lock:
            return list(self._chunks)

    def read_page(self, cursor: int, max_bytes: int):
        """One bounded page of the chunk log, non-destructively.

        Same contract as ``repro.dist.bags.Bag.read_page``: ``cursor``
        indexes the append order, an empty page means done, a page
        always carries at least one chunk (an oversized chunk travels
        alone), and a cursor past the end is answered with an empty page
        rather than rejected.
        """
        with self._lock:
            cursor = max(0, int(cursor))
            chunks: List[bytes] = []
            used = 0
            while cursor < len(self._chunks):
                chunk = self._chunks[cursor]
                if chunks and used + len(chunk) > max_bytes:
                    break
                chunks.append(chunk)
                used += len(chunk)
                cursor += 1
            return chunks, cursor

    def remaining(self) -> int:
        with self._lock:
            return len(self._chunks) - self._next

    def size(self) -> int:
        with self._lock:
            return len(self._chunks)

    def rewind(self) -> None:
        """Reset the read pointer so every chunk is delivered again."""
        with self._lock:
            self._next = 0

    def discard(self) -> None:
        """Drop contents and reopen (producing task is being restarted)."""
        with self._lock:
            self._chunks = []
            self._next = 0
            self._sealed = False

    def __len__(self) -> int:
        return self.remaining()


class LocalBagStore:
    """Catalog of local bags for one job."""

    def __init__(self):
        self._bags: Dict[str, LocalBag] = {}
        self._lock = threading.Lock()

    def create(self, bag_id: str) -> LocalBag:
        with self._lock:
            if bag_id in self._bags:
                raise BagError(f"bag {bag_id!r} already exists")
            bag = LocalBag(bag_id)
            self._bags[bag_id] = bag
            return bag

    def ensure(self, bag_id: str) -> LocalBag:
        with self._lock:
            if bag_id not in self._bags:
                self._bags[bag_id] = LocalBag(bag_id)
            return self._bags[bag_id]

    def get(self, bag_id: str) -> LocalBag:
        with self._lock:
            try:
                return self._bags[bag_id]
            except KeyError:
                raise BagError(f"unknown bag {bag_id!r}") from None

    def bag_ids(self) -> List[str]:
        """Sorted inventory of every bag this store holds."""
        with self._lock:
            return sorted(self._bags)

    def __contains__(self, bag_id: str) -> bool:
        with self._lock:
            return bag_id in self._bags
