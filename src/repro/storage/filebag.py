"""File-backed bags: the paper's actual storage representation.

Section 4.3: *"data bags are implemented at each storage node as Linux
ext4 regular (buffered) files. A chunk insert request simply appends the
chunk to the file associated with the bag ... A remove operation is
implemented by reading a chunk from the file sequentially, which
increments the file pointer and ensures that the same chunk is never
returned again."*

:class:`FileBag` reproduces that design on a real file: chunks are
appended as ``[uvarint length][payload]`` frames; a shared read pointer
(protected by a lock) advances over frames, giving exactly-once removal to
any number of concurrent reader threads. ``rewind``/``read_all`` reuse the
frame index, and the bag survives process restarts — :meth:`FileBag.open`
rebuilds its state by scanning the file, which is exactly the
replay-ability the paper's fault tolerance leans on.

:class:`FileBagStore` adapts a directory of FileBags to the same interface
as :class:`~repro.storage.local.LocalBagStore`, so the local engine can run
entirely on disk-backed bags (``LocalRuntime(app, store=FileBagStore(dir))``).

On-disk format vs. the dist engine's files
------------------------------------------

Three append-only formats coexist in this codebase, deliberately:

* **This module**: ``[uvarint length][payload]`` frames, no checksum.
  It reproduces the paper's §4.3 representation *faithfully* — the
  paper's files carry no CRC either — and its fault model is a process
  restart over an intact file, so a short or undecodable frame is
  **corruption** and raises :class:`BagError` (see ``_rebuild_index``).
  The payload is opaque bytes: serde happens above this layer.
* **:mod:`repro.dist.journal`**: ``length(4)|crc32(4)|pickle`` frames
  (see ``pack_frame``/``scan_frames`` there). It is a write-ahead log,
  so a torn tail means "the logged effect never happened" — scanning
  **stops at EOF** silently and the torn record is dropped.
* **:mod:`repro.dist.segments`**: the *same* frame codec as the journal
  (it imports ``pack_frame``/``scan_frames`` rather than re-deriving
  them), but segment files are *data*, not intent, so a torn tail is
  **physically truncated** on reopen and everything before it is kept.

The dist formats do not share this module's uvarint framing because
they need the CRC to distinguish "torn mid-append by a killed process"
from "intact" without trusting lengths alone, and they frame pickled
records, not opaque payloads. What they share is shared for real (the
segment store reuses the journal's codec); what differs — framing and
torn-tail policy — is each format's fault model, documented at each
site.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import BagError, BagSealedError, SerdeError
from repro.serde.varint import decode_uvarint, encode_uvarint

#: Appended to the data file when the bag is sealed: a non-canonical uvarint
#: zero, which no frame starts with (``encode_uvarint(0)`` is ``b"\x00"``).
_SEAL_MARK = b"\x80\x00"


class FileBag:
    """An append-only, frame-indexed bag in a single file."""

    def __init__(self, bag_id: str, path: Union[str, Path]):
        self.bag_id = bag_id
        self.path = Path(path)
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._offsets: List[int] = []  # start offset of each frame
        self._next = 0
        self._sealed = False
        self._file = open(self.path, "a+b")

    # -- construction -----------------------------------------------------

    @classmethod
    def open(cls, bag_id: str, path: Union[str, Path]) -> "FileBag":
        """Open an existing bag file, rebuilding the frame index by scan."""
        bag = cls(bag_id, path)
        bag._rebuild_index()
        return bag

    def _rebuild_index(self) -> None:
        with self._lock:
            self._file.seek(0)
            raw = self._file.read()
            self._offsets = []
            self._sealed = False
            position = 0
            while position < len(raw):
                if raw[position : position + 2] == _SEAL_MARK:
                    self._sealed = True
                    break
                try:
                    length, data_start = decode_uvarint(raw, position)
                except SerdeError as exc:
                    raise BagError(
                        f"corrupt bag file {self.path}: {exc}"
                    ) from exc
                if data_start + length > len(raw):
                    raise BagError(f"truncated frame in bag file {self.path}")
                self._offsets.append(position)
                position = data_start + length

    # -- write side --------------------------------------------------------

    def insert(self, chunk: bytes) -> None:
        """Append one chunk (atomic under the bag lock, as ext4 append is);
        the frame's payload *is* the chunk, stored verbatim."""
        with self._lock:
            if self._sealed:
                raise BagSealedError(f"insert into sealed bag {self.bag_id!r}")
            self._file.seek(0, os.SEEK_END)
            offset = self._file.tell()
            self._file.write(encode_uvarint(len(chunk)) + chunk)
            self._file.flush()
            self._offsets.append(offset)
            self._available.notify()

    def seal(self) -> None:
        with self._lock:
            if self._sealed:
                return
            self._file.seek(0, os.SEEK_END)
            self._file.write(_SEAL_MARK)
            self._file.flush()
            self._sealed = True
            self._available.notify_all()

    @property
    def sealed(self) -> bool:
        with self._lock:
            return self._sealed

    # -- read side -------------------------------------------------------------

    def _read_frame(self, index: int) -> bytes:
        offset = self._offsets[index]
        self._file.seek(offset)
        header = self._file.read(10)
        length, data_start = decode_uvarint(header, 0)
        self._file.seek(offset + data_start)
        payload = self._file.read(length)
        if len(payload) != length:
            raise BagError(f"corrupt frame {index} in bag {self.bag_id!r}")
        return payload

    def remove(self) -> Optional[bytes]:
        """Exactly-once removal: advance the shared file pointer one frame."""
        with self._lock:
            if self._next >= len(self._offsets):
                return None
            index = self._next
            self._next += 1
            return self._read_frame(index)

    def remove_wait(self, timeout: Optional[float] = None) -> Optional[bytes]:
        with self._lock:
            while True:
                if self._next < len(self._offsets):
                    index = self._next
                    self._next += 1
                    return self._read_frame(index)
                if self._sealed:
                    return None
                if not self._available.wait(timeout):
                    return None

    def read_all(self) -> List[bytes]:
        """Non-destructive full read (the bag API's "reuse" operation)."""
        with self._lock:
            return [self._read_frame(i) for i in range(len(self._offsets))]

    def read_page(self, cursor: int, max_bytes: int):
        """One bounded page of the chunk log, non-destructively.

        Same contract as ``repro.dist.bags.Bag.read_page``: ``cursor``
        indexes the append order, an empty page means done, a page
        always carries at least one chunk, and a cursor past the end is
        answered with an empty page rather than rejected.
        """
        with self._lock:
            cursor = max(0, int(cursor))
            chunks: List[bytes] = []
            used = 0
            while cursor < len(self._offsets):
                chunk = self._read_frame(cursor)
                if chunks and used + len(chunk) > max_bytes:
                    break
                chunks.append(chunk)
                used += len(chunk)
                cursor += 1
            return chunks, cursor

    def remaining(self) -> int:
        with self._lock:
            return len(self._offsets) - self._next

    def size(self) -> int:
        with self._lock:
            return len(self._offsets)

    def rewind(self) -> None:
        with self._lock:
            self._next = 0

    def discard(self) -> None:
        """Truncate the file and reopen the bag for writing."""
        with self._lock:
            self._file.truncate(0)
            self._file.flush()
            self._offsets = []
            self._next = 0
            self._sealed = False

    def close(self) -> None:
        with self._lock:
            self._file.close()

    def __len__(self) -> int:
        return self.remaining()


class FileBagStore:
    """A directory of FileBags, interface-compatible with LocalBagStore."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._bags: Dict[str, FileBag] = {}
        self._lock = threading.Lock()

    def _path_for(self, bag_id: str) -> Path:
        safe = bag_id.replace("/", "_")
        return self.directory / f"{safe}.bag"

    def create(self, bag_id: str) -> FileBag:
        with self._lock:
            if bag_id in self._bags:
                raise BagError(f"bag {bag_id!r} already exists")
            bag = FileBag(bag_id, self._path_for(bag_id))
            self._bags[bag_id] = bag
            return bag

    def ensure(self, bag_id: str) -> FileBag:
        with self._lock:
            if bag_id not in self._bags:
                self._bags[bag_id] = FileBag(bag_id, self._path_for(bag_id))
            return self._bags[bag_id]

    def get(self, bag_id: str) -> FileBag:
        with self._lock:
            try:
                return self._bags[bag_id]
            except KeyError:
                raise BagError(f"unknown bag {bag_id!r}") from None

    def __contains__(self, bag_id: str) -> bool:
        with self._lock:
            return bag_id in self._bags

    def close(self) -> None:
        with self._lock:
            for bag in self._bags.values():
                bag.close()
