"""The master's write-ahead journal: checkpoint + log of control state.

The dist master owns very little authoritative state — the execution
graph's node transitions (assign / done), clone grants, family resets,
the demotion-epoch vector, and the kept input manifest — and everything
else (bag contents, removal logs) lives in the storage shards. Master
checkpoint-replay persists exactly that little: the manifest (each
source bag's chunk list, the one thing here whose size grows with the
input) is written **once per run** to ``manifest.bin``, before the first
snapshot, and never touched again; every state transition is appended
to ``wal.bin`` *before* its externally visible effect, and a periodic
compaction rewrites ``snapshot.bin`` as an equivalent compacted record
sequence (``ControlState.snapshot_records()``) — control records only,
so its cost under the lock a failover's epoch append waits on does not
depend on the input — and truncates the log. What a record *means* is defined in one place,
:meth:`repro.dist.control.ControlState.apply`: the live master runs every
record through it as it commits it, and recovery runs ``snapshot + log
tail`` through the same function, so a replayed master and a
never-crashed one hold the same control state by construction — not by
two copies of each transition kept alike. This module only frames,
appends and reads records back.

Records are framed ``length(4) | crc32(4) | pickle`` so a torn tail —
the master died mid-append, or the file was truncated — parses as "log
ends here" rather than as an exception: :func:`read_records` stops at
the first short or corrupt frame and returns everything before it. That
is the correct semantics for a *write-ahead* log: a record that never
fully landed describes an effect that never happened (the append ran
before the effect), so dropping it re-creates the pre-crash state. A
bad frame with intact data *behind* it is a different animal — interior
corruption, whose later effects did happen — so recovery scans run
``strict=True`` and raise :class:`~repro.errors.JournalCorrupt` there
instead of silently replaying a prefix of history.

The snapshot, like the manifest, is written to a temp file, fsynced and
atomically renamed; then the WAL is truncated. A crash between the
rename and the truncation would leave the snapshot *plus* a stale tail
of records already folded into it. Nothing defends that window: the
injected master death fires at the event-loop top, never inside a
compaction, and the next successful compaction truncates the tail.

Appends flush to the OS (the simulated master death is process-level,
not kernel-level, so page-cache durability is the honest equivalent of
the paper's local-disk WAL; an ``fsync`` per record would only model a
power failure we never inject).
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from typing import Any, Iterable, List, Optional, Tuple

_FRAME = struct.Struct(">II")

#: Bytes of framing (length + crc32) ahead of each pickled payload —
#: exported for :mod:`repro.dist.segments`, which preads frames back by
#: recorded (offset, length) and must skip the header.
FRAME_HEADER_BYTES = _FRAME.size

MANIFEST_FILE = "manifest.bin"
SNAPSHOT_FILE = "snapshot.bin"
WAL_FILE = "wal.bin"


def pack_frame(record: Any) -> bytes:
    """One ``length(4) | crc32(4) | pickle`` frame as bytes.

    The shared framing discipline of this journal and of
    :mod:`repro.dist.segments`' on-disk segment files; what differs
    between the two is only the *torn-tail policy* (EOF here, physical
    truncation there — see the respective module docstrings).
    """
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def scan_frames(fobj, strict: bool = False) -> "Iterable[Tuple[int, int, Any]]":
    """Yield ``(offset, end_offset, record)`` per intact frame of ``fobj``.

    Stops at the first short header, short payload, crc mismatch, or
    unpicklable payload — the caller decides whether a torn tail means
    "log ends here" (:func:`read_records`) or "truncate the file here"
    (segment reopen). ``end_offset`` of the last yielded frame is the
    length of the intact prefix.

    With ``strict=True``, only a genuinely *torn tail* — the file ends
    inside or right after the bad frame — stops the scan. A bad frame
    with more bytes behind it is interior corruption: later records'
    effects already happened, so silently replaying only the prefix
    would resurrect consumed history. That raises
    :class:`~repro.errors.JournalCorrupt` instead. A CRC-valid frame
    that fails to unpickle always raises in strict mode: torn writes
    produce short or CRC-broken frames, never CRC-valid garbage, so an
    unpicklable payload cannot be a tail artifact.
    """
    from repro.errors import JournalCorrupt

    path = getattr(fobj, "name", "<stream>")

    def bad_frame(reason: str, at: int) -> "Optional[JournalCorrupt]":
        if not strict:
            return None
        if reason != "unpicklable payload" and fobj.read(1) == b"":
            return None  # nothing follows: a torn tail, legal WAL state
        return JournalCorrupt(str(path), at, reason)

    offset = fobj.tell()
    while True:
        head = fobj.read(_FRAME.size)
        if len(head) < _FRAME.size:
            return  # short header: the file physically ends mid-frame
        size, crc = _FRAME.unpack(head)
        payload = fobj.read(size)
        if len(payload) < size:
            return  # short payload: ditto
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            error = bad_frame("crc mismatch", offset)
            if error is not None:
                raise error
            return
        try:
            record = pickle.loads(payload)
        except Exception as exc:
            error = bad_frame("unpicklable payload", offset)
            if error is not None:
                raise error from exc
            return
        end = offset + _FRAME.size + size
        yield offset, end, record
        offset = end


def _write_record(fobj, record: Any) -> None:
    fobj.write(pack_frame(record))


def read_records(path: str, strict: bool = False) -> List[Any]:
    """Every intact record in ``path``; a torn *tail* ends the list.

    Tolerates a missing file (no records yet), a short header, a short
    payload, and a bad final frame — all are "the log ends here", never
    an exception, because a write-ahead record that did not fully land
    describes an effect that never happened. With ``strict=True``
    (master recovery), a bad frame *followed by more data* is interior
    corruption and raises :class:`~repro.errors.JournalCorrupt` — see
    :func:`scan_frames`.
    """
    try:
        fobj = open(path, "rb")
    except FileNotFoundError:
        return []
    with fobj:
        return [record for _start, _end, record in scan_frames(fobj, strict=strict)]


class MasterJournal:
    """Append-only WAL plus compacted snapshot for one run's master state.

    Thread-safe: ``append`` may be called from the event loop and from
    the shard-monitor threads (epoch bumps) concurrently. ``appended``
    counts records appended *by this instance* — a recovered master's
    journal starts its own count, which is what the master-kill fault
    injection keys on (kill after N records of *this* incarnation).
    """

    def __init__(self, dirpath: str):
        self.dirpath = dirpath
        os.makedirs(dirpath, exist_ok=True)
        self.manifest_path = os.path.join(dirpath, MANIFEST_FILE)
        self.snapshot_path = os.path.join(dirpath, SNAPSHOT_FILE)
        self.wal_path = os.path.join(dirpath, WAL_FILE)
        self._lock = threading.Lock()
        self._wal = open(self.wal_path, "ab")
        self.appended = 0

    def append(self, record: Any) -> int:
        """Durably append one record; returns this instance's append count."""
        with self._lock:
            _write_record(self._wal, record)
            self._wal.flush()
            self.appended += 1
            return self.appended

    @staticmethod
    def _replace(path: str, records: Iterable[Any]) -> None:
        """Write ``records`` to a temp file, ``fsync``, rename over ``path``:
        a crash mid-write never corrupts the file already there."""
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as tmp:
            for record in records:
                _write_record(tmp, record)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, path)

    def write_manifest(self, manifest: Any) -> None:
        """Write the run's input manifest: once, before the first snapshot.

        One frame, so it loads whole or not at all. Not under the lock:
        nothing else touches the file, and an O(input) write is exactly
        what a concurrent epoch append must not wait for.
        """
        self._replace(self.manifest_path, [manifest])

    def write_snapshot(self, records: Iterable[Any]) -> None:
        """Atomically replace the snapshot and truncate the WAL.

        ``records`` is the compacted sequence recovery will ``apply``.
        The WAL truncation happens only after the rename lands.
        """
        with self._lock:
            self._replace(self.snapshot_path, records)
            self._wal.close()
            self._wal = open(self.wal_path, "wb")

    def close(self) -> None:
        with self._lock:
            try:
                self._wal.close()
            except OSError:
                pass

    @staticmethod
    def load(dirpath: str) -> Tuple[Optional[Any], List[Any]]:
        """(input manifest, snapshot records + WAL tail) for recovery.

        Returns ``(None, [])`` when the directory holds no journal yet.
        A torn final WAL record is silently dropped, but a bad frame
        *inside* any of the three files raises
        :class:`~repro.errors.JournalCorrupt` rather than resuming from
        a silently truncated history (see :func:`scan_frames`).
        """
        manifest, snapshot, wal = (
            read_records(os.path.join(dirpath, name), strict=True)
            for name in (MANIFEST_FILE, SNAPSHOT_FILE, WAL_FILE)
        )
        return (manifest[0] if manifest else None), snapshot + wal
