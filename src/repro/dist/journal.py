"""The master's write-ahead journal: checkpoint + log of control state.

The dist master owns very little authoritative state — the execution
graph's node transitions (assign / done), clone grants, family resets,
the demotion-epoch vector — and everything else (bag contents, removal
logs) lives in the storage shards; the job's inputs are the caller's,
handed to a recovering master again exactly as to ``run``. Master
checkpoint-replay persists exactly that little, in two files: every
state transition is appended to ``wal.bin`` *before* its externally
visible effect, and a compaction — once at the start of a run, then
periodically — rewrites ``snapshot.bin`` as an equivalent compacted
record sequence (``ControlState.snapshot_records()``) and truncates the
log. Every record is a control record, so nothing here grows with the
input. What a record *means* is defined in one place,
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

The snapshot is written to a temp file, fsynced and atomically
renamed; then the WAL is truncated. Each compaction is numbered: the
snapshot's first frame is ``("checkpoint", n)`` and so is the first
frame of the WAL begun after it, so a WAL belongs to exactly one
snapshot. A crash between the rename and the truncation leaves the new
snapshot beside the old WAL — records already folded into it — and the
stamps tell them apart: :meth:`MasterJournal.load` replays a WAL only
under the snapshot it was begun for.

Appends flush to the OS (the simulated master death is process-level,
not kernel-level, so page-cache durability is the honest equivalent of
the paper's local-disk WAL; an ``fsync`` per record would only model a
power failure we never inject).
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Iterable, List, Optional, Tuple

_FRAME = struct.Struct(">II")

#: Bytes of framing (length + crc32) ahead of each pickled payload —
#: exported for :mod:`repro.dist.segments`, which preads frames back by
#: recorded (offset, length) and must skip the header.
FRAME_HEADER_BYTES = _FRAME.size

SNAPSHOT_FILE = "snapshot.bin"
WAL_FILE = "wal.bin"


def _stamp(checkpoint: int) -> Tuple[str, int]:
    """The frame that opens checkpoint ``checkpoint``'s snapshot and WAL."""
    return ("checkpoint", checkpoint)


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

    One appender: the master's event loop. ``appended`` counts records
    appended *by this instance* (stamps not included) — a recovered
    master's journal starts its own count, which is what the master-kill
    fault injection keys on (kill after N records of *this* incarnation).
    Opening a directory whose WAL was not begun under its snapshot (the
    compaction that wrote the snapshot died before truncating) begins a
    fresh one: :meth:`load` has already ignored the stale records.
    """

    def __init__(self, dirpath: str):
        self.dirpath = dirpath
        os.makedirs(dirpath, exist_ok=True)
        self.snapshot_path = os.path.join(dirpath, SNAPSHOT_FILE)
        self.wal_path = os.path.join(dirpath, WAL_FILE)
        stamp = read_records(self.snapshot_path)[:1] or [_stamp(0)]
        self._checkpoint = stamp[0][1]
        if read_records(self.wal_path)[:1] == stamp:
            self._wal = open(self.wal_path, "ab")
        else:
            self._begin_wal()
        self.appended = 0

    def _begin_wal(self) -> None:
        self._wal = open(self.wal_path, "wb")
        self._wal.write(pack_frame(_stamp(self._checkpoint)))
        self._wal.flush()

    def append(self, record: Any) -> int:
        """Durably append one record; returns this instance's append count."""
        self._wal.write(pack_frame(record))
        self._wal.flush()
        self.appended += 1
        return self.appended

    def write_snapshot(self, records: Iterable[Any]) -> None:
        """Atomically replace the snapshot and truncate the WAL.

        ``records`` is the compacted sequence recovery will ``apply``,
        written to a temp file, fsynced and renamed over the snapshot — a
        crash mid-write never corrupts the one already there. The WAL
        truncation happens only after the rename lands, and the fresh WAL
        opens with the new snapshot's stamp.
        """
        self._checkpoint += 1
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "wb") as tmp:
            tmp.write(pack_frame(_stamp(self._checkpoint)))
            for record in records:
                tmp.write(pack_frame(record))
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, self.snapshot_path)
        self._wal.close()
        self._begin_wal()

    def close(self) -> None:
        try:
            self._wal.close()
        except OSError:
            pass

    @staticmethod
    def load(dirpath: str) -> Optional[List[Any]]:
        """Snapshot records + WAL tail for recovery, stamps stripped.

        Returns None when no snapshot was ever written: a run checkpoints
        before it starts a process, so a master without one cannot be
        resumed. The WAL tail is replayed only when it opens with the
        snapshot's stamp; otherwise its records are already in the
        snapshot. A torn final WAL record is silently dropped, but a bad
        frame *inside* either file raises
        :class:`~repro.errors.JournalCorrupt` rather than resuming from
        a silently truncated history (see :func:`scan_frames`).
        """
        if not os.path.exists(os.path.join(dirpath, SNAPSHOT_FILE)):
            return None
        snapshot, wal = (
            read_records(os.path.join(dirpath, name), strict=True)
            for name in (SNAPSHOT_FILE, WAL_FILE)
        )
        records = snapshot[1:]
        if wal[:1] == snapshot[:1]:
            records += wal[1:]
        return records
