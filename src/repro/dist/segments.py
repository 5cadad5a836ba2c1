"""Disk-backed layered bag storage for the dist shards.

A :class:`SegmentBagStore` keeps every chunk a shard has ever accepted in
**append-only segment files** and only a bounded *hot tail* of recent
payloads in memory, so a shard's dataset ceiling becomes its disk, not
its RAM. The layering works because of two properties the dist engine
already has: chunks are immutable once inserted, and id-keyed inserts
are idempotent (:class:`repro.dist.replica.RepBag`) — so a chunk can be
written to disk once, evicted from memory freely, and faulted back in by
``(segment, offset, length)`` whenever a consumer or a resync needs it.

On-disk layout, per shard, under one segment directory:

* ``<safe>.<n>.seg`` — segment ``n`` of a bag ("safe" is a sanitized
  bag-id stem). Each file is a run of ``length(4) | crc32(4) | pickle``
  frames (the exact framing of :mod:`repro.dist.journal`, via its shared
  :func:`~repro.dist.journal.pack_frame` / ``scan_frames`` helpers),
  one frame per ``(chunk_id, payload)``. The highest-numbered file of a
  bag is its *open tail*: inserts append to it and it rolls into a
  sealed segment once it reaches the segment target size (or the bag is
  sealed). Sealed segments are immutable — they are the unit of replica
  shipping on resync.
* ``index/`` — a compact write-ahead index of the *metadata* that file
  scanning cannot reconstruct: bag registry, segment seals, bag seals,
  consumed-chunk markers and removal-log dedup tails, rewinds and
  discards. Chunk membership itself is **derived from the segment
  files** on reopen, never from the index, so inserts cost one
  ``os.write`` and no index traffic.

Torn-tail policy — and why it differs from the journal's: the journal
treats a torn frame as EOF because a WAL record that never fully landed
describes an effect that never happened. A segment file's torn frame is
instead **physically truncated** on reopen, because the file will be
appended to again — leaving garbage mid-file would corrupt every later
frame. Both are honest under the injected process-kill fault model:
appends go straight to the OS via unbuffered ``os.write`` *before* the
op is acknowledged, so an acked insert survives ``os._exit`` and a torn
frame can only belong to an op nobody was ever told succeeded.
(:mod:`repro.storage.filebag` documents the third variant: its uvarint
format predates this module and treats truncation as an *error*, because
its files are sealed artifacts, not live append targets.)

Durability ordering per op: chunk frames land on disk first, then the
index record (consume markers, dedup tails) is flushed, then the RPC is
acknowledged. Replay on reopen is tolerant and monotone — index records
referencing ids whose frames never landed are dropped (the op they
describe was never acknowledged), later dedup seqs win — mirroring
:meth:`RepBag.merge_snapshot`'s monotonicity rules. The index keeps a
revision watermark in its snapshot header so a stale WAL tail (crash
between snapshot rename and WAL truncation) is never replayed twice.

Compaction (:meth:`SegmentBagStore.finalize_bag`) reclaims the disk a
consumed-heavy finished bag still pins: the live frames are copied raw
into fresh segments numbered *above* every old one, the new files are
fsynced, a ``("compacted", bag_id, base)`` index record declares every
segment numbered below ``base`` dead, and only then are the old files
unlinked. Each crash window is safe by construction: before the record,
reopen scans old files first (lower numbers win the first-occurrence
membership race) and the half-written copies are inert duplicates;
after the record, reopen unlinks whatever stale files the crash left
behind. Reads page through the same layering via
:meth:`SegmentBag.read_page`, so a refill of a spilled bag never holds
more than one page of payloads resident.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import re
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import BagSealedError
from repro.dist.journal import FRAME_HEADER_BYTES, pack_frame, read_records, scan_frames

#: chunk location: (segment number, frame offset, frame length).
Loc = Tuple[int, int, int]

INDEX_DIR = "index"
INDEX_SNAPSHOT = "index-snapshot.bin"
INDEX_WAL = "index-wal.bin"

_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]")
_SEG_RE = re.compile(r"^(?P<safe>.+)\.(?P<num>\d{6})\.seg$")


def safe_name(bag_id: str) -> str:
    """Filesystem-safe, collision-resistant stem for a bag id."""
    digest = hashlib.blake2s(bag_id.encode("utf-8"), digest_size=6).hexdigest()
    stem = _SAFE_RE.sub("_", bag_id)[:48]
    return f"{stem}-{digest}"


class _IndexLog:
    """The store's compact metadata WAL (snapshot + log, journal framing).

    Records are framed ``(rev, payload)`` with a per-store monotone
    revision; :meth:`compact` stamps the folded revision into the
    snapshot header so :meth:`load` can skip a stale WAL tail left by a
    crash between the snapshot rename and the WAL truncation — the same
    hazard :class:`repro.dist.journal.MasterJournal` documents, closed
    here with an explicit watermark because segment-index records
    (rewind, discard) are not idempotent under re-replay.
    """

    def __init__(self, dirpath: str, start_rev: int = 0):
        os.makedirs(dirpath, exist_ok=True)
        self.snapshot_path = os.path.join(dirpath, INDEX_SNAPSHOT)
        self.wal_path = os.path.join(dirpath, INDEX_WAL)
        self.rev = start_rev
        self.appended_since_compact = 0
        self._wal = open(self.wal_path, "ab")

    def append(self, record: Any) -> None:
        self.rev += 1
        self._wal.write(pack_frame((self.rev, record)))
        self._wal.flush()
        self.appended_since_compact += 1

    def compact(self, records: List[Any]) -> None:
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "wb") as tmp:
            tmp.write(pack_frame({"rev": self.rev}))
            for record in records:
                tmp.write(pack_frame(record))
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, self.snapshot_path)
        self._wal.close()
        self._wal = open(self.wal_path, "wb")
        self.appended_since_compact = 0

    def close(self) -> None:
        try:
            self._wal.close()
        except OSError:
            pass

    @staticmethod
    def load(dirpath: str) -> Tuple[List[Any], int]:
        """(metadata records in chronological order, last revision)."""
        snapshot = read_records(os.path.join(dirpath, INDEX_SNAPSHOT))
        wal = read_records(os.path.join(dirpath, INDEX_WAL))
        base_rev = 0
        records: List[Any] = []
        if snapshot:
            base_rev = int(snapshot[0].get("rev", 0))
            records = list(snapshot[1:])
        last_rev = base_rev
        for rev, record in wal:
            if rev > base_rev:
                records.append(record)
            last_rev = max(last_rev, rev)
        return records, last_rev


class _BagState:
    """One bag's registry entry: membership, seals, and removal log."""

    __slots__ = (
        "bag_id", "safe", "pending", "consumed", "order", "sealed",
        "dedup", "sealed_segs", "open_seg", "open_size", "compact_floor",
    )

    def __init__(self, bag_id: str, safe: str):
        self.bag_id = bag_id
        self.safe = safe
        #: Insertion-ordered, and an OrderedDict because removal pops
        #: from the front (see :class:`repro.dist.replica.RepBag`).
        self.pending: "OrderedDict[str, Loc]" = OrderedDict()
        self.consumed: Dict[str, Loc] = {}
        self.order: List[str] = []
        self.sealed = False
        #: client -> (seq, chunk ids, sealed-at-serve); payloads fault in.
        self.dedup: Dict[str, Tuple[int, List[str], bool]] = {}
        self.sealed_segs: Set[int] = set()
        self.open_seg: Optional[int] = None
        self.open_size = 0
        #: segments numbered below this are dead (compacted away).
        self.compact_floor = 0


class SegmentBag:
    """The :class:`repro.dist.replica.RepBag` surface over one bag's
    layered state. All methods delegate to the owning store, which holds
    the lock, the hot cache, the fds, and the index."""

    def __init__(self, store: "SegmentBagStore", state: _BagState):
        self._store = store
        self._state = state
        self.bag_id = state.bag_id

    # -- write side ----------------------------------------------------------

    def insert_id(self, chunk_id: str, chunk: Any) -> None:
        store, s = self._store, self._state
        with store._lock:
            store._insert_locked(s, chunk_id, chunk)

    def seal(self) -> None:
        store, s = self._store, self._state
        with store._lock:
            s.sealed = True
            store._roll_locked(s)
            store._index.append(("seal", s.bag_id))
            store._maybe_compact_locked()

    @property
    def sealed(self) -> bool:
        with self._store._lock:
            return self._state.sealed

    # -- read side -------------------------------------------------------------

    def remove_batch(
        self, count: int, client_id: str, seq: int
    ) -> Tuple[List[Tuple[str, Any]], bool]:
        """Pop up to ``count`` chunks; idempotent per (client, seq).

        Mirrors :meth:`RepBag.remove_batch` exactly — including not
        recording empty replies (see the safety note there) — but the
        dedup tail stores chunk *ids*; a retry faults the payloads back
        in from the segment files.
        """
        store, s = self._store, self._state
        with store._lock:
            recorded = s.dedup.get(client_id)
            if recorded is not None and recorded[0] == seq:
                pairs = [(cid, store._fetch_locked(s, cid)) for cid in recorded[1]]
                return pairs, recorded[2]
            pairs: List[Tuple[str, Any]] = []
            while s.pending and len(pairs) < count:
                chunk_id, loc = s.pending.popitem(last=False)
                s.consumed[chunk_id] = loc
                pairs.append((chunk_id, store._fetch_locked(s, chunk_id)))
                store._cache_drop_locked(s.bag_id, chunk_id)
            if pairs:
                ids = [cid for cid, _ in pairs]
                s.dedup[client_id] = (seq, ids, s.sealed)
                store._index.append(("removal", s.bag_id, client_id, seq, ids, s.sealed))
                store._maybe_compact_locked()
            return pairs, s.sealed

    def apply_removals(
        self, client_id: str, seq: int, pairs: List[Tuple[str, Any]], sealed: bool
    ) -> None:
        """Apply a removal record shipped by the serving replica.

        Same monotone rules as :meth:`RepBag.apply_removals`; a chunk
        arriving here before its insert fan-out is appended to the tail
        first so the consumed marker always has a frame behind it.
        """
        store, s = self._store, self._state
        with store._lock:
            ids: List[str] = []
            for chunk_id, chunk in pairs:
                ids.append(chunk_id)
                if chunk_id in s.consumed:
                    continue
                if chunk_id in s.pending:
                    s.consumed[chunk_id] = s.pending.pop(chunk_id)
                    store._cache_drop_locked(s.bag_id, chunk_id)
                else:
                    loc = store._append_chunk_locked(s, chunk_id, chunk)
                    s.order.append(chunk_id)
                    s.consumed[chunk_id] = loc
            recorded = s.dedup.get(client_id)
            if recorded is None or recorded[0] <= seq:
                s.dedup[client_id] = (seq, ids, sealed)
            store._index.append(("removal", s.bag_id, client_id, seq, ids, sealed))
            store._maybe_compact_locked()

    # -- bag API extras --------------------------------------------------------

    def read_page(self, cursor: int, max_bytes: int) -> Tuple[List[Any], int]:
        """One bounded page of the bag, non-destructively, in ``order``.

        ``cursor`` is an index into the bag's stable chunk order; the
        returned cursor resumes exactly where this page stopped, and an
        empty page means the end was reached (a cursor past the end is
        answered, not rejected — the caller may race a concurrent
        discard). Pages are bounded by on-disk frame length but always
        carry at least one chunk, so an oversized frame degrades to a
        one-chunk page instead of stalling the reader.
        """
        store, s = self._store, self._state
        with store._lock:
            cursor = max(0, int(cursor))
            chunks: List[Any] = []
            used = 0
            while cursor < len(s.order):
                cid = s.order[cursor]
                size = store._loc_of(s, cid)[2]
                if chunks and used + size > max_bytes:
                    break
                chunks.append(store._fetch_locked(s, cid))
                used += size
                cursor += 1
            return chunks, cursor

    def remaining(self) -> int:
        with self._store._lock:
            return len(self._state.pending)

    def size(self) -> int:
        s = self._state
        with self._store._lock:
            return len(s.pending) + len(s.consumed)

    def rewind(self) -> None:
        store, s = self._store, self._state
        with store._lock:
            locs = dict(s.consumed)
            locs.update(s.pending)
            s.pending = OrderedDict((cid, locs[cid]) for cid in s.order)
            s.consumed = {}
            s.dedup = {}
            store._index.append(("rewind", s.bag_id))
            store._maybe_compact_locked()

    def discard(self) -> None:
        store, s = self._store, self._state
        with store._lock:
            store._drop_files_locked(s)
            s.pending = OrderedDict()
            s.consumed = {}
            s.order = []
            s.dedup = {}
            s.sealed = False
            s.sealed_segs = set()
            s.open_seg = None
            s.open_size = 0
            s.compact_floor = 0  # numbering restarts; the old floor is moot
            store._index.append(("discard", s.bag_id))
            store._maybe_compact_locked()

    def __len__(self) -> int:
        return self.remaining()

class SegmentBagStore:
    """Catalog of layered bags for one shard process.

    ``resident_bytes`` bounds the hot cache (None = unbounded; chunks
    still spill to disk, nothing is evicted). ``reopen=True`` rebuilds
    state from an intact segment directory — CRC-validating every file,
    physically truncating torn tails — which is how an r=1 shard respawn
    comes back with zero data loss and zero family resets.
    """

    def __init__(
        self,
        dirpath: str,
        resident_bytes: Optional[int] = None,
        reopen: bool = False,
        segment_target_bytes: Optional[int] = None,
        compact_every: int = 2048,
    ):
        self.dirpath = dirpath
        os.makedirs(dirpath, exist_ok=True)
        self._lock = threading.RLock()
        self._budget = resident_bytes
        if segment_target_bytes is not None:
            self._seg_target = segment_target_bytes
        elif resident_bytes is not None:
            self._seg_target = max(64 * 1024, resident_bytes // 4)
        else:
            self._seg_target = 1 << 20
        self.compact_every = compact_every
        self._bags: Dict[str, SegmentBag] = {}
        self._states: Dict[str, _BagState] = {}
        self._fds: Dict[Tuple[str, int], int] = {}
        # hot cache: (bag_id, chunk_id) -> payload, insertion-ordered (FIFO
        # eviction); sizes tracked as on-disk frame length.
        self._hot: Dict[Tuple[str, str], Any] = {}
        self._hot_sizes: Dict[Tuple[str, str], int] = {}
        self._resident = 0
        self._peak = 0
        self.segments_written = 0
        self.spilled_bytes = 0
        self.evictions = 0
        self.faults = 0
        self.segments_compacted = 0
        self.bytes_reclaimed = 0
        #: fault-injection hook: called with the stage name ("written",
        #: "indexed") at each crash window inside finalize_bag.
        self.compaction_kill = None
        if not reopen:
            self._wipe()
        index_records: List[Any] = []
        rev = 0
        if reopen:
            index_records, rev = _IndexLog.load(os.path.join(dirpath, INDEX_DIR))
        self._index = _IndexLog(os.path.join(dirpath, INDEX_DIR), start_rev=rev)
        if reopen:
            self._reopen(index_records)

    # -- store catalog ---------------------------------------------------------

    def ensure(self, bag_id: str) -> SegmentBag:
        with self._lock:
            if bag_id not in self._bags:
                state = _BagState(bag_id, safe_name(bag_id))
                self._states[bag_id] = state
                self._bags[bag_id] = SegmentBag(self, state)
                self._index.append(("ensure", bag_id, state.safe))
            return self._bags[bag_id]

    def get(self, bag_id: str) -> SegmentBag:
        return self.ensure(bag_id)

    def bag_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._bags)

    def __contains__(self, bag_id: str) -> bool:
        with self._lock:
            return bag_id in self._bags

    # -- segment shipping (resync) ---------------------------------------------

    def pull(self, bag_ids: List[str]) -> Dict[str, Dict[str, Any]]:
        """Package bags for re-replication: sealed segments travel as raw
        file bytes; only open-tail chunks are faulted individually."""
        packages: Dict[str, Dict[str, Any]] = {}
        for bag_id in bag_ids:
            self.ensure(bag_id)
            s = self._states[bag_id]
            with self._lock:
                segments: List[Tuple[int, bytes]] = []
                for n in sorted(s.sealed_segs):
                    with open(self._path(s, n), "rb") as fobj:
                        segments.append((n, fobj.read()))
                loose = {
                    cid: self._fetch_locked(s, cid)
                    for cid in s.order
                    if self._loc_of(s, cid)[0] not in s.sealed_segs
                }
                packages[bag_id] = {
                    "sealed": s.sealed,
                    "order": list(s.order),
                    "consumed": list(s.consumed),
                    "dedup": {
                        client: (seq, list(ids), sealed)
                        for client, (seq, ids, sealed) in s.dedup.items()
                    },
                    "segments": segments,
                    "loose": loose,
                }
        return packages

    def push(self, packages: Dict[str, Dict[str, Any]]) -> None:
        """Install shipped packages: each sealed segment that contains at
        least one unknown chunk is written verbatim as a new local sealed
        segment (frames re-validated); metadata merges are monotone, so a
        push racing live traffic is safe for the same reasons
        :meth:`repro.dist.replica.RepBag.merge_snapshot` is."""
        for bag_id, pkg in packages.items():
            self.ensure(bag_id)
            s = self._states[bag_id]
            with self._lock:
                incoming: Dict[str, Loc] = {}
                for _orig_n, blob in pkg["segments"]:
                    entries = [
                        (off, end, record)
                        for off, end, record in scan_frames(io.BytesIO(blob))
                    ]
                    fresh = [
                        record[0]
                        for _off, _end, record in entries
                        if record[0] not in s.pending
                        and record[0] not in s.consumed
                        and record[0] not in incoming
                    ]
                    if not fresh:
                        continue
                    n = self._alloc_seg_locked(s)
                    fd = self._fd_locked(s, n)
                    os.write(fd, blob)
                    self.spilled_bytes += len(blob)
                    s.sealed_segs.add(n)
                    self.segments_written += 1
                    self._index.append(("seg_sealed", bag_id, n))
                    for off, end, record in entries:
                        incoming.setdefault(record[0], (n, off, end - off))
                for cid in pkg["order"]:
                    if cid in s.pending or cid in s.consumed:
                        continue
                    if cid in incoming:
                        loc = incoming[cid]
                    elif cid in pkg["loose"]:
                        loc = self._append_chunk_locked(s, cid, pkg["loose"][cid])
                    else:
                        continue
                    s.pending[cid] = loc
                    s.order.append(cid)
                moved = []
                for cid in pkg["consumed"]:
                    if cid in s.pending:
                        s.consumed[cid] = s.pending.pop(cid)
                        self._cache_drop_locked(bag_id, cid)
                        moved.append(cid)
                if moved:
                    self._index.append(("consume", bag_id, moved))
                if pkg["sealed"] and not s.sealed:
                    s.sealed = True
                    self._index.append(("seal", bag_id))
                for client, (seq, ids, sealed) in pkg["dedup"].items():
                    recorded = s.dedup.get(client)
                    if recorded is None or recorded[0] < seq:
                        s.dedup[client] = (seq, list(ids), sealed)
                        self._index.append(("removal", bag_id, client, seq, list(ids), sealed))
                self._maybe_compact_locked()

    # -- compaction ------------------------------------------------------------

    def finalize_bag(self, bag_id: str) -> Tuple[int, int]:
        """Compact a finished bag: rewrite only its live frames, drop the rest.

        Returns ``(segments_compacted, bytes_reclaimed)`` for this call —
        ``(0, 0)`` when there is nothing to do (unknown bag, not sealed,
        nothing consumed yet), which makes master-side retries after a
        shard death idempotent.

        Durability order (each window crash-safe against :meth:`_reopen`):

        1. live frames are copied **raw** (frames are self-contained
           ``(chunk_id, payload)`` pickles) into fresh segments numbered
           above every old one, and the new files are fsynced — a crash
           here leaves inert duplicates that lose the lower-number-wins
           membership race on reopen;
        2. ``seg_sealed`` records for the new segments, then one
           ``("compacted", bag_id, base)`` record marking every segment
           below ``base`` dead — from this point reopen serves the new
           copies and unlinks the stale files itself;
        3. the old files are unlinked.

        The caller must guarantee no consumer will ever rewind this bag
        again without a refill: compaction physically drops the consumed
        frames, so a later :meth:`SegmentBag.rewind` would resurrect only
        the live ones. The dist master only finalizes bags whose every
        consumer family finished, and escalates to a refill if one of
        those families is later reset.
        """
        with self._lock:
            s = self._states.get(bag_id)
            if s is None or not s.sealed or not s.consumed:
                return (0, 0)
            old_segs = set(s.sealed_segs)
            if s.open_seg is not None:
                old_segs.add(s.open_seg)
            if not old_segs:
                return (0, 0)
            old_bytes = 0
            for n in old_segs:
                try:
                    old_bytes += os.path.getsize(self._path(s, n))
                except OSError:
                    pass
            live = [cid for cid in s.order if cid in s.pending]
            base = self._alloc_seg_locked(s)
            new_locs: Dict[str, Loc] = {}
            new_segs: List[int] = []
            new_bytes = 0
            n, size = base, 0
            for cid in live:
                seg, off, length = s.pending[cid]
                frame = os.pread(self._fd_locked(s, seg), length, off)
                if size and size + len(frame) > self._seg_target:
                    n += 1
                    size = 0
                fd = self._fd_locked(s, n)
                if size == 0:
                    # A retry after an injected crash may find a
                    # half-written copy from the failed attempt under the
                    # same number; start clean so offsets stay exact.
                    os.ftruncate(fd, 0)
                    new_segs.append(n)
                os.write(fd, frame)
                new_locs[cid] = (n, size, len(frame))
                size += len(frame)
                new_bytes += len(frame)
            for n2 in new_segs:
                os.fsync(self._fds[(s.safe, n2)])
            if self.compaction_kill is not None:
                self.compaction_kill("written")
            for n2 in new_segs:
                self._index.append(("seg_sealed", bag_id, n2))
            self._index.append(("compacted", bag_id, base))
            s.pending = OrderedDict((cid, new_locs[cid]) for cid in live)
            s.consumed = {}
            s.order = list(live)
            s.dedup = {}  # tails reference dropped frames; consumers are done
            s.sealed_segs = set(new_segs)
            s.open_seg = None
            s.open_size = 0
            s.compact_floor = base
            if self.compaction_kill is not None:
                self.compaction_kill("indexed")
            for old in old_segs:
                fd = self._fds.pop((s.safe, old), None)
                if fd is not None:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                try:
                    os.unlink(self._path(s, old))
                except FileNotFoundError:
                    pass
            self.segments_compacted += len(old_segs)
            self.bytes_reclaimed += max(0, old_bytes - new_bytes)
            self.segments_written += len(new_segs)
            self.spilled_bytes += new_bytes
            self._maybe_compact_locked()
            return (len(old_segs), max(0, old_bytes - new_bytes))

    # -- stats / lifecycle -----------------------------------------------------

    def spill_stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "segments_written": self.segments_written,
                "spilled_bytes": self.spilled_bytes,
                "evictions": self.evictions,
                "faults": self.faults,
                "segments_compacted": self.segments_compacted,
                "bytes_reclaimed": self.bytes_reclaimed,
                "resident_peak_bytes": self._peak,
            }

    def close(self) -> None:
        with self._lock:
            for fd in self._fds.values():
                try:
                    os.close(fd)
                except OSError:
                    pass
            self._fds = {}
            self._index.close()

    # -- internals: files ------------------------------------------------------

    def _path(self, s: _BagState, n: int) -> str:
        return os.path.join(self.dirpath, f"{s.safe}.{n:06d}.seg")

    def _fd_locked(self, s: _BagState, n: int) -> int:
        key = (s.safe, n)
        fd = self._fds.get(key)
        if fd is None:
            fd = os.open(self._path(s, n), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            self._fds[key] = fd
        return fd

    def _alloc_seg_locked(self, s: _BagState) -> int:
        used = set(s.sealed_segs)
        if s.open_seg is not None:
            used.add(s.open_seg)
        return max(used) + 1 if used else 0

    def _append_chunk_locked(self, s: _BagState, chunk_id: str, chunk: Any) -> Loc:
        """Durably append one chunk frame; returns its location. Unbuffered
        ``os.write`` means the bytes are in the page cache — and survive a
        process kill — before the caller can acknowledge anything."""
        if s.open_seg is None:
            s.open_seg = self._alloc_seg_locked(s)
            s.open_size = 0
        frame = pack_frame((chunk_id, chunk))
        fd = self._fd_locked(s, s.open_seg)
        os.write(fd, frame)
        loc = (s.open_seg, s.open_size, len(frame))
        s.open_size += len(frame)
        self.spilled_bytes += len(frame)
        if s.open_size >= self._seg_target:
            self._roll_locked(s)
        return loc

    def _roll_locked(self, s: _BagState) -> None:
        """Seal the open tail: it becomes an immutable, shippable segment."""
        if s.open_seg is None or s.open_size == 0:
            return
        s.sealed_segs.add(s.open_seg)
        self.segments_written += 1
        self._index.append(("seg_sealed", s.bag_id, s.open_seg))
        s.open_seg = None
        s.open_size = 0

    def _drop_files_locked(self, s: _BagState) -> None:
        segs = set(s.sealed_segs)
        if s.open_seg is not None:
            segs.add(s.open_seg)
        for n in segs:
            fd = self._fds.pop((s.safe, n), None)
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
            try:
                os.unlink(self._path(s, n))
            except FileNotFoundError:
                pass
        for cid in s.order:
            self._cache_drop_locked(s.bag_id, cid)

    # -- internals: hot cache --------------------------------------------------

    def _insert_locked(self, s: _BagState, chunk_id: str, chunk: Any) -> None:
        if s.sealed:
            raise BagSealedError(f"insert into sealed bag {s.bag_id!r}")
        if chunk_id in s.pending or chunk_id in s.consumed:
            return  # duplicate delivery (client retry / replayed fan-out)
        loc = self._append_chunk_locked(s, chunk_id, chunk)
        s.pending[chunk_id] = loc
        s.order.append(chunk_id)
        self._cache_put_locked(s.bag_id, chunk_id, chunk, loc[2])

    def _cache_put_locked(self, bag_id: str, chunk_id: str, chunk: Any, size: int) -> None:
        key = (bag_id, chunk_id)
        if key in self._hot:
            return
        self._hot[key] = chunk
        self._hot_sizes[key] = size
        self._resident += size
        self._peak = max(self._peak, self._resident)
        if self._budget is None:
            return
        while self._resident > self._budget and self._hot:
            victim = next(iter(self._hot))
            self._resident -= self._hot_sizes.pop(victim)
            del self._hot[victim]
            self.evictions += 1

    def _cache_drop_locked(self, bag_id: str, chunk_id: str) -> None:
        key = (bag_id, chunk_id)
        if key in self._hot:
            self._resident -= self._hot_sizes.pop(key)
            del self._hot[key]

    def _loc_of(self, s: _BagState, chunk_id: str) -> Loc:
        loc = s.pending.get(chunk_id)
        if loc is None:
            loc = s.consumed[chunk_id]
        return loc

    def _fetch_locked(self, s: _BagState, chunk_id: str) -> Any:
        key = (s.bag_id, chunk_id)
        if key in self._hot:
            return self._hot[key]
        n, offset, length = self._loc_of(s, chunk_id)
        fd = self._fd_locked(s, n)
        data = os.pread(fd, length, offset)
        cid, chunk = pickle.loads(data[FRAME_HEADER_BYTES:])
        if cid != chunk_id:
            raise IOError(
                f"segment corruption: wanted {chunk_id!r} at "
                f"{self._path(s, n)}:{offset}, found {cid!r}"
            )
        self.faults += 1
        return chunk

    # -- internals: index ------------------------------------------------------

    def _maybe_compact_locked(self) -> None:
        if self._index.appended_since_compact < self.compact_every:
            return
        records: List[Any] = []
        for bag_id in sorted(self._states):
            s = self._states[bag_id]
            records.append(("ensure", bag_id, s.safe))
            if s.compact_floor:
                # Normally the stale files are already unlinked by the
                # time a fold runs, but an interrupted finalize may have
                # left them behind; the floor keeps reopen from letting
                # their lower-numbered frames win the membership race.
                records.append(("compacted", bag_id, s.compact_floor))
            for n in sorted(s.sealed_segs):
                records.append(("seg_sealed", bag_id, n))
            if s.consumed:
                records.append(("consume", bag_id, list(s.consumed)))
            if s.sealed:
                records.append(("seal", bag_id))
            for client, (seq, ids, sealed) in s.dedup.items():
                records.append(("removal", bag_id, client, seq, list(ids), sealed))
        self._index.compact(records)

    def _wipe(self) -> None:
        """Fresh start (r>1 respawn: resync repopulates; stale segments
        must not resurrect)."""
        for name in os.listdir(self.dirpath):
            path = os.path.join(self.dirpath, name)
            if name == INDEX_DIR:
                for sub in os.listdir(path):
                    try:
                        os.unlink(os.path.join(path, sub))
                    except OSError:
                        pass
            elif os.path.isfile(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def _reopen(self, records: List[Any]) -> None:
        """Rebuild from disk: membership from CRC-validated segment files
        (torn tails physically truncated), metadata from the index replay.

        The replay is tolerant — records referencing chunk ids whose
        frames never landed are dropped (the op they describe was never
        acknowledged) — and relies on chunk ids never being reused
        (clients stamp monotone ``client#n`` counters).
        """
        # Pass 1: registry + segment seals (monotone, order-free) + the
        # compaction floor. The floor *is* order-sensitive: a discard
        # resets a bag's segment numbering to zero, so a floor recorded
        # before the discard must not condemn the files written after it.
        sealed_segs: Dict[str, Set[int]] = {}
        compact_floors: Dict[str, int] = {}
        for record in records:
            if record[0] == "ensure":
                _, bag_id, safe = record
                if bag_id not in self._states:
                    state = _BagState(bag_id, safe)
                    self._states[bag_id] = state
                    self._bags[bag_id] = SegmentBag(self, state)
            elif record[0] == "seg_sealed":
                sealed_segs.setdefault(record[1], set()).add(record[2])
            elif record[0] == "compacted":
                floor = compact_floors.get(record[1], 0)
                compact_floors[record[1]] = max(floor, record[2])
            elif record[0] == "discard":
                compact_floors.pop(record[1], None)
        # Pass 2: scan segment files -> membership (all pending for now).
        by_safe = {s.safe: s for s in self._states.values()}
        seg_files: Dict[str, List[int]] = {}
        for name in sorted(os.listdir(self.dirpath)):
            match = _SEG_RE.match(name)
            if not match:
                continue
            s = by_safe.get(match.group("safe"))
            if s is None:
                continue  # stray file from a bag the index never registered
            seg_files.setdefault(s.safe, []).append(int(match.group("num")))
        for s in self._states.values():
            numbers = sorted(seg_files.get(s.safe, []))
            floor = compact_floors.get(s.bag_id, 0)
            if floor:
                # Files a compaction declared dead but a crash left on
                # disk: finish the unlink the dying process never ran.
                s.compact_floor = floor
                for n in [n for n in numbers if n < floor]:
                    try:
                        os.unlink(self._path(s, n))
                    except OSError:
                        pass
                numbers = [n for n in numbers if n >= floor]
            entries: List[Tuple[int, int, int, str]] = []  # (n, off, len, cid)
            for n in numbers:
                path = self._path(s, n)
                intact_end = 0
                with open(path, "rb") as fobj:
                    for off, end, record in scan_frames(fobj):
                        entries.append((n, off, end - off, record[0]))
                        intact_end = end
                if intact_end < os.path.getsize(path):
                    os.truncate(path, intact_end)  # torn tail = truncate
            for n, off, length, cid in entries:
                if cid in s.pending:
                    continue
                s.pending[cid] = (n, off, length)
                s.order.append(cid)
            marked = sealed_segs.get(s.bag_id, set())
            s.sealed_segs = {n for n in marked if n in set(numbers)}
            unmarked = [n for n in numbers if n not in s.sealed_segs]
            # At most one open tail; converge extras (unreachable in the
            # normal lifecycle) to sealed.
            for n in unmarked[:-1]:
                s.sealed_segs.add(n)
                self._index.append(("seg_sealed", s.bag_id, n))
            if unmarked:
                s.open_seg = unmarked[-1]
                s.open_size = os.path.getsize(self._path(s, s.open_seg))
        # Pass 3: chronological metadata replay.
        for record in records:
            kind = record[0]
            if kind in ("ensure", "seg_sealed", "compacted"):
                continue
            s = self._states.get(record[1])
            if s is None:
                continue
            if kind == "consume":
                for cid in record[2]:
                    if cid in s.pending:
                        s.consumed[cid] = s.pending.pop(cid)
            elif kind == "removal":
                _, _, client, seq, ids, sealed = record
                for cid in ids:
                    if cid in s.pending:
                        s.consumed[cid] = s.pending.pop(cid)
                recorded = s.dedup.get(client)
                if recorded is None or recorded[0] <= seq:
                    live = [cid for cid in ids if cid in s.consumed]
                    if live == list(ids):
                        s.dedup[client] = (seq, list(ids), sealed)
            elif kind == "seal":
                s.sealed = True
            elif kind == "rewind":
                locs = dict(s.consumed)
                locs.update(s.pending)
                s.pending = OrderedDict(
                    (cid, locs[cid]) for cid in s.order if cid in locs
                )
                s.consumed = {}
                s.dedup = {}
            elif kind == "discard":
                s.consumed = {}
                s.dedup = {}
                s.sealed = False
                s.compact_floor = 0
