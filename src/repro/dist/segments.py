"""The disk backing of the dist shards' bag store.

A :class:`SegmentBacking` keeps every chunk a shard has ever accepted in
**append-only segment files** and only a bounded *hot tail* of recent
payloads in memory, so a shard's dataset ceiling becomes its disk, not
its RAM. It is a *backing* of :class:`repro.dist.bags.BagStore`: it
knows chunks (``put``/``get`` by ``(segment, offset, length)`` ref),
files and durability, and nothing about what a bag is — pending,
consumed, dedup tails and every rule over them are
:class:`repro.dist.bags.Bag`'s. The layering works because of two
properties those bags already have: chunks are immutable once inserted,
and id-keyed inserts are idempotent — so a chunk can be written to disk
once, evicted from memory freely, and faulted back in by location
whenever a consumer or a resync needs it.

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
  scanning cannot reconstruct: the bag transitions the store logs here
  (registry, bag seals, consumed-chunk markers and removal-log dedup
  tails, rewinds and discards) plus this module's own two records
  (segment seals, compaction floors). Chunk membership itself is
  **derived from the segment files** on reopen, never from the index,
  so inserts cost one ``os.write`` and no index traffic.

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
acknowledged. Reopen scans the files for membership and then **replays
the index through the live bag transitions** (:meth:`BagStore.replay`,
with this backing's logging off), so it is tolerant and monotone for
the same reasons live traffic is: a record naming a chunk whose frame
never landed moves nothing (the op it describes was never
acknowledged), later dedup seqs win. The index keeps a revision
watermark in its snapshot header so a stale WAL tail (crash between
snapshot rename and WAL truncation) is never replayed twice.

Compaction (:meth:`SegmentBacking.finalize_bag`) reclaims the disk a
consumed-heavy finished bag still pins: the live frames are copied raw
into fresh segments numbered *above* every old one, the new files are
fsynced, a ``("compacted", bag_id, base)`` index record declares every
segment numbered below ``base`` dead, and only then are the old files
unlinked. Each crash window is safe by construction: before the record,
reopen scans old files first (lower numbers win the first-occurrence
membership race) and the half-written copies are inert duplicates;
after the record, reopen unlinks whatever stale files the crash left
behind. Reads page through the same layering (``Bag.read_page`` sizes
pages by frame length and fetches through :meth:`SegmentBacking.get`),
so a refill of a spilled bag never holds more than one page of payloads
resident.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import re
import shutil
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.dist.bags import BagStore
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

    def __init__(self, dirpath: str):
        os.makedirs(dirpath, exist_ok=True)
        self.snapshot_path = os.path.join(dirpath, INDEX_SNAPSHOT)
        self.wal_path = os.path.join(dirpath, INDEX_WAL)
        #: What the directory already held (nothing, after a wipe), for
        #: the owner to replay; revisions continue from there.
        self.recovered, self.rev = self.load(dirpath)
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


class _BagFiles:
    """One bag's files: which segments exist and which is the open tail."""

    __slots__ = ("safe", "sealed_segs", "open_seg", "open_size", "compact_floor")

    def __init__(self, bag_id: str):
        self.safe = safe_name(bag_id)
        self.sealed_segs: Set[int] = set()
        self.open_seg: Optional[int] = None
        self.open_size = 0
        #: segments numbered below this are dead (compacted away).
        self.compact_floor = 0

    def segs(self) -> Set[int]:
        if self.open_seg is None:
            return set(self.sealed_segs)
        return self.sealed_segs | {self.open_seg}


class SegmentBacking:
    """Segment files, fds, hot cache and metadata index for one shard.

    ``resident_bytes`` bounds the hot cache (None = unbounded; chunks
    still spill to disk, nothing is evicted). ``reopen=True`` rebuilds
    state from an intact segment directory — CRC-validating every file,
    physically truncating torn tails — which is how an r=1 shard respawn
    comes back with zero data loss and zero family resets. Every method
    runs under the attached store's lock.
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
        if not reopen:
            # Fresh start (r>1 respawn: resync repopulates; stale
            # segments must not resurrect).
            shutil.rmtree(dirpath, ignore_errors=True)
        os.makedirs(dirpath, exist_ok=True)
        self._budget = resident_bytes
        if segment_target_bytes is not None:
            self._seg_target = segment_target_bytes
        elif resident_bytes is not None:
            self._seg_target = max(64 * 1024, resident_bytes // 4)
        else:
            self._seg_target = 1 << 20
        self.compact_every = compact_every
        self._files: Dict[str, _BagFiles] = {}
        self._fds: Dict[Tuple[str, int], int] = {}
        # hot cache: (bag_id, chunk_id) -> payload, insertion-ordered (FIFO
        # eviction); sizes tracked as on-disk frame length.
        self._hot: Dict[Tuple[str, str], Any] = {}
        self._hot_sizes: Dict[Tuple[str, str], int] = {}
        self._resident = 0
        self._stats = dict.fromkeys(
            (
                "segments_written", "spilled_bytes", "evictions", "faults",
                "segments_compacted", "bytes_reclaimed", "resident_peak_bytes",
            ),
            0,
        )
        #: fault-injection hook: called with the stage name ("written",
        #: "indexed") at each crash window inside finalize_bag.
        self.compaction_kill: Optional[Callable[[str], None]] = None
        #: True while reopen replays the index: the transitions being
        #: re-run are already on disk, so nothing is logged or touched.
        self._replaying = False
        self._index = _IndexLog(os.path.join(dirpath, INDEX_DIR))

    def attach(self, store: BagStore) -> None:
        """Bind the store whose bags live here: index folds snapshot its
        metadata, and a reopened directory is replayed into it."""
        self._store = store
        self._reopen(self._index.recovered)
        self._index.recovered = []

    # -- chunks ------------------------------------------------------------------

    def put(self, bag_id: str, chunk_id: str, chunk: Any) -> Loc:
        """Durably append one chunk frame and keep it hot. Unbuffered
        ``os.write`` means the bytes are in the page cache — and survive a
        process kill — before the caller can acknowledge anything."""
        f = self._bag_files(bag_id)
        if f.open_seg is None:
            f.open_seg = self._alloc_seg(f)
            f.open_size = 0
        frame = pack_frame((chunk_id, chunk))
        os.write(self._fd(f, f.open_seg), frame)
        loc = (f.open_seg, f.open_size, len(frame))
        f.open_size += len(frame)
        self._stats["spilled_bytes"] += len(frame)
        if f.open_size >= self._seg_target:
            self._roll(bag_id, f)
        self._cache_put(bag_id, chunk_id, chunk, len(frame))
        return loc

    def get(self, bag_id: str, chunk_id: str, loc: Loc) -> Any:
        key = (bag_id, chunk_id)
        if key in self._hot:
            return self._hot[key]
        f = self._bag_files(bag_id)
        n, offset, length = loc
        data = os.pread(self._fd(f, n), length, offset)
        cid, chunk = pickle.loads(data[FRAME_HEADER_BYTES:])
        if cid != chunk_id:
            raise IOError(
                f"segment corruption: wanted {chunk_id!r} at "
                f"{self._path(f, n)}:{offset}, found {cid!r}"
            )
        self._stats["faults"] += 1
        return chunk

    def nbytes(self, loc: Loc) -> int:
        return loc[2]  # pages are bounded by on-disk frame length

    def evict(self, bag_id: str, chunk_id: str) -> None:
        key = (bag_id, chunk_id)
        if key in self._hot:
            self._resident -= self._hot_sizes.pop(key)
            del self._hot[key]

    # -- durability --------------------------------------------------------------

    def log(self, record: Tuple[Any, ...]) -> None:
        """Append one metadata record; fold the log once it grew long."""
        if self._replaying:
            return
        self._index.append(record)
        if self._index.appended_since_compact < self.compact_every:
            return
        records = self._store.metadata()
        for bag_id, f in sorted(self._files.items()):
            if f.compact_floor:
                # Normally the stale files are already unlinked by the
                # time a fold runs, but an interrupted finalize may have
                # left them behind; the floor keeps reopen from letting
                # their lower-numbered frames win the membership race.
                records.append(("compacted", bag_id, f.compact_floor))
            for n in sorted(f.sealed_segs):
                records.append(("seg_sealed", bag_id, n))
        self._index.compact(records)

    def seal(self, bag_id: str) -> None:
        if not self._replaying:
            self._roll(bag_id, self._bag_files(bag_id))

    def drop(self, bag_id: str) -> None:
        """Unlink the bag's files; numbering (and the floor) start over."""
        f = self._files.pop(bag_id, None)
        if f is not None:
            self._unlink(f, f.segs())
        for key in [key for key in self._hot if key[0] == bag_id]:
            self.evict(*key)

    # -- segment shipping (resync) -------------------------------------------------

    def export_chunks(self, bag_id: str, refs: List[Tuple[str, Loc]]):
        """Sealed segments travel as raw file bytes; only open-tail
        chunks are faulted individually."""
        f = self._bag_files(bag_id)
        segments: List[Tuple[int, bytes]] = []
        for n in sorted(f.sealed_segs):
            with open(self._path(f, n), "rb") as fobj:
                segments.append((n, fobj.read()))
        loose = {
            cid: self.get(bag_id, cid, loc)
            for cid, loc in refs
            if loc[0] not in f.sealed_segs
        }
        return segments, loose

    def import_chunks(
        self, bag_id: str, segments: List[Tuple[int, bytes]], known: Callable[[str], bool]
    ) -> Dict[str, Loc]:
        """Write each shipped segment holding at least one unknown chunk
        verbatim as a new local sealed segment (frames re-validated);
        returns where every chunk of the installed segments now lives."""
        f = self._bag_files(bag_id)
        incoming: Dict[str, Loc] = {}
        for _orig_n, blob in segments:
            entries = list(scan_frames(io.BytesIO(blob)))
            if all(known(rec[0]) or rec[0] in incoming for _off, _end, rec in entries):
                continue
            # The open tail stays the highest-numbered file, so file order
            # is chunk order and a reopen's scan reproduces it.
            self._roll(bag_id, f)
            n = self._alloc_seg(f)
            os.write(self._fd(f, n), blob)
            self._stats["spilled_bytes"] += len(blob)
            f.sealed_segs.add(n)
            self._stats["segments_written"] += 1
            self._index.append(("seg_sealed", bag_id, n))
            for off, end, record in entries:
                incoming.setdefault(record[0], (n, off, end - off))
        return incoming

    # -- compaction ----------------------------------------------------------------

    def finalize_bag(
        self, bag_id: str, live: List[Tuple[str, Loc]]
    ) -> Optional[Tuple[List[Loc], int, int]]:
        """Rewrite only the ``live`` frames, drop every other one.

        Returns the live chunks' new locations plus ``(segments
        compacted, bytes reclaimed)``; ``None`` when the bag has no
        files. Durability order (each window crash-safe against
        :meth:`_reopen`):

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
        """
        f = self._bag_files(bag_id)
        old_segs = f.segs()
        if not old_segs:
            return None
        old_bytes = 0
        for n in old_segs:
            try:
                old_bytes += os.path.getsize(self._path(f, n))
            except OSError:
                pass
        base = self._alloc_seg(f)
        new_locs: List[Loc] = []
        new_segs: List[int] = []
        new_bytes = 0
        n, size = base, 0
        for _cid, (seg, off, length) in live:
            frame = os.pread(self._fd(f, seg), length, off)
            if size and size + len(frame) > self._seg_target:
                n += 1
                size = 0
            fd = self._fd(f, n)
            if size == 0:
                # A retry after an injected crash may find a
                # half-written copy from the failed attempt under the
                # same number; start clean so offsets stay exact.
                os.ftruncate(fd, 0)
                new_segs.append(n)
            os.write(fd, frame)
            new_locs.append((n, size, len(frame)))
            size += len(frame)
            new_bytes += len(frame)
        for n2 in new_segs:
            os.fsync(self._fds[(f.safe, n2)])
        if self.compaction_kill is not None:
            self.compaction_kill("written")
        for n2 in new_segs:
            self._index.append(("seg_sealed", bag_id, n2))
        self._index.append(("compacted", bag_id, base))
        f.sealed_segs = set(new_segs)
        f.open_seg = None
        f.open_size = 0
        f.compact_floor = base
        if self.compaction_kill is not None:
            self.compaction_kill("indexed")
        self._unlink(f, old_segs)
        reclaimed = max(0, old_bytes - new_bytes)
        self._stats["segments_compacted"] += len(old_segs)
        self._stats["bytes_reclaimed"] += reclaimed
        self._stats["segments_written"] += len(new_segs)
        self._stats["spilled_bytes"] += new_bytes
        return new_locs, len(old_segs), reclaimed

    # -- stats / lifecycle -----------------------------------------------------

    def spill_stats(self) -> Dict[str, int]:
        return dict(self._stats)

    def close(self) -> None:
        for key in list(self._fds):
            self._close_fd(key)
        self._index.close()

    # -- internals: files ------------------------------------------------------

    def _bag_files(self, bag_id: str) -> _BagFiles:
        f = self._files.get(bag_id)
        if f is None:
            f = self._files[bag_id] = _BagFiles(bag_id)
        return f

    def _path(self, f: _BagFiles, n: int) -> str:
        return os.path.join(self.dirpath, f"{f.safe}.{n:06d}.seg")

    def _fd(self, f: _BagFiles, n: int) -> int:
        key = (f.safe, n)
        fd = self._fds.get(key)
        if fd is None:
            fd = os.open(self._path(f, n), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            self._fds[key] = fd
        return fd

    def _alloc_seg(self, f: _BagFiles) -> int:
        return max(f.segs(), default=-1) + 1

    def _roll(self, bag_id: str, f: _BagFiles) -> None:
        """Seal the open tail: it becomes an immutable, shippable segment."""
        if f.open_seg is None or f.open_size == 0:
            return
        f.sealed_segs.add(f.open_seg)
        self._stats["segments_written"] += 1
        self._index.append(("seg_sealed", bag_id, f.open_seg))
        f.open_seg = None
        f.open_size = 0

    def _close_fd(self, key: Tuple[str, int]) -> None:
        fd = self._fds.pop(key, None)
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass

    def _unlink(self, f: _BagFiles, segs: Set[int]) -> None:
        for n in segs:
            self._close_fd((f.safe, n))
            try:
                os.unlink(self._path(f, n))
            except FileNotFoundError:
                pass

    def _cache_put(self, bag_id: str, chunk_id: str, chunk: Any, size: int) -> None:
        key = (bag_id, chunk_id)
        if key in self._hot:
            return
        self._hot[key] = chunk
        self._hot_sizes[key] = size
        self._resident += size
        self._stats["resident_peak_bytes"] = max(
            self._stats["resident_peak_bytes"], self._resident
        )
        if self._budget is None:
            return
        while self._resident > self._budget and self._hot:
            victim = next(iter(self._hot))
            self._resident -= self._hot_sizes.pop(victim)
            del self._hot[victim]
            self._stats["evictions"] += 1

    def _reopen(self, records: List[Any]) -> None:
        """Rebuild from disk: membership from CRC-validated segment files
        (torn tails physically truncated), metadata by replaying the
        index through the store's live transitions.

        Relies on chunk ids never being reused (clients stamp monotone
        ``client#n`` counters).
        """
        # Pass 1: the bag registry and this module's own records —
        # segment seals and the compaction floor. A discard voids every
        # earlier record of its bag (it reset the bag to empty, unlinked
        # its files and restarted their numbering), so only what follows
        # a bag's last discard is kept, for the files and the replay both.
        bags: Dict[str, _BagFiles] = {}
        replayable: Dict[str, List[Any]] = {}
        for record in records:
            kind, bag_id = record[0], record[1]
            f = bags.get(bag_id)
            if f is None or kind == "discard":
                f = bags[bag_id] = _BagFiles(bag_id)
                replayable[bag_id] = []
            if kind == "seg_sealed":
                f.sealed_segs.add(record[2])
            elif kind == "compacted":
                f.compact_floor = max(f.compact_floor, record[2])
            elif kind not in ("ensure", "discard"):
                replayable[bag_id].append(record)
        # Pass 2: scan segment files -> membership, in first-occurrence
        # order (lower segment numbers win).
        self._files = bags
        by_safe = {f.safe: f for f in bags.values()}
        seg_files: Dict[str, List[int]] = {}
        for name in sorted(os.listdir(self.dirpath)):
            match = _SEG_RE.match(name)
            if match and match.group("safe") in by_safe:
                # (anything else is a stray file from a bag the index
                # never registered)
                seg_files.setdefault(match.group("safe"), []).append(
                    int(match.group("num"))
                )
        self._replaying = True
        for bag_id, f in bags.items():
            numbers = sorted(seg_files.get(f.safe, []))
            # Files a compaction declared dead but a crash left on
            # disk: finish the unlink the dying process never ran.
            self._unlink(f, {n for n in numbers if n < f.compact_floor})
            numbers = [n for n in numbers if n >= f.compact_floor]
            members: List[Tuple[str, Loc]] = []
            for n in numbers:
                path = self._path(f, n)
                intact_end = 0
                with open(path, "rb") as fobj:
                    for off, end, record in scan_frames(fobj):
                        members.append((record[0], (n, off, end - off)))
                        intact_end = end
                if intact_end < os.path.getsize(path):
                    os.truncate(path, intact_end)  # torn tail = truncate
            f.sealed_segs &= set(numbers)
            unmarked = [n for n in numbers if n not in f.sealed_segs]
            # At most one open tail; converge extras (unreachable in the
            # normal lifecycle) to sealed.
            for n in unmarked[:-1]:
                f.sealed_segs.add(n)
                self._index.append(("seg_sealed", bag_id, n))
            if unmarked:
                f.open_seg = unmarked[-1]
                f.open_size = os.path.getsize(self._path(f, f.open_seg))
            # Pass 3: the bag itself — its chunks, then its logged
            # transitions in order, through the same code that ran them.
            self._store.replay(("adopt", bag_id, members))
            for record in replayable[bag_id]:
                self._store.replay(record)
        self._replaying = False


def SegmentBagStore(dirpath: str, **backing_kwargs: Any) -> BagStore:
    """The shard's bag store over a :class:`SegmentBacking` at ``dirpath``."""
    return BagStore(SegmentBacking(dirpath, **backing_kwargs))
