"""Server-side bag state for the dist storage shards: one state machine.

Every shard process stores its bag copies as **id-keyed chunk sets**, at
any replication level — ``r = 1`` is simply "replicated with an empty
backup set" — and over either *backing*: the chunks live in memory
(:class:`MemoryBacking`, the ref *is* the payload) or in append-only
segment files (:class:`repro.dist.segments.SegmentBacking`, the ref is a
file location). A backing only knows chunks and durability; every rule
about what a bag *is* lives in :class:`Bag`, once. The representation is
what makes replication, and retry through a shard respawn, tractable:

* **inserts are idempotent and commutative** — clients stamp every chunk
  with a unique id (``client#n``) and fan the write out to all ``r``
  replicas; a retried or doubly-delivered insert is a set no-op, and two
  replicas receiving writes in different orders still converge to the
  same chunk *set*;
* **removals are a log, not a pointer** — the primary pops chunks from
  its pending set and ships ``(client, seq, [(chunk_id, payload)...])``
  removal records to its backups *before replying*, so any chunk a
  client has ever been handed is marked consumed on every live replica
  first. Applying a removal record is idempotent (move by id), so
  re-shipping on client retries is safe;
* **promotion needs no state transfer** — a backup already holds the
  chunk set and the removal log (the per-client dedup tails below);
  when the master's epoch push makes it primary, a client retrying an
  unanswered ``remove_batch`` with the same ``seq`` gets the *recorded*
  reply instead of fresh chunks, so a request the dead primary served
  but never acknowledged is never served twice.

Consumed chunks are retained (exactly like ``LocalBag``'s read pointer
never erasing the log), which keeps ``rewind``/``read_page`` trivially
correct and lets :meth:`BagStore.pull` / :meth:`BagStore.push`
re-replicate a respawned shard while live traffic mutates the source.
Four monotone rules make that safe, and each is written exactly once:
presence wins over absence (:meth:`Bag._adopt`), consumed wins over
pending (:meth:`Bag._consume`), the later removal seq wins
(:meth:`Bag._removed`), sealed wins over open (:meth:`Bag.seal`). Live
ops, a package merge racing them, and the segment backing's reopen
replay are all sequences of those same transitions — so it does not
matter whether a concurrent insert, removal or shipped record arrives
before or after a package lands, or whether a record is applied live or
replayed from the index.

The backing contract (all calls arrive under the store's one lock):

``put(bag, chunk_id, chunk) -> ref`` / ``get(bag, chunk_id, ref)`` /
``nbytes(ref)``
    store, fetch and size one chunk;
``evict(bag, chunk_id)``
    the chunk was consumed and need not stay resident;
``log(record)``
    make one metadata transition durable (the records are this module's
    vocabulary: :meth:`BagStore.metadata` writes what
    :meth:`BagStore.replay` reads);
``seal(bag)`` / ``drop(bag)``
    the bag stopped growing / lost everything;
``export_chunks(bag, refs) -> (segments, loose)`` /
``import_chunks(bag, segments, known) -> {chunk_id: ref}``
    the bulk halves of a package: whatever the backing can ship wholesale
    plus the chunks it cannot;
``finalize_bag(bag, live) -> (refs, segments, bytes) | None``
    rewrite only the live chunks, reclaiming the rest;
``attach(store)``, ``spill_stats()``, ``close()``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import islice
from typing import Any, Dict, List, Tuple

from repro.errors import BagSealedError

#: A removal-log reply: (chunk ids + payloads popped, bag sealed at serve).
RemovalRecord = Tuple[List[Tuple[str, Any]], bool]

_ABSENT = object()


class MemoryBacking:
    """Chunks stay in the shard's heap: the ref *is* the payload."""

    def attach(self, store: "BagStore") -> None:
        pass  # nothing survives a process, so nothing to replay or fold

    def put(self, bag_id: str, chunk_id: str, chunk: Any) -> Any:
        return chunk

    def get(self, bag_id: str, chunk_id: str, ref: Any) -> Any:
        return ref

    def nbytes(self, ref: Any) -> int:
        return len(ref)

    def evict(self, bag_id: str, chunk_id: str) -> None:
        pass

    def log(self, record: Tuple[Any, ...]) -> None:
        pass

    def seal(self, bag_id: str) -> None:
        pass

    def drop(self, bag_id: str) -> None:
        pass

    def export_chunks(self, bag_id: str, refs: List[Tuple[str, Any]]):
        return [], dict(refs)  # everything ships loose

    def import_chunks(self, bag_id: str, segments, known) -> Dict[str, Any]:
        return {}  # a fleet runs one backing, and this one exports none

    def finalize_bag(self, bag_id: str, live: List[Tuple[str, Any]]) -> None:
        return None  # nothing to compact

    def spill_stats(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        pass


class Bag:
    """One replica's copy of a bag: id-keyed pending/consumed chunk sets."""

    def __init__(self, store: "BagStore", bag_id: str):
        self.bag_id = bag_id
        self._lock = store._lock
        self._backing = store.backing
        #: Ordered, because removal pops from the *front*: a plain dict
        #: re-scans the tombstones of every earlier pop on each
        #: ``next(iter(...))``, which makes draining a bag quadratic.
        self.pending: "OrderedDict[str, Any]" = OrderedDict()
        self.consumed: Dict[str, Any] = {}
        #: Stable insertion order of every chunk held, consumed or not:
        #: what ``read_page`` cursors index and ``rewind`` restores.
        self.order: List[str] = []
        self.sealed = False
        #: Per-client removal log tail: client -> (seq, ids, sealed).
        #: One entry per client suffices because each client serializes
        #: its removals per bag and only ever retries its *latest* seq;
        #: ids, not payloads — a retry fetches them through ``consumed``.
        self.dedup: Dict[str, Tuple[int, List[str], bool]] = {}

    # -- the four monotone rules -------------------------------------------------

    def _known(self, chunk_id: str) -> bool:
        return chunk_id in self.pending or chunk_id in self.consumed

    def _ref(self, chunk_id: str) -> Any:
        ref = self.pending.get(chunk_id, _ABSENT)
        return self.consumed[chunk_id] if ref is _ABSENT else ref

    def _adopt(self, chunk_id: str, ref: Any) -> None:
        """Presence wins over absence: an unknown chunk becomes pending."""
        if not self._known(chunk_id):
            self.pending[chunk_id] = ref
            self.order.append(chunk_id)

    def _accept(self, chunk_id: str, chunk: Any) -> None:
        """:meth:`_adopt` a payload: stored only if the chunk is news."""
        if not self._known(chunk_id):
            self._adopt(chunk_id, self._backing.put(self.bag_id, chunk_id, chunk))

    def _consume(self, ids: List[str]) -> List[str]:
        """Consumed wins over pending: a chunk anyone has handed out must
        never be deliverable here. Ids this copy does not hold are skipped
        (a replayed record whose chunk never landed); returns the moves."""
        moved = []
        for chunk_id in ids:
            ref = self.pending.pop(chunk_id, _ABSENT)
            if ref is not _ABSENT:
                self.consumed[chunk_id] = ref
                self._backing.evict(self.bag_id, chunk_id)
                moved.append(chunk_id)
        return moved

    def _removed(self, client_id: str, seq: int, ids: List[str], sealed: bool) -> None:
        """One removal record — served here, shipped here, or replayed.

        The chunk moves always apply; the dedup tail takes the record
        unless a later seq is already there, or the record names a chunk
        this copy never got (then there is no reply to replay).
        """
        ids = list(ids)
        self._consume(ids)
        recorded = self.dedup.get(client_id)
        if (recorded is None or recorded[0] <= seq) and all(
            chunk_id in self.consumed for chunk_id in ids
        ):
            self.dedup[client_id] = (seq, ids, sealed)
        self._backing.log(("removal", self.bag_id, client_id, seq, ids, sealed))

    def seal(self) -> None:
        """Sealed wins over open."""
        with self._lock:
            self.sealed = True
            self._backing.seal(self.bag_id)
            self._backing.log(("seal", self.bag_id))

    # -- write side ----------------------------------------------------------------

    def insert_id(self, chunk_id: str, chunk: Any) -> None:
        with self._lock:
            if self.sealed:
                raise BagSealedError(f"insert into sealed bag {self.bag_id!r}")
            # A known id is a duplicate delivery (client retry / replayed
            # fan-out): a no-op.
            self._accept(chunk_id, chunk)

    # -- read side -----------------------------------------------------------------

    def remove_batch(self, count: int, client_id: str, seq: int) -> RemovalRecord:
        """Pop up to ``count`` chunks for ``client_id``'s request ``seq``.

        Idempotent per (client, seq): a retry of the latest request —
        the only retry a serialized client can issue — returns the
        recorded removal instead of popping again, whether the record
        was made here (primary serving) or shipped here (backup that
        was since promoted).
        """
        with self._lock:
            get, bag_id = self._backing.get, self.bag_id
            recorded = self.dedup.get(client_id)
            if recorded is not None and recorded[0] == seq:
                replayed = [(cid, get(bag_id, cid, self.consumed[cid])) for cid in recorded[1]]
                return replayed, recorded[2]
            pairs = [
                (cid, get(bag_id, cid, ref))
                for cid, ref in islice(self.pending.items(), count)
            ]
            # An empty serve is deliberately NOT recorded: serving []
            # mutated nothing, so a retry of the same seq popping chunks
            # that arrived in between is indistinguishable from the
            # first attempt having been served late — exactly-once is
            # about the *pops*, and zero pops need no dedup. Recording
            # it would instead pin [] against the seq and starve a
            # retrying client of chunks that landed after the first try.
            # (Regression-tested in test_dist_bag_contract.py.)
            if pairs:
                self._removed(client_id, seq, [cid for cid, _ in pairs], self.sealed)
            return pairs, self.sealed

    def apply_removals(
        self, client_id: str, seq: int, pairs: List[Tuple[str, Any]], sealed: bool
    ) -> None:
        """Apply a removal record shipped by the serving replica.

        Payloads travel with the ids so a removal racing this replica's
        re-sync (or arriving before the insert fan-out) still lands: the
        chunk is stored first, so the consumed marker always has a chunk
        behind it, and the late copy dedups against it.
        """
        with self._lock:
            for chunk_id, chunk in pairs:
                self._accept(chunk_id, chunk)
            self._removed(client_id, seq, [chunk_id for chunk_id, _ in pairs], sealed)

    # -- bag API extras --------------------------------------------------------------

    def read_page(self, cursor: int, max_bytes: int) -> Tuple[List[Any], int]:
        """One bounded page of the bag, non-destructively, in ``order``.

        ``cursor`` is an index into the bag's stable chunk order; the
        returned cursor resumes exactly where this page stopped, and an
        empty page means the end was reached (a cursor past the end is
        answered, not rejected — the caller may race a concurrent
        discard). Pages are bounded by the backing's chunk size but
        always carry at least one chunk, so an oversized chunk degrades
        to a one-chunk page instead of stalling the reader.
        """
        with self._lock:
            cursor = max(0, int(cursor))
            chunks: List[Any] = []
            used = 0
            while cursor < len(self.order):
                chunk_id = self.order[cursor]
                ref = self._ref(chunk_id)
                size = self._backing.nbytes(ref)
                if chunks and used + size > max_bytes:
                    break
                chunks.append(self._backing.get(self.bag_id, chunk_id, ref))
                used += size
                cursor += 1
            return chunks, cursor

    def remaining(self) -> int:
        with self._lock:
            return len(self.pending)

    def size(self) -> int:
        with self._lock:
            return len(self.pending) + len(self.consumed)

    def rewind(self) -> None:
        """Every chunk becomes deliverable again (family replay)."""
        with self._lock:
            self.pending = OrderedDict((cid, self._ref(cid)) for cid in self.order)
            self.consumed = {}
            self.dedup = {}
            self._backing.log(("rewind", self.bag_id))

    def discard(self) -> None:
        with self._lock:
            self._backing.drop(self.bag_id)
            self.pending = OrderedDict()
            self.consumed = {}
            self.order = []
            self.dedup = {}
            self.sealed = False
            self._backing.log(("discard", self.bag_id))

    def finalize(self) -> Tuple[int, int]:
        """Compact a finished bag down to its live chunks.

        Returns ``(segments_compacted, bytes_reclaimed)`` — ``(0, 0)``
        when there is nothing to do (not sealed, nothing consumed yet, a
        backing with nothing to reclaim), which makes master-side
        retries after a shard death idempotent. The consumed chunks are
        *gone* afterwards, so the caller must guarantee no consumer will
        rewind this bag again before it is re-produced; the dist master
        only finalizes bags whose every consumer family finished, and
        resets the bag's producers if one of those families is later
        reset.
        """
        with self._lock:
            if not self.sealed or not self.consumed:
                return (0, 0)
            live = list(self.pending.items())
            done = self._backing.finalize_bag(self.bag_id, live)
            if done is None:
                return (0, 0)
            refs, segments, reclaimed = done
            self.pending = OrderedDict((cid, ref) for (cid, _), ref in zip(live, refs))
            self.consumed = {}
            self.order = list(self.pending)
            self.dedup = {}  # tails reference dropped chunks; consumers are done
            return segments, reclaimed

    # -- re-replication --------------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """This copy as one package — the same shape at either backing:
        the metadata, whatever the backing ships wholesale (``segments``)
        and the chunks it cannot (``loose``)."""
        with self._lock:
            segments, loose = self._backing.export_chunks(
                self.bag_id, [(cid, self._ref(cid)) for cid in self.order]
            )
            return {
                "sealed": self.sealed,
                "order": list(self.order),
                "consumed": list(self.consumed),
                "dedup": {
                    client: (seq, list(ids), sealed)
                    for client, (seq, ids, sealed) in self.dedup.items()
                },
                "segments": segments,
                "loose": loose,
            }

    def merge(self, package: Dict[str, Any]) -> None:
        """Fold a package into this copy; monotone under concurrent
        traffic because it is nothing but the four rules, applied in the
        source's chunk order."""
        with self._lock:
            shipped = self._backing.import_chunks(
                self.bag_id, package["segments"], self._known
            )
            loose = package["loose"]
            for chunk_id in package["order"]:
                if chunk_id in shipped:
                    self._adopt(chunk_id, shipped[chunk_id])
                elif chunk_id in loose:
                    self._accept(chunk_id, loose[chunk_id])
            moved = self._consume(package["consumed"])
            if moved:
                self._backing.log(("consume", self.bag_id, moved))
            if package["sealed"] and not self.sealed:
                self.seal()
            for client, (seq, ids, sealed) in package["dedup"].items():
                self._removed(client, seq, ids, sealed)


class BagStore:
    """Catalog of one shard process's bag copies, over one backing.

    Owns the lock every bag transition and every backing call runs
    under, and the resync pair: ``pull`` packages bags with
    :meth:`Bag.export`, ``push`` installs them with :meth:`Bag.merge`.
    """

    def __init__(self, backing: Any):
        self.backing = backing
        self._lock = threading.RLock()
        self._bags: Dict[str, Bag] = {}
        backing.attach(self)

    def ensure(self, bag_id: str) -> Bag:
        with self._lock:
            bag = self._bags.get(bag_id)
            if bag is None:
                bag = self._bags[bag_id] = Bag(self, bag_id)
                self.backing.log(("ensure", bag_id))
            return bag

    get = ensure

    def bag_ids(self) -> List[str]:
        """Sorted inventory of every bag this replica holds a copy of."""
        with self._lock:
            return sorted(self._bags)

    def __contains__(self, bag_id: str) -> bool:
        with self._lock:
            return bag_id in self._bags

    def pull(self, bag_ids: List[str]) -> Dict[str, Dict[str, Any]]:
        """Package ``bag_ids`` for re-replication."""
        return {bag_id: self.ensure(bag_id).export() for bag_id in bag_ids}

    def push(self, packages: Dict[str, Dict[str, Any]]) -> None:
        """Install pulled packages; monotone, so safe under live traffic."""
        for bag_id, package in packages.items():
            self.ensure(bag_id).merge(package)

    def finalize_bag(self, bag_id: str) -> Tuple[int, int]:
        with self._lock:
            bag = self._bags.get(bag_id)
        return (0, 0) if bag is None else bag.finalize()

    def spill_stats(self) -> Dict[str, int]:
        with self._lock:
            return self.backing.spill_stats()

    def close(self) -> None:
        with self._lock:
            self.backing.close()

    # -- the metadata log, both directions ---------------------------------------------

    def metadata(self) -> List[Tuple[Any, ...]]:
        """Every bag's metadata as the records :meth:`replay` reads —
        what a backing folds its log into (from inside ``log``, so
        under the lock)."""
        records: List[Tuple[Any, ...]] = []
        for bag_id in sorted(self._bags):
            bag = self._bags[bag_id]
            records.append(("ensure", bag_id))
            if bag.consumed:
                records.append(("consume", bag_id, list(bag.consumed)))
            if bag.sealed:
                records.append(("seal", bag_id))
            for client, (seq, ids, sealed) in bag.dedup.items():
                records.append(("removal", bag_id, client, seq, list(ids), sealed))
        return records

    def replay(self, record: Tuple[Any, ...]) -> None:
        """Re-run one logged transition (the backing has logging off).

        ``("adopt", bag, [(chunk_id, ref), ...])`` is never logged: a
        recovering backing synthesizes it from the chunks it found.
        """
        kind, bag = record[0], self.ensure(record[1])
        if kind == "adopt":
            for chunk_id, ref in record[2]:
                bag._adopt(chunk_id, ref)
        elif kind == "consume":
            bag._consume(record[2])
        elif kind == "removal":
            bag._removed(*record[2:])
        elif kind == "seal":
            bag.seal()
        elif kind == "rewind":
            bag.rewind()
