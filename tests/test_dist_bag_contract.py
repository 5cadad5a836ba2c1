"""One contract battery for the one shard store, over each backing.

A storage shard serves its bags from one :class:`BagStore` whose chunks
live in a :class:`MemoryBacking` or a :class:`SegmentBacking` (disk),
chosen only by whether the run set a memory budget; everything above
the store speaks to ``ensure(bag)`` the same way. So the contract is
tested once, parametrised over both: idempotent ``insert_id``,
``(client, seq)``-deduplicated ``remove_batch`` (including the
empty-reply-not-recorded rule), monotone ``apply_removals``, the
``read_page`` pagination contract, ``rewind``/``discard``, and ``pull``
-> ``push`` re-replication into an empty store and into one that was
written to in the meantime. A Hypothesis differential test then drives
one random op sequence through memory, segments, and segments reopened
at random points, and demands they stay observationally equal.

What only the disk backing can show (eviction and faults, torn tails,
sealed segments travelling as raw bytes, compaction) stays in
``test_dist_segments.py`` / ``test_dist_compaction.py``.
"""

import io
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.bags import BagStore, MemoryBacking
from repro.dist.journal import scan_frames
from repro.dist.segments import SegmentBagStore
from repro.engine.common import iter_bag_chunks
from repro.errors import BagSealedError


@pytest.fixture(params=["memory", "segments"])
def make_store(request, tmp_path):
    """Factory for fresh stores of the parametrised flavour."""
    made = []

    def make(name="store", **segment_kwargs):
        if request.param == "memory":
            store = BagStore(MemoryBacking())
        else:
            # A budget and segment size far below the data: chunks are
            # evicted and faulted back, and bags span several segments.
            segment_kwargs.setdefault("resident_bytes", 256)
            segment_kwargs.setdefault("segment_target_bytes", 256)
            store = SegmentBagStore(str(tmp_path / name), **segment_kwargs)
        made.append(store)
        return store

    yield make
    for store in made:
        store.close()


def payload(i: int) -> bytes:
    return bytes([i % 256]) * 64


def chunks_of(store, bag_id="b"):
    """Every chunk of the bag, consumed or not, via the paged read."""
    return list(iter_bag_chunks(store, bag_id))


class TestInsert:
    def test_insert_is_idempotent_by_id(self, make_store):
        bag = make_store().ensure("b")
        bag.insert_id("c#0", payload(0))
        bag.insert_id("c#0", payload(0))  # client retry / replayed fan-out
        assert bag.remaining() == 1 and bag.size() == 1

    def test_sealed_insert_raises(self, make_store):
        bag = make_store().ensure("b")
        bag.seal()
        assert bag.sealed
        with pytest.raises(BagSealedError):
            bag.insert_id("c#0", payload(0))


class TestRemoveBatch:
    def test_retried_seq_replays_the_recorded_pops(self, make_store):
        bag = make_store().ensure("b")
        for i in range(4):
            bag.insert_id(f"c#{i}", payload(i))
        first, _ = bag.remove_batch(2, "client", 1)
        again, _ = bag.remove_batch(2, "client", 1)  # retry, same seq
        assert again == first == [("c#0", payload(0)), ("c#1", payload(1))]
        fresh, _ = bag.remove_batch(2, "client", 2)
        assert [cid for cid, _ in fresh] == ["c#2", "c#3"]
        assert bag.remaining() == 0 and bag.size() == 4

    def test_empty_reply_is_not_recorded_in_dedup(self, make_store):
        # Serving [] mutates no state, so a retry of the same seq must
        # see chunks that arrived in between rather than a pinned empty
        # reply — recording [] would starve a retrying client forever on
        # a slow-filling bag.
        bag = make_store().ensure("b")
        served, sealed = bag.remove_batch(2, "client", 1)
        assert served == [] and not sealed
        bag.insert_id("c#0", payload(0))
        retry, _ = bag.remove_batch(2, "client", 1)
        assert retry == [("c#0", payload(0))]
        # Once a non-empty serve lands, the same seq is exactly-once.
        again, _ = bag.remove_batch(2, "client", 1)
        assert again == retry

    def test_recorded_reply_keeps_its_at_serve_seal_state(self, make_store):
        bag = make_store().ensure("b")
        bag.insert_id("c#0", payload(0))
        _, sealed = bag.remove_batch(1, "client", 1)
        assert not sealed
        bag.seal()
        _, replayed = bag.remove_batch(1, "client", 1)
        assert not replayed
        _, fresh = bag.remove_batch(1, "client", 2)
        assert fresh

    def test_drain_is_linear_in_bag_size(self, make_store):
        # Regression: remove_batch used to copy the whole pending key
        # list on every request, so draining a bag at count=1 was
        # quadratic. Compare n against 4n: linear takes 4x the time,
        # quadratic 16x; the bound sits a factor of two from each, and
        # the best of three runs keeps a noisy host out of the ratio.
        def drain_seconds(n):
            store = make_store(
                f"drain-{n}", resident_bytes=None, segment_target_bytes=None
            )
            bag = store.ensure("b")
            for i in range(n):
                bag.insert_id(f"c#{i}", b"x")
            bag.seal()
            started = time.perf_counter()
            for seq in range(1, n + 1):
                pairs, _ = bag.remove_batch(1, "client", seq)
                assert len(pairs) == 1
            elapsed = time.perf_counter() - started
            assert bag.remaining() == 0
            return elapsed

        small = min(drain_seconds(10_000) for _ in range(3))
        large = min(drain_seconds(40_000) for _ in range(3))
        assert large < 8.0 * small, (small, large)


class TestApplyRemovals:
    def test_lands_before_insert(self, make_store):
        # A shipped removal can outrun the insert fan-out: the payload
        # travels with it, the chunk lands consumed, the late insert is
        # a dedup no-op (not a resurrection into pending).
        store = make_store()
        bag = store.ensure("b")
        bag.apply_removals("client", 1, [("c#0", payload(0))], False)
        bag.insert_id("c#0", payload(0))
        assert bag.remaining() == 0 and bag.size() == 1
        assert chunks_of(store) == [payload(0)]

    def test_keeps_highest_seq(self, make_store):
        bag = make_store().ensure("b")
        bag.apply_removals("client", 2, [("c#1", payload(1))], False)
        bag.apply_removals("client", 1, [("c#0", payload(0))], False)
        # Both chunk moves applied; the dedup tail stays at seq 2.
        assert bag.size() == 2 and bag.remaining() == 0
        pairs, _ = bag.remove_batch(5, "client", 2)
        assert pairs == [("c#1", payload(1))]

    def test_moves_a_pending_chunk_exactly_once(self, make_store):
        bag = make_store().ensure("b")
        bag.insert_id("c#0", payload(0))
        bag.insert_id("c#1", payload(1))
        record = ("client", 1, [("c#0", payload(0))], False)
        bag.apply_removals(*record)
        bag.apply_removals(*record)  # re-shipped on a client retry
        assert bag.remaining() == 1 and bag.size() == 2


class TestReadPage:
    def test_empty_bag_answers_done_immediately(self, make_store):
        assert make_store().ensure("b").read_page(0, 1 << 20) == ([], 0)

    def test_cursor_past_end_is_answered_not_rejected(self, make_store):
        bag = make_store().ensure("b")
        for i in range(3):
            bag.insert_id(f"c#{i}", payload(i))
        assert bag.read_page(99, 1 << 20) == ([], 99)

    def test_oversized_chunk_travels_alone(self, make_store):
        # A budget below one chunk must still make progress: one chunk
        # per page, never a stall, never a rejection.
        bag = make_store().ensure("b")
        for i in range(4):
            bag.insert_id(f"c#{i}", payload(i))
        cursor, pages = 0, []
        while True:
            chunks, cursor = bag.read_page(cursor, 1)
            if not chunks:
                break
            pages.append(chunks)
        assert pages == [[payload(i)] for i in range(4)]

    def test_pages_are_bounded_and_chain_to_the_whole_bag(self, make_store):
        bag = make_store().ensure("b")
        for i in range(32):
            bag.insert_id(f"c#{i:02d}", payload(i))
        got, cursor, budget = [], 0, 4 * 64 + 200
        while True:
            chunks, cursor = bag.read_page(cursor, budget)
            if not chunks:
                break
            assert sum(len(chunk) for chunk in chunks) <= budget
            got.extend(chunks)
        assert got == [payload(i) for i in range(32)]
        assert cursor == 32

    def test_consumed_chunks_still_page_in_insertion_order(self, make_store):
        # read_page is non-destructive over the full membership — that
        # is what a rewind-and-replay after a family reset relies on —
        # and a consumed chunk keeps its place: cursors index one stable
        # order, so a page read while a consumer drains never shifts.
        store = make_store()
        bag = store.ensure("b")
        for i in range(8):
            bag.insert_id(f"c#{i}", payload(i))
        first, cursor = bag.read_page(0, 1)
        assert first == [payload(0)]
        bag.remove_batch(3, "client", 1)
        ordered = list(first)
        while True:
            chunks, cursor = bag.read_page(cursor, 200)
            if not chunks:
                break
            ordered.extend(chunks)
        assert ordered == chunks_of(store) == [payload(i) for i in range(8)]
        assert bag.remaining() == 5 and bag.size() == 8

    def test_paging_is_linear_in_bag_size(self, make_store):
        # Regression: the memory bag rebuilt consumed + pending value
        # lists on *every* page, so a paged read of the whole bag (every
        # result snapshot, refill and side input) was quadratic. Same
        # shape as the drain test: n against 4n at one chunk per page.
        def paging_seconds(n):
            store = make_store(
                f"page-{n}", resident_bytes=None, segment_target_bytes=None
            )
            bag = store.ensure("b")
            for i in range(n):
                bag.insert_id(f"c#{i}", b"x")
            started = time.perf_counter()
            cursor, pages = 0, 0
            while True:
                chunks, cursor = bag.read_page(cursor, 1)
                if not chunks:
                    break
                pages += 1
            elapsed = time.perf_counter() - started
            assert pages == n
            return elapsed

        small = min(paging_seconds(2_500) for _ in range(3))
        large = min(paging_seconds(10_000) for _ in range(3))
        assert large < 8.0 * small, (small, large)


class TestRewindDiscard:
    def test_rewind_restores_everything(self, make_store):
        bag = make_store().ensure("b")
        for i in range(3):
            bag.insert_id(f"c#{i}", payload(i))
        bag.remove_batch(2, "client", 1)
        bag.rewind()
        assert bag.remaining() == 3
        # Post-rewind the removal log is void: the same seq pops fresh,
        # and in insertion order again.
        pairs, _ = bag.remove_batch(3, "client", 1)
        assert [cid for cid, _ in pairs] == ["c#0", "c#1", "c#2"]

    def test_discard_empties_and_reopens(self, make_store):
        store = make_store()
        bag = store.ensure("b")
        for i in range(3):
            bag.insert_id(f"c#{i}", payload(i))
        bag.remove_batch(1, "client", 1)
        bag.seal()
        bag.discard()
        assert bag.size() == 0 and bag.remaining() == 0 and not bag.sealed
        assert chunks_of(store) == []
        # A refill reuses nothing of the old incarnation: the seal is
        # gone and the old removal log answers no retry.
        bag.insert_id("d#0", payload(9))
        pairs, _ = bag.remove_batch(1, "client", 1)
        assert pairs == [("d#0", payload(9))]


class TestPullPush:
    def source(self, make_store):
        store = make_store("source")
        bag = store.ensure("b")
        for i in range(12):
            bag.insert_id(f"c#{i:02d}", payload(i))
        bag.remove_batch(5, "client", 7)
        bag.seal()
        store.ensure("open").insert_id("o#0", payload(40))
        return store

    def test_package_shape_is_the_same_for_both_backings(self, make_store):
        # One resync pair, one package: the master (and the wire) never
        # learn which backing produced it. Only the split between what
        # ships wholesale and what ships loose is the backing's own.
        source = self.source(make_store)
        package = source.pull(["b"])["b"]
        assert set(package) == {
            "sealed", "order", "consumed", "dedup", "segments", "loose",
        }
        assert package["order"] == [f"c#{i:02d}" for i in range(12)]
        assert package["consumed"] == package["order"][:5]
        assert package["dedup"] == {"client": (7, package["order"][:5], False)}
        shipped = {
            record[0]
            for _n, blob in package["segments"]
            for _off, _end, record in scan_frames(io.BytesIO(blob))
        }
        assert shipped | set(package["loose"]) == set(package["order"])
        if isinstance(source.backing, MemoryBacking):
            assert package["segments"] == []

    def test_round_trip_into_an_empty_store(self, make_store):
        source = self.source(make_store)
        target = make_store("target")
        packages = source.pull(["b", "open"])
        target.push(packages)
        copy = target.get("b")
        assert copy.sealed and not target.get("open").sealed
        assert copy.remaining() == 7 and copy.size() == 12
        assert target.get("open").remaining() == 1
        assert sorted(chunks_of(target)) == sorted(chunks_of(source))
        # A replayed push (the master retried) changes nothing.
        target.push(packages)
        assert copy.remaining() == 7 and copy.size() == 12
        # The removal-log tail travelled: the same (client, seq) retry
        # is answered with the recorded pops, not five fresh chunks.
        replay, _ = copy.remove_batch(5, "client", 7)
        assert [cid for cid, _ in replay] == [f"c#{i:02d}" for i in range(5)]
        fresh, sealed = copy.remove_batch(12, "client", 8)
        assert [cid for cid, _ in fresh] == [f"c#{i:02d}" for i in range(5, 12)]
        assert sealed

    def test_push_is_monotone_over_a_store_written_meanwhile(self, make_store):
        # The replacement shard serves live traffic while the master
        # re-replicates into it: an insert fan-out and a shipped removal
        # got there before the package did.
        source = make_store("source")
        bag = source.ensure("b")
        for i in range(3):
            bag.insert_id(f"c#{i}", payload(i))
        bag.remove_batch(1, "client", 5)  # c#0 consumed at the source
        bag.seal()
        target = make_store("target")
        copy = target.ensure("b")
        copy.insert_id("c#0", payload(0))  # pending copy of a consumed chunk
        copy.apply_removals("client", 3, [("c#2", payload(2))], False)
        target.push(source.pull(["b"]))
        # Consumed wins over pending: c#0 (consumed at the source) must
        # not stay deliverable here; c#2 (consumed here) must not be
        # resurrected by the package's pending copy.
        assert copy.remaining() == 1 and copy.size() == 3
        assert copy.sealed
        # The package's seq-5 tail replaced the local seq-3 one.
        pairs, _ = copy.remove_batch(5, "client", 5)
        assert pairs == [("c#0", payload(0))]
        left, _ = copy.remove_batch(5, "client", 6)
        assert left == [("c#1", payload(1))]


# ---------------------------------------------------------------------------
# The backings are observationally equal


#: Insertable ids; ``apply`` draws from two more, which therefore only
#: ever arrive through a shipped removal (never-inserted chunks). Reuse
#: makes duplicates, re-inserts after discard and stale records common.
_POOL = 10
_CLIENTS = st.sampled_from(["w1", "w2"])
_STORE = st.integers(0, 1)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _STORE, st.integers(0, _POOL - 1)),
        # (count, fresh seq or retry of the client's latest)
        st.tuples(st.just("remove"), _STORE, _CLIENTS, st.integers(1, 4), st.booleans()),
        # (seq relative to the client's latest: stale, same, ahead; ids; sealed flag)
        st.tuples(
            st.just("apply"), _STORE, _CLIENTS, st.integers(-1, 2),
            st.lists(st.integers(0, _POOL + 1), min_size=1, max_size=3, unique=True),
            st.booleans(),
        ),
        st.tuples(st.just("seal"), _STORE),
        st.tuples(st.just("rewind"), _STORE),
        st.tuples(st.just("discard"), _STORE),
        st.tuples(st.just("ship"), _STORE),  # pull here, push into the other
        st.tuples(st.just("reopen"), _STORE),
    ),
    max_size=40,
)


def _pool_id(k):
    return f"c#{k:02d}"


def _pool_payload(k):
    return bytes([k]) * 120  # two frames fill a 256-byte segment


class _Replicas:
    """Two stores of one flavour (a serving copy and a second replica
    that is written to while packages travel), driven op by op."""

    def __init__(self, make):
        #: (index, store to reopen or None) -> store, or None when this
        #: flavour has nothing to reopen from.
        self.make = make
        self.stores = [make(0, None), make(1, None)]
        self.seqs = {}

    def step(self, op):
        kind, index = op[0], op[1]
        bag = self.stores[index].ensure("b")
        if kind == "insert":
            try:
                bag.insert_id(_pool_id(op[2]), _pool_payload(op[2]))
            except BagSealedError:
                return "sealed"
        elif kind == "remove":
            _, _, client, count, fresh = op
            seq = self.seqs.get((index, client), 0) + (1 if fresh else 0)
            self.seqs[(index, client)] = seq = max(1, seq)
            return bag.remove_batch(count, client, seq)
        elif kind == "apply":
            _, _, client, delta, ids, sealed = op
            seq = max(1, self.seqs.get((index, client), 0) + delta)
            pairs = [(_pool_id(k), _pool_payload(k)) for k in ids]
            bag.apply_removals(client, seq, pairs, sealed)
        elif kind == "ship":
            self.stores[1 - index].push(self.stores[index].pull(["b"]))
        elif kind == "reopen":
            self.stores[index] = (
                self.make(index, self.stores[index]) or self.stores[index]
            )
        else:
            getattr(bag, kind)()  # seal / rewind / discard
        return None

    def observe(self):
        return [
            (
                store.get("b").remaining(),
                store.get("b").size(),
                store.get("b").sealed,
                list(iter_bag_chunks(store, "b", page_bytes=300)),
            )
            for store in self.stores
        ]


class TestBackingsAreObservationallyEqual:
    @given(ops=_ops)
    @settings(deadline=None)
    def test_observationally_equal_under_any_op_sequence(self, ops):
        with tempfile.TemporaryDirectory() as root:
            opened = []

            def on_disk(reopens):
                def make(index, previous):
                    if previous is not None:
                        if not reopens:
                            return None
                        previous.close()
                    store = SegmentBagStore(
                        f"{root}/{reopens}-{index}",
                        resident_bytes=256,
                        segment_target_bytes=256,
                        compact_every=8,  # index folds mid-sequence too
                        reopen=previous is not None,
                    )
                    opened.append(store)
                    return store

                return _Replicas(make)

            memory = _Replicas(
                lambda index, previous: (
                    BagStore(MemoryBacking()) if previous is None else None
                )
            )
            disk = [on_disk(reopens=False), on_disk(reopens=True)]
            try:
                for op in ops:
                    reply = memory.step(op)
                    state = memory.observe()
                    for flavour in disk:
                        assert flavour.step(op) == reply, op
                        assert flavour.observe() == state, op
            finally:
                for store in opened:
                    store.close()
