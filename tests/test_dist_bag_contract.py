"""One contract battery for the one shard-store interface.

A storage shard serves its bags from :class:`RepBagStore` (memory) or
:class:`SegmentBagStore` (disk), chosen only by whether the run set a
memory budget; everything above the store speaks to ``ensure(bag)`` the
same way. So the contract is tested once, parametrised over both:
idempotent ``insert_id``, ``(client, seq)``-deduplicated ``remove_batch``
(including the empty-reply-not-recorded rule), monotone
``apply_removals``, the ``read_page`` pagination contract,
``rewind``/``discard``, and ``pull`` -> ``push`` re-replication into an
empty store and into one that was written to in the meantime.

What only one store can show (eviction and faults, reopen from disk,
sealed segments travelling as raw bytes, compaction) stays in
``test_dist_segments.py`` / ``test_dist_compaction.py``.
"""

import time

import pytest

from repro.dist.replica import RepBagStore
from repro.dist.segments import SegmentBagStore
from repro.engine.common import iter_bag_chunks
from repro.errors import BagSealedError


@pytest.fixture(params=["memory", "segments"])
def make_store(request, tmp_path):
    """Factory for fresh stores of the parametrised flavour."""
    made = []

    def make(name="store", **segment_kwargs):
        if request.param == "memory":
            store = RepBagStore()
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

    def test_consumed_chunks_still_page(self, make_store):
        # read_page is non-destructive over the full membership — that
        # is what a rewind-and-replay after a family reset relies on.
        store = make_store()
        bag = store.ensure("b")
        for i in range(8):
            bag.insert_id(f"c#{i}", payload(i))
        bag.remove_batch(3, "client", 1)
        assert sorted(chunks_of(store)) == [payload(i) for i in range(8)]
        assert bag.remaining() == 5 and bag.size() == 8


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
