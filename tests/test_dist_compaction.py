"""Segment compaction and streaming (paged) refills: the disk-path battery.

Three layers of lockdown for the two new disk-path mechanisms:

* **Pagination contract** — every bag flavor exposing
  ``read_page(cursor, max_bytes)`` must honor the same contract: cursor
  indexes a stable order, an empty page means done, a cursor past the
  end is answered rather than rejected, pages never exceed the byte
  budget except when a single oversized chunk must travel alone. The
  shard store is held to it over both backings by
  ``test_dist_bag_contract.py``; here are the local engine's bags (the
  reference), what is particular to the disk backing (frame-length
  budgets and faults from disk), and the ``iter_bag_chunks`` regression
  that a refill of a bag far larger than the page budget never holds
  more than one page of payloads resident.
* **Compaction correctness** — ``finalize_bag`` unit behavior (reclaims
  only consumed frames, idempotent retries, crash-window recovery via
  the ``compaction_kill`` hook + ``reopen=True``) and a Hypothesis
  model test over arbitrary interleavings of drains / compactions /
  reopens of a sealed bag: the live-chunk sequence read back always
  equals the model's, and no consumed chunk is ever re-delivered. (The
  rest of the bag alphabet is checked differentially, memory against
  disk, in the contract battery.)
* **End to end** — a spilling dist run compacts finished inputs
  (``segments_compacted``/``bytes_reclaimed`` surface in the result) and
  a shard killed inside either compaction crash window still recovers
  with zero family resets and byte-identical sinks.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import DistRuntime, ShardRouter
from repro.dist.bags import BagStore, MemoryBacking
from repro.dist.journal import pack_frame
from repro.dist.segments import SegmentBagStore
from repro.engine.common import (
    decode_bag_chunks,
    fill_bag,
    iter_bag_chunks,
    source_chunks,
)
from repro.apps import build_clicklog_local
from repro.model import Application
from repro.storage.filebag import FileBagStore
from repro.storage.local import LocalBag, LocalBagStore

from tests.test_dist_bag_contract import chunks_of, payload
from tests.test_dist_runtime import (
    REGIONS,
    clicklog_baseline,
    clicklog_counts,
    clicklog_records,
)




# ---------------------------------------------------------------------------
# Pagination contract, per bag flavor


class TestSegmentBagPagination:
    def fill(self, tmp_path, count):
        store = SegmentBagStore(str(tmp_path), resident_bytes=512)
        bag = store.ensure("b")
        for i in range(count):
            bag.insert_id(f"c#{i:03d}", payload(i))
        return store, bag

    def frame_len(self):
        # Fixed-width ids keep every frame the same length, so byte
        # budgets translate into exact chunks-per-page counts.
        return len(pack_frame(("c#000", payload(0))))

    def test_exact_page_boundary(self, tmp_path):
        # Budget = exactly two frames: six chunks paginate 2/2/2 with
        # cursors landing on the boundaries, then an empty done page.
        _store, bag = self.fill(tmp_path, 6)
        budget = 2 * self.frame_len()
        chunks, cursor = bag.read_page(0, budget)
        assert chunks == [payload(0), payload(1)] and cursor == 2
        chunks, cursor = bag.read_page(cursor, budget)
        assert chunks == [payload(2), payload(3)] and cursor == 4
        chunks, cursor = bag.read_page(cursor, budget)
        assert chunks == [payload(4), payload(5)] and cursor == 6
        assert bag.read_page(cursor, budget) == ([], 6)

    def test_pages_chain_to_the_whole_bag_from_disk(self, tmp_path):
        # The 512-byte budget evicted most of the bag: paging faults the
        # payloads back in and still reproduces the bag exactly.
        store, bag = self.fill(tmp_path, 64)
        got, cursor = [], 0
        while True:
            chunks, cursor = bag.read_page(cursor, 4 * self.frame_len())
            if not chunks:
                break
            got.extend(chunks)
        assert got == [payload(i) for i in range(64)]
        assert store.spill_stats()["faults"] > 0


class TestLocalBagPagination:
    def test_bytes_chunks_bounded_by_budget(self):
        bag = LocalBag("b")
        for i in range(6):
            bag.insert(bytes([i]) * 100)
        chunks, cursor = bag.read_page(0, 200)
        assert chunks == [b"\x00" * 100, b"\x01" * 100] and cursor == 2
        chunks, cursor = bag.read_page(cursor, 200)
        assert cursor == 4
        chunks, cursor = bag.read_page(4, 1000)
        assert len(chunks) == 2 and cursor == 6
        assert bag.read_page(6, 200) == ([], 6)

    def test_empty_and_past_end(self):
        bag = LocalBag("b")
        assert bag.read_page(0, 100) == ([], 0)
        bag.insert(b"x")
        assert bag.read_page(7, 100) == ([], 7)

    def test_oversized_chunk_travels_alone(self):
        bag = LocalBag("b")
        bag.insert(b"y" * 500)
        bag.insert(b"z" * 500)
        chunks, cursor = bag.read_page(0, 10)
        assert chunks == [b"y" * 500] and cursor == 1


class TestFileBagPagination:
    def test_same_contract_as_local_bag(self, tmp_path):
        # The local engine can run over file-backed bags; bag_records'
        # paged reads must work there too.
        store = FileBagStore(tmp_path)
        bag = store.ensure("b")
        for i in range(5):
            bag.insert(bytes([i]) * 100)
        chunks, cursor = bag.read_page(0, 200)
        assert chunks == [b"\x00" * 100, b"\x01" * 100] and cursor == 2
        got, cursor = list(chunks), int(cursor)
        while True:
            page, cursor = bag.read_page(cursor, 200)
            if not page:
                break
            got.extend(page)
        assert got == bag.read_all()
        assert bag.read_page(99, 200) == ([], 99)


@pytest.mark.parametrize("kind", ["local", "memory", "file"])
def test_a_codec_less_bag_is_paged_by_bytes(kind, tmp_path):
    """A chunk of a bag declared without a codec is bytes like any other, so
    ``max_bytes`` bounds its pages too (a record-list chunk counted as one
    byte, and the whole bag came back in one page)."""
    app = Application("paged")
    app.bag("b")
    app.bag("sink")
    app.task("t", ["b"], ["sink"], fn=lambda ctx: None)
    records = [bytes([i]) * 1024 for i in range(40)]
    if kind == "memory":
        bag = BagStore(MemoryBacking()).ensure("b")
        chunks = source_chunks(app.graph, "b", records, chunk_size=2048)
        for index, chunk in enumerate(chunks):
            bag.insert_id(f"c#{index}", chunk)
    else:
        store = LocalBagStore() if kind == "local" else FileBagStore(tmp_path)
        fill_bag(store, app.graph, "b", records, chunk_size=2048)
        bag = store.get("b")
    pages, cursor = [], 0
    while True:
        page, cursor = bag.read_page(cursor, 4096)
        if not page:
            break
        pages.append(page)
    assert len(pages) >= 10
    assert all(sum(map(len, page)) <= 4096 or len(page) == 1 for page in pages)
    assert decode_bag_chunks(app.graph, "b", sum(pages, [])) == records


class _PageSpy:
    """Wraps one bag, recording every page read_page hands out."""

    def __init__(self, bag):
        self._bag = bag
        self.pages = []

    def read_page(self, cursor, max_bytes):
        chunks, cursor = self._bag.read_page(cursor, max_bytes)
        self.pages.append(chunks)
        return chunks, cursor


class _StoreSpy:
    def __init__(self, spy):
        self._spy = spy

    def get(self, bag_id):
        return self._spy


class TestStreamedRefillBuffer:
    def test_iter_bag_chunks_holds_at_most_one_page(self, tmp_path):
        # The regression the streamed refill exists for: a spilled bag
        # 32x the page budget must cross iter_bag_chunks page by page —
        # every page's payload bytes stay under the budget, and the
        # chained stream still equals the whole bag.
        page_bytes = 4096
        store = SegmentBagStore(str(tmp_path), resident_bytes=2048)
        bag = store.ensure("big")
        expected = []
        for i in range(128):
            chunk = bytes([i % 256]) * 1024
            bag.insert_id(f"c#{i:04d}", chunk)
            expected.append(chunk)

        spy = _PageSpy(bag)
        got = list(
            iter_bag_chunks(_StoreSpy(spy), "big", page_bytes=page_bytes)
        )
        assert got == expected
        filled = [p for p in spy.pages if p]
        assert len(filled) > 1  # it really paged, not one giant read
        peak = max(sum(len(c) for c in page) for page in filled)
        assert peak <= page_bytes
        assert all(spy.pages[:-1])  # only the terminal page is empty


# ---------------------------------------------------------------------------
# Compaction: unit behavior


class TestFinalizeBagUnit:
    def build(self, root, **kwargs):
        kwargs.setdefault("resident_bytes", 512)
        kwargs.setdefault("segment_target_bytes", 256)
        return SegmentBagStore(str(root), **kwargs)

    def seg_files(self, root):
        return sorted(
            name for name in os.listdir(root) if name.endswith(".seg")
        )

    def test_reclaims_consumed_frames_keeps_live(self, tmp_path):
        store = self.build(tmp_path)
        bag = store.ensure("b")
        for i in range(32):
            bag.insert_id(f"c#{i:03d}", payload(i))
        bag.remove_batch(24, "w", 1)
        bag.seal()
        before = sum(
            os.path.getsize(os.path.join(tmp_path, f))
            for f in self.seg_files(tmp_path)
        )
        segs, reclaimed = store.finalize_bag("b")
        assert segs > 0 and reclaimed > 0
        after = sum(
            os.path.getsize(os.path.join(tmp_path, f))
            for f in self.seg_files(tmp_path)
        )
        assert before - after == reclaimed
        # Live chunks survive, in order; remaining unchanged.
        assert chunks_of(store) == [payload(i) for i in range(24, 32)]
        assert bag.remaining() == 8
        stats = store.spill_stats()
        assert stats["segments_compacted"] == segs
        assert stats["bytes_reclaimed"] == reclaimed

    def test_fully_consumed_bag_compacts_to_nothing(self, tmp_path):
        store = self.build(tmp_path)
        bag = store.ensure("b")
        for i in range(16):
            bag.insert_id(f"c#{i:03d}", payload(i))
        bag.remove_batch(16, "w", 1)
        bag.seal()
        segs, reclaimed = store.finalize_bag("b")
        assert segs > 0 and reclaimed > 0
        assert self.seg_files(tmp_path) == []  # zero live frames: no files
        assert chunks_of(store) == [] and bag.remaining() == 0

    def test_retry_is_idempotent(self, tmp_path):
        store = self.build(tmp_path)
        bag = store.ensure("b")
        for i in range(16):
            bag.insert_id(f"c#{i:03d}", payload(i))
        bag.remove_batch(8, "w", 1)
        bag.seal()
        assert store.finalize_bag("b") != (0, 0)
        # The master's _retrying may re-send after a timeout: the second
        # call must be a no-op, not a second rewrite.
        assert store.finalize_bag("b") == (0, 0)

    def test_guards_answer_zero(self, tmp_path):
        store = self.build(tmp_path)
        assert store.finalize_bag("ghost") == (0, 0)  # unknown bag
        bag = store.ensure("b")
        bag.insert_id("c#0", payload(0))
        bag.remove_batch(1, "w", 1)
        assert store.finalize_bag("b") == (0, 0)  # not sealed yet
        other = store.ensure("pristine")
        other.insert_id("c#0", payload(0))
        other.seal()
        assert store.finalize_bag("pristine") == (0, 0)  # nothing consumed

    def test_compacted_state_survives_reopen(self, tmp_path):
        store = self.build(tmp_path)
        bag = store.ensure("b")
        for i in range(32):
            bag.insert_id(f"c#{i:03d}", payload(i))
        bag.remove_batch(20, "w", 1)
        bag.seal()
        store.finalize_bag("b")
        store.close()
        back = SegmentBagStore(str(tmp_path), resident_bytes=512, reopen=True)
        bag = back.get("b")
        assert chunks_of(back) == [payload(i) for i in range(20, 32)]
        assert bag.remaining() == 12 and bag.sealed
        # No consumed chunk is re-deliverable: a fresh drain serves only
        # the 12 live chunks.
        pairs, _ = bag.remove_batch(32, "w2", 1)
        assert [cid for cid, _ in pairs] == [f"c#{i:03d}" for i in range(20, 32)]


class _CrashNow(BaseException):
    """Stands in for os._exit inside the compaction_kill hook: nothing
    below the raise runs, exactly like the injected shard kill."""


class TestKillMidCompaction:
    def build(self, root):
        store = SegmentBagStore(
            str(root), resident_bytes=512, segment_target_bytes=256
        )
        bag = store.ensure("b")
        for i in range(32):
            bag.insert_id(f"c#{i:03d}", payload(i))
        popped, _ = bag.remove_batch(20, "w", 1)
        bag.seal()
        return store, bag, [cid for cid, _ in popped]

    def crash_at(self, store, stage):
        def hook(at):
            if at == stage:
                raise _CrashNow(at)

        store.backing.compaction_kill = hook
        with pytest.raises(_CrashNow):
            store.finalize_bag("b")

    @pytest.mark.parametrize("stage", ["written", "indexed"])
    def test_reopen_loses_no_live_frame(self, tmp_path, stage):
        store, _bag, consumed = self.build(tmp_path)
        self.crash_at(store, stage)
        # The dying process never closes anything; reopen rebuilds from
        # whatever the crash left on disk.
        back = SegmentBagStore(str(tmp_path), resident_bytes=512, reopen=True)
        bag = back.get("b")
        assert chunks_of(back)[-12:] == [payload(i) for i in range(20, 32)]
        assert bag.remaining() == 12
        # ...and never re-delivers a consumed chunk: a fresh consumer
        # sees only the live 12.
        pairs, _ = bag.remove_batch(32, "w2", 1)
        assert {cid for cid, _ in pairs}.isdisjoint(set(consumed))
        assert len(pairs) == 12

    def test_crash_before_index_record_then_retry_compacts(self, tmp_path):
        # Window 1: new segments fsynced, no index record. The
        # half-written copies are inert duplicates (lower segment numbers
        # win the reopen membership race); the master's retry then runs
        # the compaction to completion.
        store, _bag, _consumed = self.build(tmp_path)
        self.crash_at(store, "written")
        back = SegmentBagStore(str(tmp_path), resident_bytes=512, reopen=True)
        segs, reclaimed = back.finalize_bag("b")
        assert segs > 0 and reclaimed > 0
        assert chunks_of(back) == [payload(i) for i in range(20, 32)]
        assert back.get("b").remaining() == 12

    def test_crash_after_index_record_unlinks_stale_files(self, tmp_path):
        # Window 2: the ("compacted", bag, base) record landed but the
        # old files were never unlinked. Reopen must finish the unlink
        # and a retry must answer (0, 0) — the work is already done.
        store, _bag, _consumed = self.build(tmp_path)
        files_before = {
            name for name in os.listdir(tmp_path) if name.endswith(".seg")
        }
        self.crash_at(store, "indexed")
        files_crashed = {
            name for name in os.listdir(tmp_path) if name.endswith(".seg")
        }
        assert files_before <= files_crashed  # stale files still on disk
        back = SegmentBagStore(str(tmp_path), resident_bytes=512, reopen=True)
        files_after = {
            name for name in os.listdir(tmp_path) if name.endswith(".seg")
        }
        assert files_before.isdisjoint(files_after)  # stale files gone
        assert back.finalize_bag("b") == (0, 0)
        assert chunks_of(back) == [payload(i) for i in range(20, 32)]


# ---------------------------------------------------------------------------
# Compaction: Hypothesis model test over arbitrary interleavings


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("remove"), st.integers(1, 5)),
        st.tuples(st.just("finalize"), st.just(0)),
        st.tuples(st.just("reopen"), st.just(0)),
    ),
    max_size=30,
)


class TestCompactionModel:
    @given(filled=st.integers(0, 24), ops=_ops)
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving_matches_model(self, filled, ops):
        # A sealed bag (finalize answers (0, 0) on an open one — see the
        # guards test) drained, compacted and reopened in any order. The
        # model: pending/consumed FIFO lists. Invariant after every op:
        # the paged read is exactly consumed-prefix + pending-suffix (a
        # finalize drops the consumed prefix), remaining() matches, and
        # remove_batch only ever serves the model's pending head.
        with tempfile.TemporaryDirectory() as root:
            kwargs = dict(
                resident_bytes=256,
                segment_target_bytes=256,
                compact_every=8,  # exercise index folds mid-sequence too
            )
            store = SegmentBagStore(root, **kwargs)
            bag = store.get("b")
            pending = [(f"c#{i:04d}", bytes([i]) * 48) for i in range(filled)]
            for cid, data in pending:
                bag.insert_id(cid, data)
            bag.seal()
            consumed = []
            for seq, (op, arg) in enumerate(ops, start=1):
                if op == "remove":
                    pairs, _ = bag.remove_batch(arg, "w", seq)
                    assert pairs == pending[: len(pairs)]
                    assert len(pairs) == min(arg, len(pending))
                    consumed.extend(pending[: len(pairs)])
                    del pending[: len(pairs)]
                elif op == "finalize":
                    segs, _reclaimed = store.finalize_bag("b")
                    assert (segs > 0) == bool(consumed)
                    consumed.clear()
                elif op == "reopen":
                    store.close()
                    store = SegmentBagStore(root, reopen=True, **kwargs)
                    bag = store.get("b")
                assert chunks_of(store) == [
                    data for _cid, data in consumed + pending
                ]
                assert bag.remaining() == len(pending)
                assert bag.sealed
            store.close()


# ---------------------------------------------------------------------------
# End to end: the dist engine drives compaction and survives kills in it


class TestCompactionEndToEnd:
    def run_spill(self, **kwargs):
        records = clicklog_records()
        expected = clicklog_baseline(records)
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=3,
            shards=2,
            chunk_size=2048,
            resident_bytes=8192,
            **kwargs,
        ).run({"clicklog": records}, timeout=180)
        return result, clicklog_counts(result), expected

    def test_spill_run_compacts_finished_inputs(self):
        # The master finalizes each bag once its consumer family is done;
        # the fully-drained source alone guarantees a real reclaim, and
        # the counters must surface in the result (bench reports them).
        result, counts, expected = self.run_spill()
        assert counts == expected
        assert result.segments_compacted > 0
        assert result.bytes_reclaimed > 0
        assert result.family_resets == 0

    @pytest.mark.parametrize("stage", ["written", "indexed"])
    def test_shard_killed_mid_compaction_zero_resets(self, stage):
        # The victim homes the source bag, so the master's finalize RPC
        # lands there and the injected kill fires inside the chosen
        # crash window. r=1 recovery reopens the segment directory: no
        # data was lost in either window, so no family ever resets and
        # the retried finalize converges.
        victim = ShardRouter(2).home("clicklog")
        result, counts, expected = self.run_spill(
            kill_shard=victim, kill_shard_in_compaction=stage
        )
        assert result.shard_deaths == 1
        assert result.family_resets == 0
        assert counts == expected

    def test_replicated_shard_killed_mid_compaction(self):
        # r=2: the death inside compaction is absorbed by failover and
        # the resync ships the (possibly compacted) segments — still
        # zero resets, still byte-identical sinks.
        victim = ShardRouter(2).home("clicklog")
        result, counts, expected = self.run_spill(
            replication=2,
            kill_shard=victim,
            kill_shard_in_compaction="indexed",
        )
        assert result.shard_deaths == 1
        assert result.family_resets == 0
        assert counts == expected

    def test_kill_in_compaction_settings_validated(self):
        with pytest.raises(ValueError):
            DistRuntime(
                build_clicklog_local(regions=REGIONS),
                shards=2,
                resident_bytes=8192,
                kill_shard=0,
                kill_shard_in_compaction="sideways",
            )
        with pytest.raises(ValueError):
            DistRuntime(
                build_clicklog_local(regions=REGIONS),
                shards=2,
                resident_bytes=8192,
                kill_shard_in_compaction="written",  # no victim named
            )
        with pytest.raises(ValueError):
            DistRuntime(
                build_clicklog_local(regions=REGIONS),
                shards=2,
                kill_shard=0,
                kill_shard_in_compaction="written",  # no spill, no compaction
            )
