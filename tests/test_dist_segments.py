"""Layered segment storage: spill beyond a resident budget, recover from disk.

Unit half: what only the store over a :class:`SegmentBacking` can show
— write-through appends with a bounded hot cache, reopen from an intact
directory (torn tails physically truncated, removal log restored), and
``pull``/``push`` shipping sealed segments as raw bytes. The bag
contract, which is the same at either backing, is
``test_dist_bag_contract.py``.

End-to-end half: a dist run whose dataset exceeds the per-shard budget
must still match the LocalRuntime baseline byte-for-byte, and the two
recovery modes the segments enable must hold their headline guarantees —
r=1 shard respawn *reopens* its directory with zero ``reset_families``,
r>1 resync ships sealed segments instead of chunk-by-chunk snapshots.
"""

import os

import pytest

from repro.apps import build_clicklog_local
from repro.dist import DistRuntime, ShardRouter
from repro.dist.journal import FRAME_HEADER_BYTES, pack_frame
from repro.dist.segments import SegmentBagStore

from tests.test_dist_bag_contract import chunks_of, payload
from tests.test_dist_runtime import (
    REGIONS,
    clicklog_baseline,
    clicklog_counts,
    clicklog_records,
)




class TestSegmentStoreUnit:
    def test_spill_evict_fault_in(self, tmp_path):
        # A budget far below the dataset: everything lands on disk, the
        # hot cache churns, and every chunk is still readable (faulted
        # back in by location).
        store = SegmentBagStore(str(tmp_path), resident_bytes=512)
        bag = store.ensure("b")
        for i in range(64):
            bag.insert_id(f"c#{i}", payload(i))
        stats = store.spill_stats()
        assert stats["evictions"] > 0
        assert stats["spilled_bytes"] > 512
        assert chunks_of(store) == [payload(i) for i in range(64)]
        assert store.spill_stats()["faults"] > 0

    def test_resident_peak_bounded_by_budget_plus_one_frame(self, tmp_path):
        # Eviction runs after the insert is cached, so the peak may
        # overshoot the budget by at most one frame — never more.
        budget = 1024
        store = SegmentBagStore(str(tmp_path), resident_bytes=budget)
        bag = store.ensure("b")
        frame = len(pack_frame(("c#0", payload(0))))
        for i in range(64):
            bag.insert_id(f"c#{i}", payload(i))
        assert store.spill_stats()["resident_peak_bytes"] <= budget + frame

    def test_reopen_restores_membership_markers_and_dedup(self, tmp_path):
        store = SegmentBagStore(str(tmp_path), resident_bytes=256)
        bag = store.ensure("b")
        for i in range(16):
            bag.insert_id(f"c#{i}", payload(i))
        popped, _ = bag.remove_batch(5, "w1", 3)
        bag.seal()
        store.close()

        reopened = SegmentBagStore(
            str(tmp_path), resident_bytes=256, reopen=True
        )
        back = reopened.get("b")
        assert back.sealed
        assert back.remaining() == 16 - 5
        assert chunks_of(reopened) == [payload(i) for i in range(16)]
        # The removal-log tail survived: the same (client, seq) retry
        # returns the recorded pops, not fresh chunks.
        replay, sealed = back.remove_batch(5, "w1", 3)
        assert [cid for cid, _ in replay] == [cid for cid, _ in popped]
        assert not sealed  # the recorded reply keeps its at-serve seal state

    def test_reopen_truncates_torn_tail(self, tmp_path):
        store = SegmentBagStore(str(tmp_path))
        bag = store.ensure("b")
        for i in range(4):
            bag.insert_id(f"c#{i}", payload(i))
        store.close()
        # Tear the open tail mid-frame, as an os._exit between the two
        # halves of an append would.
        (seg_file,) = [
            name for name in os.listdir(tmp_path) if name.endswith(".seg")
        ]
        path = tmp_path / seg_file
        intact = os.path.getsize(path)
        with open(path, "ab") as fobj:
            fobj.write(pack_frame(("c#4", payload(4)))[: FRAME_HEADER_BYTES + 3])

        reopened = SegmentBagStore(str(tmp_path), reopen=True)
        back = reopened.get("b")
        assert chunks_of(reopened) == [payload(i) for i in range(4)]
        assert os.path.getsize(path) == intact  # torn frame physically gone
        back.insert_id("c#4", payload(4))  # the tail is appendable again
        assert chunks_of(reopened)[-1] == payload(4)

    def test_reopen_after_rewind_and_discard(self, tmp_path):
        store = SegmentBagStore(str(tmp_path))
        keep, drop = store.ensure("keep"), store.ensure("drop")
        for i in range(6):
            keep.insert_id(f"k#{i}", payload(i))
            drop.insert_id(f"d#{i}", payload(i))
        keep.remove_batch(4, "w1", 1)
        keep.rewind()
        drop.discard()
        store.close()

        reopened = SegmentBagStore(str(tmp_path), reopen=True)
        assert reopened.get("keep").remaining() == 6  # rewind stuck
        assert reopened.get("drop").size() == 0  # discard stuck
        assert chunks_of(reopened, "keep") == [payload(i) for i in range(6)]

    def test_push_installs_sealed_segments_once(self, tmp_path):
        # Tiny segment target so the source rolls several sealed
        # segments; the package must carry them as raw bytes and the
        # receiver must install each exactly once.
        src = SegmentBagStore(
            str(tmp_path / "src"), segment_target_bytes=128
        )
        bag = src.ensure("b")
        for i in range(24):
            bag.insert_id(f"c#{i}", payload(i))
        bag.remove_batch(5, "w1", 2)
        bag.seal()
        package = src.pull(["b"])
        assert package["b"]["segments"]  # sealed segments travel as bytes

        dst = SegmentBagStore(str(tmp_path / "dst"))
        dst.push(package)
        copy = dst.get("b")
        assert chunks_of(dst) == chunks_of(src)
        assert copy.remaining() == bag.remaining()
        assert copy.sealed
        written = dst.spill_stats()["segments_written"]
        dst.push(package)  # replayed ship: a no-op
        assert dst.get("b").remaining() == bag.remaining()
        assert dst.spill_stats()["segments_written"] == written
        # The shipped dedup tail holds on the receiver too.
        replay, _ = copy.remove_batch(5, "w1", 2)
        assert len(replay) == 5

    def test_reopen_after_push_keeps_chunk_order(self, tmp_path):
        # Shipped segments are installed *above* the receiver's open
        # tail, which is rolled first: file order stays chunk order, so
        # the scan on reopen reproduces the order cursors and FIFO
        # removal were following. (Found by the differential test in
        # test_dist_bag_contract.py; the tail used to stay open below
        # the installed files and later chunks jumped the queue.)
        src = SegmentBagStore(str(tmp_path / "src"), segment_target_bytes=128)
        for i in range(1, 4):
            src.ensure("b").insert_id(f"c#{i}", payload(i))
        dst = SegmentBagStore(str(tmp_path / "dst"), segment_target_bytes=128)
        dst.ensure("b").insert_id("c#0", payload(0))
        dst.push(src.pull(["b"]))
        dst.ensure("b").insert_id("c#4", payload(4))
        live = chunks_of(dst)
        assert live == [payload(i) for i in range(5)]
        dst.close()
        back = SegmentBagStore(str(tmp_path / "dst"), reopen=True)
        assert chunks_of(back) == live

    def test_unbudgeted_store_still_spills_but_never_evicts(self, tmp_path):
        store = SegmentBagStore(str(tmp_path))  # resident_bytes=None
        bag = store.ensure("b")
        for i in range(32):
            bag.insert_id(f"c#{i}", payload(i))
        stats = store.spill_stats()
        assert stats["spilled_bytes"] > 0
        assert stats["evictions"] == 0 and stats["faults"] == 0


class TestSegmentSettings:
    def test_resident_bytes_must_be_positive(self):
        with pytest.raises(ValueError):
            DistRuntime(
                build_clicklog_local(regions=REGIONS),
                shards=2,
                resident_bytes=0,
            )

    def test_segment_dir_requires_resident_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            DistRuntime(
                build_clicklog_local(regions=REGIONS),
                shards=2,
                segment_dir=str(tmp_path),
            )


class TestSegmentsEndToEnd:
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

    def test_beyond_budget_parity_and_bounded_residency(self):
        # The dataset dwarfs the 8 KiB per-shard budget: the run must
        # spill (sealed segments written) yet keep the hot set bounded
        # and the sinks byte-identical to the no-fault baseline.
        result, counts, expected = self.run_spill()
        assert counts == expected
        assert result.segments_written > 0
        assert result.family_resets == 0
        # Eviction trails each insert by at most one frame.
        assert result.resident_peak_bytes <= 8192 + 4096
        assert result.shard_rss_hwm_kb > 0

    def test_r1_shard_kill_reopens_with_zero_resets(self):
        # The headline r=1 guarantee: the respawn reopens its segment
        # directory instead of the master refilling and replaying — no
        # family ever resets, and the sinks still match.
        victim = ShardRouter(2).home("clicklog")
        result, counts, expected = self.run_spill(
            kill_shard=victim, kill_shard_after_ops=3
        )
        assert result.shard_deaths == 1
        assert result.family_resets == 0
        assert not result.segment_resync  # reopen, not re-ship
        assert counts == expected

    def test_r2_shard_kill_resyncs_by_shipping_segments(self):
        victim = ShardRouter(2).home("clicklog")
        result, counts, expected = self.run_spill(
            replication=2, kill_shard=victim, kill_shard_after_ops=3
        )
        assert result.shard_deaths == 1
        assert result.family_resets == 0
        assert result.segment_resync  # resync shipped segment packages
        assert counts == expected

    def test_caller_owned_segment_dir_is_used(self, tmp_path):
        result, counts, expected = self.run_spill(segment_dir=str(tmp_path))
        assert counts == expected
        assert any(
            name.endswith(".seg")
            for _root, _dirs, files in os.walk(tmp_path)
            for name in files
        )
