"""Tests for file-backed bags (the paper's ext4 representation)."""

import threading

import pytest

from repro.apps import build_clicklog_local
from repro.errors import BagError, BagSealedError
from repro.local import LocalRuntime
from repro.storage.filebag import FileBag, FileBagStore
from repro.workloads.clicklog_data import exact_distinct_counts, generate_clicklog


@pytest.fixture
def bag(tmp_path):
    return FileBag("test", tmp_path / "test.bag")


class TestFileBag:
    def test_insert_remove_fifo(self, bag):
        bag.insert(b"one")
        bag.insert(b"two")
        assert bag.remove() == b"one"
        assert bag.remove() == b"two"
        assert bag.remove() is None

    def test_sealed_rejects_insert(self, bag):
        bag.seal()
        with pytest.raises(BagSealedError):
            bag.insert(b"late")

    def test_a_frame_is_the_chunk(self, tmp_path):
        """No marker byte, no pickle arm: the payload is stored verbatim, and
        a run of empty chunks is not mistaken for the seal mark on reopen."""
        path = tmp_path / "opaque.bag"
        bag = FileBag("opaque", path)
        chunks = [b"", b"", b"\x00\x00", b"\x80\x00", b""]
        for chunk in chunks:
            bag.insert(chunk)
        bag.close()
        assert path.read_bytes() == b"\x00\x00\x02\x00\x00\x02\x80\x00\x00"
        reopened = FileBag.open("opaque", path)
        assert not reopened.sealed
        assert reopened.read_all() == chunks
        reopened.seal()
        reopened.close()
        sealed = FileBag.open("opaque", path)
        assert sealed.sealed and sealed.read_all() == chunks
        sealed.close()

    def test_rewind_and_read_all(self, bag):
        for i in range(5):
            bag.insert(bytes([i]))
        assert bag.remove() == b"\x00"
        assert bag.read_all() == [bytes([i]) for i in range(5)]
        bag.rewind()
        assert bag.remove() == b"\x00"
        assert bag.remaining() == 4

    def test_discard_truncates(self, bag):
        bag.insert(b"x")
        bag.seal()
        bag.discard()
        assert bag.size() == 0 and not bag.sealed
        bag.insert(b"fresh")

    def test_state_survives_reopen(self, tmp_path):
        """Open() rebuilds the index by scanning the file (crash replay)."""
        path = tmp_path / "durable.bag"
        bag = FileBag("durable", path)
        for i in range(10):
            bag.insert(f"chunk-{i}".encode())
        bag.seal()
        bag.close()
        reopened = FileBag.open("durable", path)
        assert reopened.sealed
        assert reopened.size() == 10
        assert reopened.remove() == b"chunk-0"
        reopened.close()

    def test_reopen_unsealed(self, tmp_path):
        path = tmp_path / "open.bag"
        bag = FileBag("open", path)
        bag.insert(b"a")
        bag.close()
        reopened = FileBag.open("open", path)
        assert not reopened.sealed
        reopened.insert(b"b")
        assert reopened.read_all() == [b"a", b"b"]
        reopened.close()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bag"
        path.write_bytes(b"\x50only-a-header")
        with pytest.raises(BagError, match="truncated|corrupt"):
            FileBag.open("bad", path)

    def test_concurrent_exactly_once(self, bag):
        n = 1000
        for i in range(n):
            bag.insert(i.to_bytes(4, "big"))
        bag.seal()
        taken = [[] for _ in range(6)]

        def consume(out):
            while True:
                chunk = bag.remove()
                if chunk is None:
                    return
                out.append(chunk)

        threads = [
            threading.Thread(target=consume, args=(taken[i],)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        combined = [c for out in taken for c in out]
        assert sorted(combined) == [i.to_bytes(4, "big") for i in range(n)]

    def test_remove_wait_unblocks_on_seal(self, bag):
        result = []
        thread = threading.Thread(
            target=lambda: result.append(bag.remove_wait(timeout=5))
        )
        thread.start()
        bag.seal()
        thread.join(timeout=5)
        assert result == [None]


class TestFileBagStore:
    def test_create_get(self, tmp_path):
        store = FileBagStore(tmp_path)
        bag = store.create("a")
        assert store.get("a") is bag
        assert "a" in store
        with pytest.raises(BagError):
            store.create("a")
        store.close()

    def test_path_sanitization(self, tmp_path):
        store = FileBagStore(tmp_path)
        bag = store.ensure("region.usa/shard")
        bag.insert(b"x")
        assert (tmp_path / "region.usa_shard.bag").exists()
        store.close()


class TestLocalRuntimeOnDisk:
    def test_cloned_aggregation_on_file_backed_bags(self, tmp_path):
        """Cloning + merge reconciliation with partials pickled to disk."""
        from collections import Counter

        from repro.model import Application

        app = Application("wc-disk")
        src = app.bag("src", codec="str")
        out = app.bag("out")
        app.task(
            "count",
            [src],
            [out],
            fn=lambda ctx: Counter(ctx.records()),
            merge="counter",
        )
        words = [f"w{i % 13}" for i in range(4000)]
        runtime = LocalRuntime(
            app,
            workers=6,
            cloning=True,
            chunk_size=256,
            clone_min_chunks=1,
            store=FileBagStore(tmp_path),
        )
        result = runtime.run({"src": words}, timeout=120)
        assert result.value("out") == Counter(words)

    def test_clicklog_on_file_backed_bags(self, tmp_path):
        """The whole local engine running on real files."""
        records = [
            ip for ip in generate_clicklog(8000, skew=0.0, seed=6)
            if (ip >> 26) < 2
        ]
        app = build_clicklog_local(regions=["usa", "china"])
        runtime = LocalRuntime(app, workers=4, store=FileBagStore(tmp_path))
        result = runtime.run({"clicklog": records}, timeout=120)
        expected = exact_distinct_counts(records)
        for region in ("usa", "china"):
            assert result.value(f"count.{region}") == expected[region]
        # The bags really are on disk.
        assert any(tmp_path.glob("*.bag"))
