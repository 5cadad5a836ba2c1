"""The shared engine helpers both runtimes are built on."""

import pytest

from repro.engine.common import (
    bag_records,
    decode_bag_chunks,
    emit_value,
    fill_bag,
    fold_partials,
    resolve_merge,
)
from repro.errors import SchedulingError
from repro.model.application import Application
from repro.storage.local import LocalBagStore


def graph_with(codec=None):
    app = Application("t")
    app.bag("b", codec=codec)
    app.bag("other", codec="u64")
    app.task("t", ["b"], ["other"], fn=lambda ctx: None)
    return app.graph


class TestFillAndRead:
    def test_typed_roundtrip(self):
        graph = graph_with(codec="u64")
        store = LocalBagStore()
        records = list(range(1000))
        fill_bag(store, graph, "b", records, chunk_size=256)
        assert store.get("b").sealed
        assert store.get("b").size() > 1  # actually chunked
        assert bag_records(store, graph, "b") == records

    def test_object_roundtrip_batches(self):
        graph = graph_with(codec=None)
        store = LocalBagStore()
        records = [{"k": i} for i in range(10)]
        fill_bag(store, graph, "b", records, chunk_size=64)
        chunks = store.get("b").read_all()
        # Byte chunks like any other bag's, cut by size: nothing in a store
        # is a record list.
        assert len(chunks) > 1
        assert all(type(c) is bytes and len(c) <= 64 for c in chunks)
        assert bag_records(store, graph, "b") == records

    def test_empty_fill_seals(self):
        graph = graph_with(codec="u64")
        store = LocalBagStore()
        fill_bag(store, graph, "b", [], chunk_size=256)
        assert store.get("b").sealed
        assert bag_records(store, graph, "b") == []

    def test_decode_matches_fill(self):
        graph = graph_with(codec="u64")
        store = LocalBagStore()
        fill_bag(store, graph, "b", [7, 8, 9], chunk_size=64)
        assert decode_bag_chunks(graph, "b", store.get("b").read_all()) == [7, 8, 9]


class TestEmitValue:
    def test_object_bag_single_record(self):
        graph = graph_with(codec=None)
        store = LocalBagStore()
        store.ensure("b")
        emit_value(store, graph, "b", {"total": 3})
        assert bag_records(store, graph, "b") == [{"total": 3}]

    def test_typed_bag_single_record(self):
        graph = graph_with(codec="u64")
        store = LocalBagStore()
        store.ensure("b")
        emit_value(store, graph, "b", 42)
        assert bag_records(store, graph, "b") == [42]

    def test_an_aggregate_larger_than_a_chunk_travels(self):
        graph = graph_with(codec="bytes")
        store = LocalBagStore()
        store.ensure("b")
        emit_value(store, graph, "b", bytes(100_000))
        assert bag_records(store, graph, "b") == [bytes(100_000)]

    def test_a_bag_outside_the_graph_is_codec_less(self):
        # A clone's partial bag: no declaration, so the pickle codec.
        graph = graph_with(codec="u64")
        store = LocalBagStore()
        store.ensure("t#partial.1")
        emit_value(store, graph, "t#partial.1", {"total": 3})
        assert bag_records(store, graph, "t#partial.1") == [{"total": 3}]


class TestMergeHelpers:
    def test_resolve_named_merge(self):
        app = Application("m")
        app.bag("i", codec="u64")
        app.bag("o")
        spec = app.task("t", ["i"], ["o"], fn=lambda ctx: 0, merge="sum")
        assert resolve_merge(spec)(2, 3) == 5

    def test_resolve_callable_merge(self):
        app = Application("m")
        app.bag("i", codec="u64")
        app.bag("o")
        spec = app.task("t", ["i"], ["o"], fn=lambda ctx: 0, merge=lambda a, b: a * b)
        assert resolve_merge(spec)(2, 3) == 6

    def test_fold_left_associative(self):
        assert fold_partials(lambda a, b: f"({a}+{b})", "t", ["x", "y", "z"]) == "((x+y)+z)"

    def test_fold_single_partial(self):
        assert fold_partials(lambda a, b: a + b, "t", [41]) == 41

    def test_fold_empty_raises(self):
        with pytest.raises(SchedulingError, match="no partials"):
            fold_partials(lambda a, b: a + b, "t", [])
