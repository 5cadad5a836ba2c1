"""Tests for the local real-execution engine."""

import pytest

from repro.errors import SchedulingError
from repro.local import LocalRuntime
from repro.merges import Bitset
from repro.model import Application


def _wordcount_app():
    """Streaming map + aggregation with a counter-style merge."""
    app = Application("wordcount")
    src = app.bag("lines", codec="str")
    words = app.bag("words", codec="str")
    counts = app.bag("counts")

    def tokenize(ctx):
        for line in ctx.records():
            for word in line.split():
                ctx.emit("words", word)

    def count(ctx):
        from collections import Counter

        counter = Counter()
        for word in ctx.records():
            counter[word] += 1
        return counter

    app.task("tokenize", [src], [words], fn=tokenize)
    app.task("count", [words], [counts], fn=count, merge="counter")
    return app


def test_wordcount_end_to_end():
    lines = ["the cat sat", "the dog sat", "the cat ran"]
    runtime = LocalRuntime(_wordcount_app(), workers=2)
    result = runtime.run({"lines": lines})
    counter = result.value("counts")
    assert counter["the"] == 3 and counter["cat"] == 2 and counter["ran"] == 1


def test_empty_input():
    runtime = LocalRuntime(_wordcount_app(), workers=2)
    result = runtime.run({"lines": []})
    assert result.value("counts") == {}


def test_worker_count_does_not_change_result():
    lines = [f"w{i % 17} w{i % 5}" for i in range(2000)]
    results = []
    for workers in (1, 4, 8):
        runtime = LocalRuntime(_wordcount_app(), workers=workers, chunk_size=512)
        results.append(runtime.run({"lines": lines}).value("counts"))
    assert results[0] == results[1] == results[2]


def test_cloning_does_not_change_result():
    lines = [f"word{i % 11}" for i in range(5000)]
    base = LocalRuntime(_wordcount_app(), workers=1, cloning=False).run(
        {"lines": lines}
    )
    cloned_rt = LocalRuntime(
        _wordcount_app(), workers=8, cloning=True, chunk_size=256, clone_min_chunks=1
    )
    cloned = cloned_rt.run({"lines": lines})
    assert base.value("counts") == cloned.value("counts")


def test_exactly_once_record_processing():
    lines = [f"unique-{i}" for i in range(3000)]
    runtime = LocalRuntime(
        _wordcount_app(), workers=6, cloning=True, chunk_size=256, clone_min_chunks=1
    )
    result = runtime.run({"lines": lines})
    counter = result.value("counts")
    assert len(counter) == 3000
    assert all(count == 1 for count in counter.values())


def test_aggregation_must_return_value():
    app = Application("bad")
    src = app.bag("src", codec="u64")
    out = app.bag("out")
    app.task("agg", [src], [out], fn=lambda ctx: None, merge="sum")
    with pytest.raises(SchedulingError, match="returned None"):
        LocalRuntime(app, workers=1).run({"src": [1, 2]})


def test_streaming_task_must_not_return_value():
    app = Application("bad2")
    src = app.bag("src", codec="u64")
    out = app.bag("out", codec="u64")
    app.task("map", [src], [out], fn=lambda ctx: 42)
    with pytest.raises(SchedulingError, match="declares no merge"):
        LocalRuntime(app, workers=1).run({"src": [1]})


def test_task_without_fn_rejected():
    app = Application("nofn")
    src = app.bag("src", codec="u64")
    out = app.bag("out", codec="u64")
    app.task("t", [src], [out])
    with pytest.raises(SchedulingError, match="no fn"):
        LocalRuntime(app, workers=1).run({"src": [1]})


def test_task_error_surfaces():
    app = Application("boom")
    src = app.bag("src", codec="u64")
    out = app.bag("out", codec="u64")

    def bad(ctx):
        for _ in ctx.records():
            raise ValueError("task exploded")

    app.task("t", [src], [out], fn=bad)
    with pytest.raises(ValueError, match="task exploded"):
        LocalRuntime(app, workers=2).run({"src": [1, 2, 3]})


def test_side_inputs_fully_visible_to_every_clone():
    app = Application("join-ish")
    stream = app.bag("stream", codec="u64")
    side = app.bag("side", codec="u64")
    out = app.bag("out")
    sink = app.bag("sink", codec="u64")
    app.task("fill-side", [side], [sink], fn=lambda ctx: ctx.emit(None, sum(ctx.records())) )

    def probe(ctx):
        keys = set(ctx.side_records(0))
        hits = 0
        for value in ctx.records():
            if value in keys:
                hits += 1
        return hits

    # side is consumed by fill-side; use a fresh bag for the probe state
    side2 = app.bag("side2", codec="u64")
    app.task("probe", [stream, side2], [out], fn=probe, merge="sum")
    runtime = LocalRuntime(app, workers=4, chunk_size=256, clone_min_chunks=1)
    result = runtime.run(
        {
            "stream": list(range(2000)),
            "side": [1, 2, 3],
            "side2": list(range(0, 2000, 2)),
        }
    )
    assert result.value("out") == 1000


def test_clone_counts_reported():
    lines = [f"word{i}" for i in range(8000)]
    runtime = LocalRuntime(
        _wordcount_app(), workers=8, cloning=True, chunk_size=128, clone_min_chunks=1
    )
    result = runtime.run({"lines": lines})
    assert result.total_clones() >= 1
    assert result.records_processed >= len(lines)


def test_unknown_input_bag_rejected():
    runtime = LocalRuntime(_wordcount_app(), workers=1)
    with pytest.raises(SchedulingError, match="non-source"):
        runtime.run({"lines": [], "bogus": [1]})


def test_a_second_run_is_refused():
    # The first run sealed the source bag and finished every family: a
    # second would fill nothing and schedule nothing.
    runtime = LocalRuntime(_wordcount_app(), workers=2)
    assert runtime.run({"lines": ["a b", "a"]}).value("counts") == {"a": 2, "b": 1}
    with pytest.raises(SchedulingError, match="runs once"):
        runtime.run({"lines": ["c"]})


def test_bitset_merge_pipeline():
    app = Application("distinct")
    src = app.bag("src", codec="u64")
    out = app.bag("out")

    def distinct(ctx):
        bits = Bitset()
        for value in ctx.records():
            bits.set(value)
        return bits

    app.task("distinct", [src], [out], fn=distinct, merge="bitset_union")
    values = [i % 97 for i in range(3000)]
    runtime = LocalRuntime(app, workers=6, chunk_size=128, clone_min_chunks=1)
    result = runtime.run({"src": values})
    assert result.value("out").count() == 97
