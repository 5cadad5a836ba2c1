"""A bag declared without a codec is a bag like any other, on both engines.

Its chunks are bytes (the pickle codec), so: a task owns the records it
reads and cannot reach the bag, or the caller's input, through them; a
storage shard never unpickles one; and an aggregate nobody sized travels
whatever ``chunk_size`` is — un-cloned, cloned and merged, and replayed.
"""

import multiprocessing
import os

import pytest

from repro.dist import DistRuntime
from repro.errors import SchedulingError
from repro.local import LocalRuntime
from repro.merges import Bitset
from repro.model import Application


def run_on(engine, app, inputs, **kwargs):
    """Run with exactly the clones ``forced_clones`` names, all bags readable."""
    kwargs.update(workers=3, cloning=False)
    if engine == "local":
        return LocalRuntime(app, **kwargs).run(inputs, timeout=60)
    return DistRuntime(app, snapshot_bags="all", **kwargs).run(inputs, timeout=120)


# -- a task cannot mutate a bag through its records ----------------------------


def marking_app():
    """One task marks every record it reads, streamed or side-read (a clone
    re-reads the side input), and reports the side input as it found it."""
    app = Application("marks")
    app.bag("src")
    app.bag("ref")
    app.bag("marked")
    app.bag("found")

    def mark(ctx):
        side = list(ctx.side_records(0))
        ctx.emit_many("found", [list(record) for record in side])
        for record in side:
            record.append("seen")
        for record in ctx.records():
            record.append("seen")
            ctx.emit("marked", record)

    app.task("mark", ["src", "ref"], ["marked", "found"], fn=mark)
    return app


@pytest.mark.parametrize("clones", [0, 2])
@pytest.mark.parametrize("engine", ["local", "dist"])
def test_a_task_cannot_mutate_a_bag_through_its_records(engine, clones):
    mine = {"src": [[i] for i in range(1, 3 + 30 * clones)], "ref": [["a"], ["b"]]}
    pristine = {bag_id: [list(r) for r in records] for bag_id, records in mine.items()}
    result = run_on(
        engine, marking_app(), mine, chunk_size=64, forced_clones={"mark": clones}
    )
    assert result.clone_counts["mark"] == 1 + clones
    assert sorted(result.records("marked")) == [[*r, "seen"] for r in pristine["src"]]
    # The bags, read after the task — and by every member before and after
    # another one marked its own copy — and the caller's own lists. A bag
    # is unordered: on dist, a source bag's input tasks land their chunks
    # in any order.
    assert sorted(result.records("src")) == pristine["src"]
    assert sorted(result.records("ref")) == pristine["ref"]
    assert sorted(result.records("found")) == sorted(pristine["ref"] * (1 + clones))
    assert mine == pristine


# -- a shard never unpickles a record ------------------------------------------


class Probe:
    """A record that logs the process unpickling it."""

    log = None

    def __init__(self, value):
        self.value = value

    def __getstate__(self):
        return {"value": self.value, "log": self.log}

    def __setstate__(self, state):
        self.value, self.log = state["value"], state["log"]
        with open(self.log, "a") as log:
            log.write(f"{multiprocessing.current_process().name} {os.getpid()}\n")


@pytest.mark.parametrize("resident_bytes", [None, 64])
def test_a_shard_never_unpickles_a_record(tmp_path, resident_bytes):
    app = Application("probe")
    app.bag("src")
    app.bag("mid")
    app.bag("out")

    def forward(ctx):
        for batch in ctx.batches():
            ctx.emit_many(None, batch)

    app.task("a", ["src"], ["mid"], fn=forward)
    app.task("b", ["mid"], ["out"], fn=forward)
    Probe.log = str(tmp_path / "loads.log")
    try:
        result = DistRuntime(
            app, workers=1, shards=2, replication=2, resident_bytes=resident_bytes
        ).run({"src": [Probe(i) for i in range(3)]}, timeout=120)
    finally:
        Probe.log = None
    assert [probe.value for probe in result.records("out")] == [0, 1, 2]
    loaders = [line.split() for line in open(tmp_path / "loads.log")]
    # Two task reads and the result snapshot; every one in the master or a
    # worker (9 more in ``dist-shard-*`` when a chunk was a record list).
    assert len(loaders) == 9
    assert {name for name, _ in loaders if name.startswith("dist-shard")} == set()
    assert {int(pid) for name, pid in loaders if name == "MainProcess"} == {os.getpid()}


# -- an aggregate nobody sized ---------------------------------------------------

WIDE = 64 * 1024 * 8  # bits: a 64 KiB bitset


def wide_bitset_app():
    app = Application("wide")
    app.bag("keys", codec="u64")
    app.bag("bits")
    app.bag("count")

    def collect(ctx):
        bits = Bitset()
        for batch in ctx.batches():
            bits.update(batch)
        return bits

    def count(ctx):
        return sum(bits.count() for bits in ctx.records())

    app.task("collect", ["keys"], ["bits"], fn=collect, merge="bitset_union")
    app.task("count", ["bits"], ["count"], fn=count, merge="sum")
    return app


@pytest.mark.parametrize(
    "engine,kwargs",
    [
        ("local", {}),
        ("local", {"forced_clones": {"collect": 2}}),
        ("dist", {}),
        ("dist", {"forced_clones": {"collect": 2}}),
        ("dist", {"kill_task": "collect", "kill_after_chunks": 2}),
    ],
    ids=["local", "local-cloned", "dist", "dist-cloned", "dist-killed"],
)
def test_an_aggregate_larger_than_a_chunk_survives(engine, kwargs):
    keys = [*range(0, WIDE, 997), WIDE - 1]
    result = run_on(
        engine, wide_bitset_app(), {"keys": keys}, chunk_size=1024, **kwargs
    )
    assert result.clone_counts["collect"] == 1 + kwargs.get("forced_clones", {}).get(
        "collect", 0
    )
    if "kill_task" in kwargs:
        assert result.worker_deaths == 1 and result.family_resets == 1
    assert result.value("bits") == Bitset.from_keys(keys)
    assert len(result.value("bits").to_bytes()) == 64 * 1024
    assert result.value("count") == len(keys)


# -- LocalRuntime.run validates before it works ----------------------------------


def test_local_run_refuses_unknown_inputs_before_consuming_any():
    consumed = []

    def lines():
        for line in ("a", "b"):
            consumed.append(line)
            yield line

    app = Application("checked")
    app.bag("src", codec="str")
    app.bag("out", codec="str")
    app.task("t", ["src"], ["out"], fn=lambda ctx: None)
    runtime = LocalRuntime(app, workers=1)
    with pytest.raises(SchedulingError, match="non-source bags"):
        runtime.run({"src": lines(), "out": ["x"]})
    assert consumed == []
    assert "src" not in runtime.store  # nothing filled, nothing sealed
