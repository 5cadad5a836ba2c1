"""Input is a task: the dist engine's source bags are filled on the workers.

``DistRuntime`` adds ``workers`` input tasks per source bag to the graph
it drives (``with_input_tasks``); each emits one slice of the bag's
records through the ordinary task output path. So the fill can fail the
way any task can — its worker dies, the shard homing the bag dies, the
master dies — and each failure recovers the one way any bag is
recovered: the loss closure resets the bag's producers. The kills below
are fork-inherited monkeypatches armed before ``run()``, each fired once
(a flag file lets the re-run live); every case ends with sinks equal to
the engine-free reference, after exactly one recovery.
"""

import os

import pytest

from repro.apps import build_clicklog_local
from repro.dist import DistRuntime, MasterKilled, server
from repro.dist import worker as worker_mod
from repro.dist.client import ShardedBagStore
from repro.dist.journal import MasterJournal
from repro.dist.protocol import DistSettings, NodeDescriptor
from repro.dist.runtime import input_task_id, with_input_tasks
from repro.errors import GraphError
from repro.local import LocalRuntime
from repro.model import Application
from repro.workloads.clicklog_data import exact_distinct_counts

from tests.test_dist_runtime import REGIONS, clicklog_counts, clicklog_records

WORKERS = 2
CHUNK_SIZE = 512


def first_time(flag):
    """True for the one process that creates ``flag`` (atomic across forks)."""
    try:
        os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def run_clicklog(inputs, **kwargs):
    return DistRuntime(
        build_clicklog_local(regions=REGIONS),
        workers=WORKERS,
        chunk_size=CHUNK_SIZE,
        **kwargs,
    ).run(inputs, timeout=120)


class TestDerivedGraph:
    def test_each_source_bag_gets_workers_input_tasks(self):
        app = build_clicklog_local(regions=REGIONS)
        runtime = DistRuntime(app, workers=3)
        fill = [input_task_id("clicklog", part) for part in range(3)]
        assert [t.task_id for t in runtime.graph.producers_of("clicklog")] == fill
        assert all(runtime.graph.tasks[t].inputs == () for t in fill)
        assert runtime.graph.source_bags() == []
        # The application's own graph is left as it is.
        assert app.graph.source_bags() == ["clicklog"]
        assert set(app.graph.tasks) == set(runtime.graph.tasks) - set(fill)

    def test_an_input_task_id_that_is_taken_is_refused(self):
        app = Application("taken")
        app.bag("src", codec="u64")
        app.bag("out", codec="u64")
        app.task(input_task_id("src", 0), ["src"], ["out"], fn=lambda ctx: None)
        with pytest.raises(GraphError, match="duplicate task id"):
            with_input_tasks(app.graph, 1, {})

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_source_bag_holds_the_input_as_a_multiset(self, workers):
        # Each input task cuts its own chunks and lands them in any order:
        # the bag holds every record once, in input order only when k = 1.
        records = clicklog_records()
        result = DistRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=workers,
            chunk_size=CHUNK_SIZE,
            snapshot_bags="all",
        ).run({"clicklog": iter(records)}, timeout=120)
        snapshot = result.records("clicklog")
        assert sorted(snapshot) == sorted(records)
        if workers == 1:
            assert snapshot == records
        assert clicklog_counts(result) == exact_distinct_counts(records)


@pytest.mark.parametrize(
    "engine,kwargs",
    [
        ("dist", {"kill_task": "phase-1-typo"}),
        ("dist", {"forced_clones": {"nope": 2}}),
        ("dist", {"kill_task": input_task_id("clicklog", 0)}),
        ("local", {"forced_clones": {"nope": 2}}),
    ],
    ids=["dist-kill", "dist-forced", "dist-kill-input-task", "local-forced"],
)
def test_fault_injection_must_name_a_task_of_the_app(engine, kwargs):
    # A kill that can never fire made the run that asked for it pass
    # vacuously. An input task is not the application's: it reads no
    # chunk, so ``kill_after_chunks`` could never fire on one either.
    engine_cls = DistRuntime if engine == "dist" else LocalRuntime
    with pytest.raises(ValueError, match="names no task of the application"):
        engine_cls(build_clicklog_local(regions=REGIONS), workers=2, **kwargs)


class TestKillDuringFill:
    def test_worker_dies_inside_an_input_task(self, tmp_path, monkeypatch):
        # The worker exits right after an input task's first insert frame
        # goes out: the bag holds part of one slice. Its family and every
        # started input task of the bag reset, the bag is discarded, the
        # fill re-runs.
        flag = str(tmp_path / "died")
        real_submit_round = ShardedBagStore.submit_round

        def submit_round(store, bag_id, op, args):
            submitted = real_submit_round(store, bag_id, op, args)
            if op == "insert" and bag_id == "clicklog" and first_time(flag):
                os._exit(17)
            return submitted

        monkeypatch.setattr(ShardedBagStore, "submit_round", submit_round)
        records = clicklog_records()
        result = run_clicklog({"clicklog": records})
        assert os.path.exists(flag)
        assert (result.worker_deaths, result.shard_deaths) == (1, 0)
        assert result.family_resets >= 1
        assert clicklog_counts(result) == exact_distinct_counts(records)

    @pytest.mark.parametrize("form", ["list", "generator"])
    def test_source_shard_dies_during_the_fill(self, tmp_path, monkeypatch, form):
        # The r=1 memory shard homing the source exits on its second insert
        # frame of it: the bag is gone, and so is whatever the input tasks
        # wrote.
        flag = str(tmp_path / "died")
        real_dispatch = server._dispatch
        inserts = [0]

        def dispatch(state, conn_id, req):
            if req[0] == "insert" and req[1][0][0] == "clicklog":
                inserts[0] += 1
                if inserts[0] == 2 and first_time(flag):
                    os._exit(server.SHARD_KILL_EXIT_CODE)
            return real_dispatch(state, conn_id, req)

        monkeypatch.setattr(server, "_dispatch", dispatch)
        records = clicklog_records()
        source = records if form == "list" else iter(records)
        result = run_clicklog({"clicklog": source}, shards=2)
        assert os.path.exists(flag)
        assert (result.shard_deaths, result.worker_deaths) == (1, 0)
        assert result.family_resets >= 1
        assert clicklog_counts(result) == exact_distinct_counts(records)

    def test_master_dies_at_the_first_input_task_assign(self, tmp_path):
        # One spawn record per worker, then the first assign — an input
        # task's: the master dies there, and the successor runs the input
        # family from the inputs handed to ``resume``.
        records = clicklog_records()
        app = build_clicklog_local(regions=REGIONS)
        base = dict(workers=WORKERS, chunk_size=CHUNK_SIZE, journal_dir=str(tmp_path))
        runtime = DistRuntime(app, kill_master_after_records=WORKERS + 1, **base)
        with pytest.raises(MasterKilled) as excinfo:
            runtime.run({"clicklog": records}, timeout=120)
        assigned = [
            record[1]
            for record in MasterJournal.load(str(tmp_path))
            if record[0] == "assign"
        ]
        assert assigned and set(assigned) <= {
            input_task_id("clicklog", part) for part in range(WORKERS)
        }
        result = DistRuntime(app, **base).resume(
            excinfo.value.fleet, {"clicklog": records}, timeout=120
        )
        assert result.master_recoveries == 1
        assert (result.worker_deaths, result.shard_deaths) == (0, 0)
        assert clicklog_counts(result) == exact_distinct_counts(records)


class ScriptedPipe:
    """The worker's end of the command pipe: ``script`` maps a count of
    chunks emitted to the message the master sends at that moment."""

    def __init__(self, writer, script):
        self.writer, self.script = writer, dict(script)
        self.inbox, self.sent = [], []

    def poll(self, timeout=0):
        for at in sorted(self.script):
            if at <= len(self.writer.chunks):
                self.inbox.append(self.script.pop(at))
        return bool(self.inbox)

    def recv(self):
        return self.inbox.pop(0)

    def send(self, message):
        # Stamped with the chunks emitted when the answer went out.
        self.sent.append((len(self.writer.chunks), message))


class CountingStore:
    """A store whose writer only counts, for a task that reads no bag."""

    def __init__(self):
        self.chunks, self.epochs = [], {}

    def writer(self, depth):
        return self

    def insert(self, bag_id, chunk):
        self.chunks.append(chunk)

    def drain(self):
        pass

    def adopt_epochs(self, epochs):
        self.epochs.update(epochs)


class TestInputTaskPollsTheCommandPipe:
    """An input task reads nothing, so no input loop polls for it: the
    context polls once per ``b`` chunks emitted, and a cancel or a
    recovered master's reattach is answered within one frame of output,
    not after the whole slice."""

    B = 4
    NODE_ID = f"{input_task_id('clicklog', 0)}#0"

    def run_input_task(self, script):
        app = build_clicklog_local(regions=REGIONS)
        records = clicklog_records()
        graph = with_input_tasks(app.graph, 1, {"clicklog": records})
        store = CountingStore()
        runtime = worker_mod._WorkerRuntime(
            graph, store, DistSettings(chunk_size=64, batch_requests=self.B)
        )
        task_id = input_task_id("clicklog", 0)
        desc = NodeDescriptor(
            node_id=self.NODE_ID,
            task_id=task_id,
            kind="task",
            stream_input=None,
            side_inputs=(),
            outputs=("clicklog",),
        )
        node = worker_mod._NodeShim(desc, graph.tasks[task_id])
        pipe = ScriptedPipe(store, script)
        ctx = worker_mod.DistTaskContext(runtime, node, None, pipe, desc)
        return ctx, graph.tasks[task_id].fn, store, pipe, desc

    def test_a_cancel_is_answered_within_one_frame(self):
        ctx, fn, store, pipe, desc = self.run_input_task(
            {5: {"type": "cancel", "node_id": self.NODE_ID}}
        )
        with pytest.raises(worker_mod._Cancelled):
            fn(ctx)
        assert 5 < len(store.chunks) <= 5 + self.B

    def test_a_reattach_is_answered_within_one_frame(self):
        ctx, fn, store, pipe, desc = self.run_input_task(
            {5: {"type": "reattach", "epochs": {1: 3}}}
        )
        fn(ctx)
        ctx.flush()
        assert len(store.chunks) > 5 + 4 * self.B  # the slice runs on well past it
        ((emitted, hello),) = pipe.sent
        assert 5 < emitted <= 5 + self.B
        assert hello["type"] == "hello"
        assert (hello["running"], hello["task"]) == (desc.node_id, desc.task_id)
        assert store.epochs == {1: 3}
