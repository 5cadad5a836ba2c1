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
from repro.dist.client import ChunkWriter
from repro.dist.journal import MasterJournal
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
        # The worker exits right after an input task's first insert: the
        # bag holds part of one slice. Its family and every started input
        # task of the bag reset, the bag is discarded, the fill re-runs.
        flag = str(tmp_path / "died")
        real_insert = ChunkWriter.insert

        def insert(writer, bag_id, chunk):
            real_insert(writer, bag_id, chunk)
            if bag_id == "clicklog" and first_time(flag):
                os._exit(17)

        monkeypatch.setattr(ChunkWriter, "insert", insert)
        records = clicklog_records()
        result = run_clicklog({"clicklog": records})
        assert os.path.exists(flag)
        assert (result.worker_deaths, result.shard_deaths) == (1, 0)
        assert result.family_resets >= 1
        assert clicklog_counts(result) == exact_distinct_counts(records)

    @pytest.mark.parametrize("form", ["list", "generator"])
    def test_source_shard_dies_during_the_fill(self, tmp_path, monkeypatch, form):
        # The r=1 memory shard homing the source exits on its third insert
        # of it: the bag is gone, and so is whatever the input tasks wrote.
        flag = str(tmp_path / "died")
        real_dispatch = server._dispatch
        inserts = [0]

        def dispatch(state, conn_id, req):
            if req[0] == "insert" and req[1] == "clicklog":
                inserts[0] += 1
                if inserts[0] == 3 and first_time(flag):
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
