"""LocalRuntime result invariance: worker counts and cloning schedules.

The engine's core guarantee — exactly-once chunk removal plus merge
reconciliation — means the *number* of workers and the cloning schedule
may change wall-clock behavior but never sink contents. These tests pin
that for the real apps across 1/2/8 workers and forced-clone schedules.
"""

import pytest

from repro.apps import build_clicklog_local, build_hashjoin_local
from repro.local import LocalRuntime
from repro.workloads.clicklog_data import (
    exact_distinct_counts,
    generate_clicklog,
    region_name,
)
from repro.workloads.relations import generate_relation, join_reference

REGIONS = [region_name(0), region_name(1), region_name(2)]

CLICKLOG = [
    ip for ip in generate_clicklog(9_000, skew=0.6, seed=7)
    if (ip >> 26) < len(REGIONS)
]
JOIN_INPUTS = {
    "relation.r": list(generate_relation(150, key_space=1 << 12, skew=0.8, seed=3)),
    "relation.s": list(generate_relation(1_100, key_space=1 << 12, skew=0.0, seed=4)),
}


def clicklog_counts(result):
    return {name: result.value(f"count.{name}") for name in REGIONS}


def join_rows(result, partitions=2):
    return sorted(
        row for p in range(partitions) for row in result.records(f"join.{p}")
    )


class TestWorkerCountInvariance:
    @pytest.fixture(scope="class")
    def clicklog_expected(self):
        return clicklog_counts(
            LocalRuntime(
                build_clicklog_local(regions=REGIONS), workers=1, cloning=False
            ).run({"clicklog": CLICKLOG}, timeout=120)
        )

    @pytest.fixture(scope="class")
    def join_expected(self):
        return join_rows(
            LocalRuntime(
                build_hashjoin_local(partitions=2), workers=1, cloning=False
            ).run(dict(JOIN_INPUTS), timeout=120)
        )

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_clicklog(self, workers, clicklog_expected):
        result = LocalRuntime(
            build_clicklog_local(regions=REGIONS), workers=workers, chunk_size=2048
        ).run({"clicklog": CLICKLOG}, timeout=120)
        assert clicklog_counts(result) == clicklog_expected

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_hashjoin(self, workers, join_expected):
        result = LocalRuntime(
            build_hashjoin_local(partitions=2), workers=workers
        ).run(dict(JOIN_INPUTS), timeout=120)
        assert join_rows(result) == join_expected


class TestForcedCloneInvariance:
    @pytest.mark.parametrize(
        "schedule",
        [
            {"phase1": 1},
            {f"phase2.{REGIONS[0]}": 2},
            {"phase1": 1, f"phase2.{REGIONS[0]}": 3, f"phase3.{REGIONS[1]}": 1},
        ],
    )
    def test_clicklog_forced_schedules(self, schedule):
        expected = clicklog_counts(
            LocalRuntime(
                build_clicklog_local(regions=REGIONS), workers=1, cloning=False
            ).run({"clicklog": CLICKLOG}, timeout=120)
        )
        runtime = LocalRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=4,
            chunk_size=1024,
            forced_clones=schedule,
        )
        result = runtime.run({"clicklog": CLICKLOG}, timeout=120)
        assert clicklog_counts(result) == expected
        for task_id, clones in schedule.items():
            assert result.clone_counts[task_id] == 1 + clones

    def test_forced_clones_deterministic(self):
        schedule = {f"phase2.{REGIONS[0]}": 2}
        counts = [
            LocalRuntime(
                build_clicklog_local(regions=REGIONS),
                workers=4,
                forced_clones=schedule,
            )
            .run({"clicklog": CLICKLOG}, timeout=120)
            .clone_counts[f"phase2.{REGIONS[0]}"]
            for _ in range(2)
        ]
        assert counts == [3, 3]


class TestBatchFormAgainstTheEngineFreeReference:
    """The in-tree task functions read ``batches()`` and write ``emit_many``;
    a LocalRuntime baseline runs the same functions, so these sinks are
    held to the workload generators' own references instead. Two clones
    draining one bag through ``batches()`` is the case late binding rests on.
    """

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize(
        "schedule", [{}, {"phase1": 2}, {"phase1": 1, f"phase2.{REGIONS[0]}": 2}]
    )
    def test_clicklog(self, workers, schedule):
        result = LocalRuntime(
            build_clicklog_local(regions=REGIONS),
            workers=workers,
            chunk_size=512,
            forced_clones=schedule,
        ).run({"clicklog": CLICKLOG}, timeout=120)
        assert clicklog_counts(result) == exact_distinct_counts(CLICKLOG)
        assert result.records_processed >= len(CLICKLOG)
        for task_id, clones in schedule.items():
            assert result.clone_counts[task_id] == 1 + clones

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize(
        "schedule", [{}, {"partition.s": 2}, {"partition.r": 1, "join.0": 2}]
    )
    def test_hashjoin(self, workers, schedule):
        result = LocalRuntime(
            build_hashjoin_local(partitions=2, key_space=1 << 12),
            workers=workers,
            chunk_size=512,
            forced_clones=schedule,
        ).run(dict(JOIN_INPUTS), timeout=120)
        assert join_rows(result) == join_reference(
            JOIN_INPUTS["relation.r"], JOIN_INPUTS["relation.s"]
        )
