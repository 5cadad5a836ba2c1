"""End-to-end application tests: local engines against reference answers,
and structural checks on the simulator builders."""

import collections

import pytest

from repro.apps import (
    build_clicklog_local,
    build_clicklog_sim,
    build_hashjoin_local,
    build_hashjoin_sim,
    build_pagerank_local,
    build_pagerank_sim,
)
from repro.apps import clicklog
from repro.engine.common import decode_bag_chunks
from repro.local import LocalRuntime
from repro.serde import chunk_records, codec_for, decode_chunk
from repro.units import GB, MB
from repro.workloads import (
    REGION_COUNT,
    RmatSpec,
    generate_clicklog,
    generate_rmat_edges,
    generate_relation,
    region_name,
)
from repro.workloads.clicklog_data import exact_distinct_counts, geolocate
from repro.workloads.relations import join_reference
from repro.workloads.zipf import zipf_weights
from tests.test_property_batches import context
from tests.test_serde import TestNoPerRecordPython as serde_budget


class TestClickLogLocal:
    def test_matches_reference_counts(self):
        records = list(generate_clicklog(15_000, skew=0.8, seed=11))
        app = build_clicklog_local()
        result = LocalRuntime(app, workers=4).run({"clicklog": records}, timeout=120)
        expected = exact_distinct_counts(records)
        for index in range(REGION_COUNT):
            name = region_name(index)
            got = result.records(f"count.{name}")
            assert (got[0] if got else 0) == expected.get(name, 0)

    def test_cloned_equals_uncloned(self):
        records = [
            ip for ip in generate_clicklog(60_000, skew=0.0, seed=4)
            if (ip >> 26) < 2
        ]
        app = build_clicklog_local(regions=["usa", "china"])
        cloned_rt = LocalRuntime(app, workers=8, chunk_size=1024, clone_min_chunks=1)
        cloned = cloned_rt.run({"clicklog": records}, timeout=120)
        plain = LocalRuntime(
            build_clicklog_local(regions=["usa", "china"]), workers=1, cloning=False
        ).run({"clicklog": records}, timeout=120)
        for region in ("usa", "china"):
            assert cloned.value(f"count.{region}") == plain.value(f"count.{region}")


class TestPhase1CostsFramesPerChunk:
    """A count, not a timing (the style of test_serde's
    ``TestNoPerRecordPython``): routing 50 000 clicks enters the worker
    library and serde a number of times set by the *chunks* moved. Phase 1
    written on ``records()`` / ``emit`` enters them 3 times per record."""

    #: Library frames per chunk in or out. A chunk in costs an ``emit_many``
    #: and its builder's ``extend`` for each region present in it (2 x 64 at
    #: most, plus the input loop and the decode); a chunk out ~25 to pack
    #: and insert. Measured: 51-54.
    K = 80

    LIBRARY = (
        "repro/local/context.py",
        "repro/dist/worker.py",
        "repro/serde/chunks.py",
        "repro/serde/codecs.py",
        "repro/serde/varint.py",
    )

    @pytest.mark.parametrize("skew", [0.0, 1.0])
    def test_phase1_library_frames(self, skew):
        clicks = list(generate_clicklog(50_000, skew=skew, seed=3))
        region_bags = [f"region.{region_name(i)}" for i in range(REGION_COUNT)]
        codec = codec_for("u64")
        pieces = [
            decode_chunk(chunk, codec) for chunk in chunk_records(clicks, codec, 8192)
        ]
        runtime, ctx = context("u64", "u64", pieces, 8192, outputs=region_bags)

        def phase1():
            clicklog._phase1(ctx)
            ctx.flush()

        calls, _ = serde_budget.calls_during(phase1, self.LIBRARY)
        routed = {
            bag_id: decode_bag_chunks(
                runtime.graph, bag_id, runtime.store.get(bag_id).read_all()
            )
            for bag_id in region_bags
        }
        expected = {bag_id: [] for bag_id in region_bags}
        for ip in clicks:
            expected[f"region.{geolocate(ip)}"].append(ip)
        assert routed == expected
        chunks_out = sum(runtime.store.get(bag_id).size() for bag_id in region_bags)
        assert calls <= self.K * (len(pieces) + chunks_out) < len(clicks)


class TestClickLogSimBuilder:
    def test_region_weights_follow_zipf(self):
        app, inputs = build_clicklog_sim(32 * GB, skew=1.0)
        graph = app.graph
        phase1 = graph.tasks["phase1"]
        weights = phase1.cost.weights_for(phase1.outputs)
        expected = zipf_weights(REGION_COUNT, 1.0)
        assert weights["region.usa"] == pytest.approx(expected[0])
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_phase1_split(self):
        app, inputs = build_clicklog_sim(1 * GB, skew=0.0, phase1_tasks=4)
        assert len(inputs) == 4
        assert sum(spec.total_bytes for spec in inputs.values()) == 1 * GB
        assert "phase1.0" in app.graph.tasks

    def test_partition_override(self):
        app, _ = build_clicklog_sim(1 * GB, skew=1.0, partitions=128)
        phase2 = [t for t in app.graph.tasks if t.startswith("phase2.")]
        assert len(phase2) == 128

    def test_merges_declared(self):
        app, _ = build_clicklog_sim(1 * GB, skew=0.0)
        graph = app.graph
        assert graph.tasks["phase2.usa"].merge == "bitset_union"
        assert graph.tasks["phase3.usa"].merge == "sum"
        assert graph.tasks["phase1"].merge is None


class TestHashJoinLocal:
    def test_matches_reference_join(self):
        left = list(generate_relation(400, key_space=1 << 16, skew=0.9, seed=1))
        right = list(generate_relation(2500, key_space=1 << 16, skew=0.0, seed=2))
        app = build_hashjoin_local(partitions=4)
        result = LocalRuntime(app, workers=4).run(
            {"relation.r": left, "relation.s": right}, timeout=120
        )
        got = sorted(
            row for p in range(4) for row in result.records(f"join.{p}")
        )
        assert got == join_reference(left, right)

    def test_empty_relations(self):
        app = build_hashjoin_local(partitions=2)
        result = LocalRuntime(app, workers=2).run(
            {"relation.r": [], "relation.s": []}, timeout=60
        )
        assert result.records("join.0") == []


class TestHashJoinSimBuilder:
    def test_skew_concentrates_build_side(self):
        app, inputs = build_hashjoin_sim(int(3.2 * GB), 32 * GB, skew=1.0)
        graph = app.graph
        part_r = graph.tasks["partition.r"]
        weights = part_r.cost.weights_for(part_r.outputs)
        assert weights["r.0"] > 10 * weights["r.31"]
        # Hot join task does more CPU per byte and emits more output.
        hot, cold = graph.tasks["join.0"], graph.tasks["join.31"]
        assert hot.cost.cpu_seconds_per_mb > cold.cost.cpu_seconds_per_mb
        assert hot.cost.output_ratio > cold.cost.output_ratio
        # Build side is a side input (clone state), probe side streams.
        assert hot.stream_input == "s.0"
        assert hot.side_inputs == ("r.0",)


class TestPageRankLocal:
    def test_matches_reference(self):
        from repro.apps.pagerank import pagerank_local_inputs

        spec = RmatSpec(scale=7, edge_factor=4)
        edges = list(generate_rmat_edges(spec, seed=9))
        vertices, partitions, iterations = spec.vertices, 4, 2
        app = build_pagerank_local(vertices, partitions, iterations)
        inputs = pagerank_local_inputs(edges, vertices, partitions, iterations)
        result = LocalRuntime(app, workers=4).run(inputs, timeout=180)
        from repro.apps.pagerank import pagerank_final_ranks

        final = pagerank_final_ranks(result, vertices, partitions, iterations)
        expected = _reference_pagerank(edges, vertices, iterations)
        assert set(final) == set(expected)
        for vertex, rank in expected.items():
            assert final[vertex] == pytest.approx(rank, abs=1e-12)

    def test_cloned_scatter_matches_reference(self):
        """Scatter's out-degrees are side state, so clones that each see
        only a slice of the edge stream still emit correct shares."""
        from repro.apps.pagerank import pagerank_local_inputs

        spec = RmatSpec(scale=8, edge_factor=8)
        edges = list(generate_rmat_edges(spec, seed=13))
        vertices, partitions, iterations = spec.vertices, 2, 2
        app = build_pagerank_local(vertices, partitions, iterations)
        inputs = pagerank_local_inputs(edges, vertices, partitions, iterations)
        runtime = LocalRuntime(
            app, workers=8, cloning=True, chunk_size=512, clone_min_chunks=1
        )
        result = runtime.run(inputs, timeout=300)
        from repro.apps.pagerank import pagerank_final_ranks

        final = pagerank_final_ranks(result, vertices, partitions, iterations)
        expected = _reference_pagerank(edges, vertices, iterations)
        for vertex, rank in expected.items():
            assert final[vertex] == pytest.approx(rank, abs=1e-9)


def _reference_pagerank(edges, vertices, iterations, damping=0.85):
    """Canonical PageRank: every vertex gets base + d * incoming sum each
    round (a vertex without in-edges keeps exactly the base term)."""
    ranks = {v: 1.0 / vertices for v in range(vertices)}
    degrees = collections.Counter(src for src, _dst in edges)
    base = (1 - damping) / vertices
    for _ in range(iterations):
        sums = collections.defaultdict(float)
        for src, dst in edges:
            sums[dst] += ranks[src] / degrees[src]
        ranks = {v: base + damping * sums.get(v, 0.0) for v in range(vertices)}
    return ranks


class TestPageRankSimBuilder:
    def test_structure(self):
        spec = RmatSpec(scale=16)
        app, inputs = build_pagerank_sim(
            spec, iterations=2, partitions=4, profile_samples=20_000
        )
        graph = app.graph
        scatters = [t for t in graph.tasks if t.startswith("scatter.")]
        gathers = [t for t in graph.tasks if t.startswith("gather.")]
        assert len(scatters) == len(gathers) == 8
        # Edge bags re-materialized per iteration (re-read every round).
        edge_bytes = sum(
            s.total_bytes for b, s in inputs.items() if b.startswith("edges.")
        )
        assert edge_bytes == pytest.approx(2 * spec.edges * 8, rel=0.01)

    def test_hub_partition_heaviest(self):
        spec = RmatSpec(scale=16)
        _app, inputs = build_pagerank_sim(
            spec, iterations=1, partitions=8, profile_samples=20_000
        )
        sizes = [inputs[f"edges.0.{p}"].total_bytes for p in range(8)]
        assert sizes[0] == max(sizes)
        assert sizes[0] > 3 * min(sizes)
