"""Cost-model calibration (fit against Table 1 / Table 2, Section 5).

Units: ``*_CPU_PER_MB`` are core-seconds per MB of streamed input; a task
at 0.010 core-s/MB processes 100 MB/s per core, i.e. 1.6 GB/s on a 16-core
machine — comfortably above the 330 MB/s RAID array, so on-disk ClickLog
runs are storage-bound (Table 1's 320GB/3.2TB rows scale with aggregate
disk bandwidth) while in-memory runs are dominated by startup/scheduling
overheads, matching the paper's description of its baseline ladder.
"""

from __future__ import annotations

from repro.units import KB, MB

# -- ClickLog (Figure 3's three phases) -------------------------------------

#: Phase 1: tokenize, parse the IP, geolocate -> ~21 MB/s/core (JVM string
#: work), i.e. ~330 MB/s per 16-core worker — the rate implied by the
#: paper's Figure 9 phase-1 plateau and Table 1's disk-bound rows.
CLICKLOG_P1_CPU_PER_MB = 0.048
#: Phase 2: set bits in a region bitset -> ~400 MB/s per worker, which is
#: why cloning the heaviest region stops at ~26 clones on 32 machines
#: (26 x 400 MB/s ~ the 10.5 GB/s aggregate disk bandwidth, Figure 9).
CLICKLOG_P2_CPU_PER_MB = 0.040
#: Phase 3: popcount over one bitset.
CLICKLOG_P3_CPU_PER_MB = 0.002
#: Merge: OR of two bitsets per MB of partial outputs.
CLICKLOG_MERGE_CPU_PER_MB = 0.004
#: Ceiling for a region's distinct-IP bitset (2^26 bits at 64 regions).
CLICKLOG_BITSET_MAX_BYTES = 8 * MB
#: Floor so tiny regions still produce a chunk-able output.
CLICKLOG_BITSET_MIN_BYTES = 64 * KB
#: Phase-3 output: one count per region.
CLICKLOG_COUNT_BYTES = 64


def clicklog_bitset_bytes(region_bytes: float) -> int:
    """Bitset size for a region that received ``region_bytes`` of clicks.

    Grows with the region (more distinct IPs) up to the 2^26-bit ceiling.
    """
    return int(
        min(CLICKLOG_BITSET_MAX_BYTES, max(CLICKLOG_BITSET_MIN_BYTES, region_bytes / 8))
    )


# -- HashJoin (Table 3) ---------------------------------------------------------

#: Range-partitioning a relation (hash + route).
JOIN_PARTITION_CPU_PER_MB = 0.008
#: Sorting the in-memory build side, per MB (n log n folded into a constant).
JOIN_SORT_CPU_PER_MB = 0.030
#: Probing the sorted build side per MB of streamed probe input.
JOIN_PROBE_CPU_PER_MB = 0.040
#: Extra CPU per MB of *emitted* matches.
JOIN_EMIT_CPU_PER_MB = 0.008
#: Output bytes per probe-input byte at a uniform (hit rate 1) partition
#: (each match carries both payloads, so output exceeds probe input).
JOIN_BASE_OUTPUT_RATIO = 2.0

# -- Calibration workload (the bench harness's CPU-bound app) ---------------------

#: Default per-record mixing rounds; scaled down by ``repro bench --quick``.
CALIBRATION_ROUNDS = 2000

_MASK64 = (1 << 64) - 1


def calibration_mix(seed: int, rounds: int) -> int:
    """Iterated 64-bit LCG+xorshift mix: pure-Python, GIL-held CPU burn.

    This is the benchmark's unit of work. It deliberately never releases
    the GIL (no big hashlib buffers, no numpy), so the thread-pool engine
    is pinned to one core while the process engine scales — exactly the
    contrast ``python -m repro bench`` measures.
    """
    value = seed & _MASK64
    for _ in range(rounds):
        value = (value * 6364136223846793005 + 1442695040888963407) & _MASK64
        value ^= value >> 29
    return value


def _make_burn(rounds: int):
    def burn(ctx):
        # Per-record on purpose: ~250 us of mixing per record dwarfs the
        # library's per-record path, which this keeps exercised end to end.
        acc = 0
        for seed in ctx.records():
            acc = (acc + calibration_mix(seed, rounds)) & _MASK64
        return acc

    return burn


def build_calibration_local(rounds: int = CALIBRATION_ROUNDS):
    """A CPU-bound aggregation app for the real engines.

    One task streams u64 seeds, burns ``rounds`` of mixing per record, and
    sums the mixed values; the merge is addition, so the checksum is
    identical for every worker count, engine, and cloning schedule.
    """
    from repro.model.application import Application

    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    app = Application("calibration-local")
    src = app.bag("seeds", codec="u64")
    out = app.bag("checksum")
    app.task("burn", [src], [out], fn=_make_burn(rounds), merge="sum", phase="burn")
    return app


def calibration_seeds(n_records: int, seed: int = 1) -> list:
    """Deterministic seed records for the calibration workload."""
    value = (seed * 0x9E3779B97F4A7C15) & _MASK64 or 1
    seeds = []
    for _ in range(n_records):
        value = (value * 6364136223846793005 + 1442695040888963407) & _MASK64
        seeds.append(value)
    return seeds


# -- PageRank (Table 4) -----------------------------------------------------------

#: Bytes per edge in the on-disk edge lists (two packed 32/34-bit ids).
PAGERANK_EDGE_BYTES = 8
#: Bytes per vertex in a rank bag (id + double).
PAGERANK_VERTEX_BYTES = 12
#: Bytes per rank message on the wire.
PAGERANK_MESSAGE_BYTES = 8
#: Scatter: join ranks with out-edges, emit messages.
PAGERANK_SCATTER_CPU_PER_MB = 0.060
#: Gather: aggregate messages per destination vertex.
PAGERANK_GATHER_CPU_PER_MB = 0.050
PAGERANK_MERGE_CPU_PER_MB = 0.006
