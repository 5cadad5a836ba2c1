"""Layer probes: each layer timed from outside, through its public functions.

A probe feeds a layer the workload's own source chunks under the
workload's own configuration, with nothing else running, so its number is
the layer's cost in isolation: the ceiling a change to that layer can
move, not its share of a job.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.dist.client import MuxBatchFetcher, ShardedBagStore
from repro.dist.protocol import (
    DIST_STORAGE_POLICY,
    KIND_RESPONSE_OK,
    FrameDecoder,
    encode_frame,
)
from repro.dist.segments import SegmentBagStore
from repro.dist.server import storage_server_main
from repro.dist.sharding import ShardRouter
from repro.serde.chunks import chunk_records, iter_chunks
from repro.serde.codecs import codec_for

Metrics = Dict[str, float]

#: Batch depths of the drain and utilisation probes; the first is the
#: engine's default ``batch_requests``.
DEPTHS = (4, 1, 16)
RTT_SAMPLES = 1000
FRAME_SAMPLES = 2000
#: The utilisation probe drains at most this many chunks per depth ...
UTIL_CHUNKS = 300
#: ... and at most this many seconds of consumer spin per depth.
UTIL_SPIN_BUDGET = 1.0
FETCH_TIMEOUT = 30.0


def rho(b: int, m: int) -> float:
    """Eq. 1: storage utilisation with ``b`` requests over ``m`` servers."""
    return 1.0 - (1.0 - 1.0 / m) ** (b * m)


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile, as ``repro.dist.runtime`` computes its own."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def serde(graph, inputs: Dict[str, list], chunk_size: int) -> Tuple[Metrics, List[bytes], float]:
    """Encode and decode every typed source bag once.

    Returns the metrics, the chunks (the other probes' payload) and the
    decode seconds (the consumer-side CPU floor of the utilisation probe).
    """
    chunks: List[bytes] = []
    encode_s = decode_s = 0.0
    for bag_id, records in inputs.items():
        spec = graph.bags[bag_id].codec_spec
        if spec is None:
            continue
        codec = codec_for(spec)
        started = time.perf_counter()
        encoded = list(chunk_records(records, codec, chunk_size))
        encode_s += time.perf_counter() - started
        started = time.perf_counter()
        for _record in iter_chunks(encoded, codec):
            pass
        decode_s += time.perf_counter() - started
        chunks.extend(encoded)
    size = sum(len(chunk) for chunk in chunks)
    mb = size / 1e6
    return (
        {
            "serde.encode_mb_per_s": mb / encode_s,
            "serde.decode_mb_per_s": mb / decode_s,
            "serde.chunks": len(chunks),
            "serde.bytes": size,
        },
        chunks,
        decode_s,
    )


def protocol(chunks: List[bytes], batch: int) -> Metrics:
    """Frame and unframe one ``remove_batch`` reply of ``batch`` chunks."""
    reply = (chunks[:batch], False)
    started = time.perf_counter()
    for call_id in range(FRAME_SAMPLES):
        frame = encode_frame(call_id, KIND_RESPONSE_OK, reply)
    encode_s = time.perf_counter() - started
    decoder = FrameDecoder()
    started = time.perf_counter()
    for _ in range(FRAME_SAMPLES):
        decoder.feed(frame)
    decode_s = time.perf_counter() - started
    return {
        "dist.protocol.frame_encode_us": encode_s / FRAME_SAMPLES * 1e6,
        "dist.protocol.frame_decode_us": decode_s / FRAME_SAMPLES * 1e6,
    }


class ShardFleet:
    """``m`` shard processes started the way ``DistRuntime`` starts them."""

    def __init__(self, shards: int, replication: int, resident_bytes: Optional[int]):
        self.shards = shards
        self.replication = replication
        self.resident_bytes = resident_bytes
        self.store: Optional[ShardedBagStore] = None
        self._procs: List[Any] = []
        self._dir: Optional[str] = None

    def __enter__(self) -> "ShardFleet":
        # fork, like the engine's own fleet: the shards start from the
        # same warmed interpreter state they have in a job.
        ctx = multiprocessing.get_context("fork")
        self._dir = tempfile.mkdtemp(prefix="perf-fleet-")
        paths = [os.path.join(self._dir, f"shard-{i}.sock") for i in range(self.shards)]
        authkey = os.urandom(16)
        try:
            addresses = []
            for index, path in enumerate(paths):
                ready, ready_child = ctx.Pipe(duplex=False)
                segment_dir = None
                if self.resident_bytes is not None:
                    segment_dir = os.path.join(self._dir, "segments", f"shard-{index}")
                proc = ctx.Process(
                    target=storage_server_main,
                    args=(
                        ready_child, authkey, index, path, None, self.replication,
                        paths, {}, segment_dir, self.resident_bytes, False, None,
                    ),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
                ready_child.close()
                if not ready.poll(15.0):
                    raise RuntimeError(f"probe shard {index} did not start within 15s")
                addresses.append(ready.recv())
                ready.close()
            self.store = ShardedBagStore(
                addresses,
                authkey,
                "perf-probe",
                DIST_STORAGE_POLICY,
                router=ShardRouter(self.shards, self.replication),
                replica_ops=self.resident_bytes is not None,
            )
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *_exc: Any) -> None:
        if self.store is not None:
            self.store.shutdown()
            self.store.close()
        for proc in self._procs:
            proc.join(timeout=3.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        shutil.rmtree(self._dir, ignore_errors=True)


def _fill(store: ShardedBagStore, bag_id: str, chunks: List[bytes]) -> float:
    bag = store.ensure(bag_id)
    started = time.perf_counter()
    for chunk in chunks:
        bag.insert(chunk)
    bag.seal()
    return time.perf_counter() - started


def _drain(store: ShardedBagStore, bag_id: str, batch: int, spin_s: float = 0.0) -> Tuple[int, float]:
    """Fetch ``bag_id`` to EOF, spinning ``spin_s`` per chunk: (chunks, wall)."""
    drained = 0
    started = time.perf_counter()
    fetcher = MuxBatchFetcher(store, bag_id, batch)
    try:
        while fetcher.get(timeout=FETCH_TIMEOUT) is not None:
            drained += 1
            if spin_s:
                until = time.perf_counter() + spin_s
                while time.perf_counter() < until:
                    pass
    finally:
        fetcher.stop()
    return drained, time.perf_counter() - started


def storage(dist: Dict[str, Any], chunks: List[bytes], task_cpu_per_chunk: float) -> Tuple[Metrics, Dict[str, str]]:
    """Round trips, fills and drains against a benchmark-owned shard fleet."""
    metrics: Metrics = {}
    notes: Dict[str, str] = {}
    shards = dist["shards"]
    with ShardFleet(shards, dist["replication"], dist.get("resident_bytes")) as fleet:
        store = fleet.store
        bag = store.ensure("perf.rtt")
        rtts = []
        for _ in range(RTT_SAMPLES):
            started = time.perf_counter()
            bag.remaining()
            rtts.append(time.perf_counter() - started)
        metrics["dist.storage.rpc_rtt_us"] = percentile(rtts, 0.50) * 1e6
        metrics["dist.storage.rpc_rtt_p99_us"] = percentile(rtts, 0.99) * 1e6
        notes["dist.storage.rpc_rtt_p99_us"] = f"n={RTT_SAMPLES}"

        fill_s = 0.0
        for batch in DEPTHS:
            bag_id = f"perf.drain.b{batch}"
            fill_s += _fill(store, bag_id, chunks)
            drained, wall = _drain(store, bag_id, batch)
            if drained != len(chunks):
                raise RuntimeError(f"drained {drained} of {len(chunks)} chunks at b={batch}")
            suffix = "" if batch == DEPTHS[0] else f"_b{batch}"
            metrics[f"dist.storage.drain_chunks_per_s{suffix}"] = drained / wall
        metrics["dist.storage.fill_chunks_per_s"] = len(DEPTHS) * len(chunks) / fill_s

        count = min(
            UTIL_CHUNKS, len(chunks), max(8, int(UTIL_SPIN_BUDGET / task_cpu_per_chunk))
        )
        for batch in DEPTHS:
            bag_id = f"perf.util.b{batch}"
            _fill(store, bag_id, chunks[:count])
            drained, wall = _drain(store, bag_id, batch, spin_s=task_cpu_per_chunk)
            name = f"dist.storage.consumer_util_b{batch}"
            metrics[name] = drained * task_cpu_per_chunk / wall
            notes[name] = (
                f"rho(b={batch}, m={shards})={rho(batch, shards):.4f}; "
                f"{drained} chunks, {task_cpu_per_chunk * 1e3:.3f} ms spin each"
            )
    return metrics, notes


SEGMENT_METRICS = (
    "dist.segments.insert_chunks_per_s",
    "dist.segments.remove_chunks_per_s",
    "dist.segments.finalize_ms",
)


def segments(chunks: List[bytes], resident_bytes: int, batch: int) -> Metrics:
    """An in-process segment store: insert past the budget, drain, compact."""
    dirpath = tempfile.mkdtemp(prefix="perf-segments-")
    try:
        store = SegmentBagStore(dirpath, resident_bytes=resident_bytes)
        try:
            bag = store.ensure("perf.segments")
            started = time.perf_counter()
            for index, chunk in enumerate(chunks):
                bag.insert_id(f"perf#{index}", chunk)
            insert_s = time.perf_counter() - started
            bag.seal()
            removed, seq = 0, 0
            started = time.perf_counter()
            while True:
                seq += 1
                pairs, _sealed = bag.remove_batch(batch, "perf-probe", seq)
                if not pairs:
                    break
                removed += len(pairs)
            remove_s = time.perf_counter() - started
            if removed != len(chunks):
                raise RuntimeError(f"segment probe removed {removed} of {len(chunks)}")
            started = time.perf_counter()
            store.finalize_bag("perf.segments")
            finalize_s = time.perf_counter() - started
        finally:
            store.close()
    finally:
        shutil.rmtree(dirpath, ignore_errors=True)
    return dict(zip(
        SEGMENT_METRICS,
        (len(chunks) / insert_s, removed / remove_s, finalize_s * 1e3),
    ))
