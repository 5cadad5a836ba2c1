"""Closed-loop control for batch depth (Eq. 1) and clone throttling.

The paper picks the number of outstanding ``remove_batch`` requests ``b``
so that storage stays utilized (Eq. 1) *and* chunk delivery hides the RPC
latency behind processing.  The engines used to freeze both knobs at
construction time (``batch_requests=4``, ``clone_min_chunks=2``); this
module closes both loops from live measurements:

* :class:`BatchDepthController` re-derives ``b`` per task from the
  measured batch-RPC latency against the task's observed per-chunk
  processing time.  The latency-hiding bound is the bandwidth-delay
  product of the fetch pipeline — while the consumer drains ``b``
  buffered chunks (``b * service_s`` seconds) the next RPC
  (``latency_s`` seconds) must complete, so ``b >= latency_s /
  service_s`` — and Eq. 1 supplies the storage-utilization floor
  (:func:`utilization_floor`).  Decisions are windowed, EMA-smoothed,
  hysteresis-damped, and step-bounded so the depth cannot thrash; the
  controller is pure arithmetic (no clock, no RNG) so a journal replay
  reconstructs it exactly.

* :class:`CloneGovernor` replaces fixed clone thresholds with live
  overload signals: work-queue depth (chunks still in the task's input
  bag) and per-shard p95 latency drift against a first-window baseline.
  Overload must persist for ``clone_onset_decisions`` consecutive
  evaluations before a clone is allowed — the same onset damping the
  sim's ``OverloadMonitor`` gets from its 2 s ``clone_interval``.

Both controllers expose ``snapshot()``/``restore()`` dicts built from
primitives only, so the master can journal them (``("adaptive", ...)``
records) and a resumed master continues from the adapted state instead
of re-warming from the static default.

This module is engine-neutral on purpose: it imports only the analysis
layer and the seeded RNG helpers, so the local engine imports it
directly and both real engines share one policy implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.utilization import expected_utilization
from repro.sim.rand import rng_from

__all__ = [
    "AdaptiveConfig",
    "BatchDepthController",
    "CloneGovernor",
    "derive_batch_depth",
    "nearest_rank",
    "reservoir_sample",
    "utilization_floor",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning surface of the adaptive loop.  Frozen: journaled by value."""

    min_batch: int = 1
    max_batch: int = 16
    #: chunks consumed between controller decisions.
    window: int = 8
    #: Eq. 1 storage utilization the depth must sustain at minimum.
    target_utilization: float = 0.95
    #: dead band — a derived depth *below* the current one must fall
    #: short by more than ``hysteresis * current`` before the controller
    #: shrinks (deepening acts immediately: undershoot starves the
    #: consumer, overshoot only costs buffer memory).
    hysteresis: float = 0.25
    #: largest depth change a single decision may apply.
    max_step: int = 2
    #: EMA weight of a fresh measurement (1.0 = no smoothing).
    smoothing: float = 0.5
    #: clone pressure: input-bag backlog (chunks) that counts as deep.
    clone_queue_chunks: int = 8
    #: clone pressure: shard p95 / baseline p95 ratio that counts as drift.
    clone_p95_drift: float = 1.5
    #: consecutive overloaded evaluations before a clone is allowed.
    clone_onset_decisions: int = 2

    def __post_init__(self) -> None:
        if self.min_batch < 1:
            raise ValueError(f"min_batch must be >= 1, got {self.min_batch}")
        if self.max_batch < self.min_batch:
            raise ValueError(
                f"max_batch {self.max_batch} < min_batch {self.min_batch}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.target_utilization < 1.0:
            raise ValueError(
                f"target_utilization must be in (0, 1), got {self.target_utilization}"
            )
        if self.hysteresis < 0.0:
            raise ValueError(f"hysteresis must be >= 0, got {self.hysteresis}")
        if self.max_step < 1:
            raise ValueError(f"max_step must be >= 1, got {self.max_step}")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {self.smoothing}")
        if self.clone_onset_decisions < 1:
            raise ValueError(
                f"clone_onset_decisions must be >= 1, got {self.clone_onset_decisions}"
            )


def utilization_floor(shards: int, target: float) -> float:
    """Smallest real ``b`` with ``expected_utilization(b, shards) >= target``.

    Inverts Eq. 1: ``1 - (1 - 1/m)^(bm) >= t  <=>  b >= ln(1-t) /
    (m ln(1 - 1/m))``.  With one shard any positive depth saturates it.
    """
    if shards < 1:
        raise ValueError(f"need at least one storage node, got {shards}")
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target}")
    if shards == 1:
        return 1.0
    floor = math.log(1.0 - target) / (shards * math.log(1.0 - 1.0 / shards))
    return max(1.0, floor)


def derive_batch_depth(
    latency_s: float,
    service_s: float,
    shards: int,
    config: AdaptiveConfig,
) -> int:
    """The depth Eq. 1 and latency hiding jointly ask for, clamped.

    ``latency_s`` is the observed batch-RPC round trip, ``service_s`` the
    observed per-chunk processing time.  A task that processes faster
    than storage delivers (small ``service_s``) needs a deeper pipeline;
    a task that is compute-bound needs no more than the Eq. 1 floor.
    """
    floor = utilization_floor(shards, config.target_utilization)
    if service_s > 0.0 and latency_s > 0.0:
        # Capped before ceil(): a denormal service time would push the
        # ratio to inf, and everything past max_batch clamps anyway.
        pipeline = min(latency_s / service_s, float(config.max_batch))
    else:
        pipeline = 0.0  # no processing signal yet: the floor decides
    depth = math.ceil(max(floor, pipeline) - 1e-9)
    return max(config.min_batch, min(config.max_batch, depth))


class BatchDepthController:
    """Per-task closed loop over the fetch pipeline depth ``b``.

    Feed it one :meth:`observe` per consumed chunk; every
    ``config.window`` chunks it re-derives the depth and returns the new
    value when it actually changes (hysteresis and step bounds applied).
    Deterministic: state is a pure function of the observation sequence.
    """

    def __init__(
        self,
        config: AdaptiveConfig,
        shards: int,
        initial_depth: Optional[int] = None,
    ):
        if shards < 1:
            raise ValueError(f"need at least one storage node, got {shards}")
        self.config = config
        self.shards = shards
        if initial_depth is None:
            initial_depth = derive_batch_depth(0.0, 0.0, shards, config)
        self.depth = max(config.min_batch, min(config.max_batch, initial_depth))
        self._latency_ema: Optional[float] = None
        self._service_ema: Optional[float] = None
        self._chunks_seen = 0
        self._since_decision = 0
        self.decisions = 0
        #: (chunks consumed when armed, depth) — the bench's ``b`` trajectory.
        self.trajectory: List[Tuple[int, int]] = [(0, self.depth)]

    def _ema(self, prev: Optional[float], sample: float) -> float:
        if prev is None:
            return sample
        a = self.config.smoothing
        return a * sample + (1.0 - a) * prev

    def observe(
        self,
        *,
        latencies: Sequence[float] = (),
        service_s: Optional[float] = None,
    ) -> Optional[int]:
        """Account one consumed chunk; return the new depth iff it moved.

        ``latencies`` are batch-RPC round trips newly observed since the
        previous call (the fetcher may deliver several chunks per RPC,
        so most calls carry zero or one sample); ``service_s`` is the
        wall time the consumer spent processing the chunk.
        """
        for sample in latencies:
            if sample >= 0.0:
                self._latency_ema = self._ema(self._latency_ema, sample)
        if service_s is not None and service_s >= 0.0:
            self._service_ema = self._ema(self._service_ema, service_s)
        self._chunks_seen += 1
        self._since_decision += 1
        if self._since_decision < self.config.window:
            return None
        self._since_decision = 0
        return self._decide()

    def _decide(self) -> Optional[int]:
        self.decisions += 1
        if self._latency_ema is None:
            return None  # not one RPC completed yet: nothing to derive from
        target = derive_batch_depth(
            self._latency_ema,
            self._service_ema if self._service_ema is not None else 0.0,
            self.shards,
            self.config,
        )
        gap = target - self.depth
        # Asymmetric damping: undershooting the pipeline depth costs
        # throughput linearly (the consumer starves), while overshooting
        # costs only buffer memory — so upward gaps act immediately and
        # only downward moves must clear the hysteresis dead band.
        if gap <= 0 and abs(gap) <= self.config.hysteresis * self.depth:
            return None
        step = max(-self.config.max_step, min(self.config.max_step, gap))
        depth = self.depth + step
        depth = max(self.config.min_batch, min(self.config.max_batch, depth))
        if depth == self.depth:
            return None
        self.depth = depth
        self.trajectory.append((self._chunks_seen, depth))
        return depth

    def snapshot(self) -> Dict[str, Any]:
        """Journalable state: primitives only, restores bit-exactly."""
        return {
            "depth": self.depth,
            "latency_ema": self._latency_ema,
            "service_ema": self._service_ema,
            "chunks_seen": self._chunks_seen,
            "since_decision": self._since_decision,
            "decisions": self.decisions,
            "trajectory": [list(point) for point in self.trajectory],
        }

    @classmethod
    def restore(
        cls,
        config: AdaptiveConfig,
        shards: int,
        state: Dict[str, Any],
    ) -> "BatchDepthController":
        controller = cls(config, shards, initial_depth=int(state["depth"]))
        controller._latency_ema = state.get("latency_ema")
        controller._service_ema = state.get("service_ema")
        controller._chunks_seen = int(state.get("chunks_seen", 0))
        controller._since_decision = int(state.get("since_decision", 0))
        controller.decisions = int(state.get("decisions", 0))
        trajectory = state.get("trajectory")
        if trajectory:
            controller.trajectory = [
                (int(chunks), int(depth)) for chunks, depth in trajectory
            ]
        return controller


def nearest_rank(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the convention the dist bench reports)."""
    if not samples:
        raise ValueError("nearest_rank of an empty sample set")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"percentile must be in (0, 1], got {p}")
    ordered = sorted(samples)
    index = max(0, min(len(ordered) - 1, math.ceil(p * len(ordered)) - 1))
    return ordered[index]


class CloneGovernor:
    """Gate clone grants on live overload instead of fixed thresholds.

    Two signals say "overloaded": the candidate task's input backlog is
    at least ``clone_queue_chunks`` chunks deep, or any shard's current
    p95 chunk latency has drifted to ``clone_p95_drift`` times the p95
    of the first window observed for that shard (machine skew: a shard
    that got slow, not one that started slow).  Either signal must hold
    for ``clone_onset_decisions`` consecutive evaluations before
    :meth:`evaluate` allows a clone — transient spikes grant nothing.
    """

    def __init__(self, config: AdaptiveConfig):
        self.config = config
        self._baseline_p95: Dict[Any, float] = {}
        self._current_p95: Dict[Any, float] = {}
        self._onset = 0
        #: every evaluation with its inputs — the bench's decision log.
        self.decisions: List[Dict[str, Any]] = []

    def observe_latencies(self, source: Any, samples: Sequence[float]) -> None:
        """Feed a window of latency samples for one shard (or source key).

        The first window a source reports becomes its drift baseline.
        """
        cleaned = [s for s in samples if s >= 0.0]
        if not cleaned:
            return
        p95 = nearest_rank(cleaned, 0.95)
        if source not in self._baseline_p95:
            self._baseline_p95[source] = max(p95, 1e-9)
            return
        self._current_p95[source] = p95

    def drift(self) -> float:
        """Worst current-to-baseline p95 ratio across sources (1.0 = none)."""
        worst = 1.0
        for source, current in self._current_p95.items():
            worst = max(worst, current / self._baseline_p95[source])
        return worst

    def evaluate(self, queue_chunks: int) -> bool:
        """One clone decision: True iff sustained overload says clone now."""
        drift = self.drift()
        queue_deep = queue_chunks >= self.config.clone_queue_chunks
        drifted = drift >= self.config.clone_p95_drift
        overloaded = queue_deep or drifted
        self._onset = self._onset + 1 if overloaded else 0
        allow = self._onset >= self.config.clone_onset_decisions
        self.decisions.append(
            {
                "queue_chunks": queue_chunks,
                "p95_drift": drift,
                "queue_deep": queue_deep,
                "drifted": drifted,
                "onset": self._onset,
                "allow": allow,
            }
        )
        return allow

    def snapshot(self) -> Dict[str, Any]:
        return {
            "baseline_p95": dict(self._baseline_p95),
            "current_p95": dict(self._current_p95),
            "onset": self._onset,
            "decisions": [dict(d) for d in self.decisions],
        }

    @classmethod
    def restore(cls, config: AdaptiveConfig, state: Dict[str, Any]) -> "CloneGovernor":
        governor = cls(config)
        governor._baseline_p95 = dict(state.get("baseline_p95", {}))
        governor._current_p95 = dict(state.get("current_p95", {}))
        governor._onset = int(state.get("onset", 0))
        governor.decisions = [dict(d) for d in state.get("decisions", [])]
        return governor


def reservoir_sample(samples: Sequence[Any], k: int, *seed_parts: object) -> List[Any]:
    """Uniform ``k``-sample of ``samples`` (Algorithm R), seeded.

    Every element has probability ``k/n`` of surviving, so a capped
    latency population keeps its steady-state shape instead of freezing
    the first ``k`` warm-up samples.  Deterministic in the seed labels.
    """
    if k < 1:
        raise ValueError(f"reservoir size must be >= 1, got {k}")
    if len(samples) <= k:
        return list(samples)
    rng = rng_from("latency-reservoir", *seed_parts)
    reservoir = list(samples[:k])
    for index in range(k, len(samples)):
        slot = rng.randrange(index + 1)
        if slot < k:
            reservoir[slot] = samples[index]
    return reservoir


def _parity_probe(shards: int, target: float) -> Tuple[float, float]:
    """Eq. 1 at the derived floor — used by the sim/dist parity test."""
    floor = utilization_floor(shards, target)
    return floor, expected_utilization(floor, shards)
