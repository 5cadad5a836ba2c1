"""The adaptive policy module: depth controller, clone governor, sampling.

Everything here is pure arithmetic (no processes), so the tests can
drive the controller with synthetic latency models and check it against
the oracle — the best static depth found by exhaustive sweep — plus the
damping guarantees (hysteresis dead band, bounded steps) and the
journaling contract (snapshot/restore is exact continuation).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.utilization import expected_utilization
from repro.dist.adaptive import (
    AdaptiveConfig,
    BatchDepthController,
    CloneGovernor,
    _parity_probe,
    derive_batch_depth,
    nearest_rank,
    reservoir_sample,
    utilization_floor,
)


# ---------------------------------------------------------------------------
# Eq. 1 floor and the derived depth


class TestUtilizationFloor:
    def test_single_shard_any_depth_saturates(self):
        assert utilization_floor(1, 0.95) == 1.0

    @pytest.mark.parametrize("shards", [2, 4, 8, 64])
    @pytest.mark.parametrize("target", [0.5, 0.9, 0.95, 0.99])
    def test_floor_meets_target_and_is_tight(self, shards, target):
        floor = utilization_floor(shards, target)
        assert expected_utilization(floor, shards) >= target - 1e-9
        if floor > 1.0:
            # Just below the floor, Eq. 1 must miss the target: the
            # inversion is exact, not merely sufficient.
            assert expected_utilization(floor * 0.98, shards) < target

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            utilization_floor(0, 0.95)
        with pytest.raises(ValueError):
            utilization_floor(4, 1.0)

    def test_parity_probe_reports_floor_utilization(self):
        floor, utilization = _parity_probe(8, 0.95)
        assert floor == utilization_floor(8, 0.95)
        assert utilization >= 0.95 - 1e-9


class TestDeriveBatchDepth:
    CONFIG = AdaptiveConfig()

    def test_compute_bound_task_gets_the_floor(self):
        # Processing far slower than the RPC: no pipelining needed beyond
        # what Eq. 1 requires of storage.
        depth = derive_batch_depth(0.001, 1.0, 4, self.CONFIG)
        assert depth == math.ceil(utilization_floor(4, 0.95) - 1e-9)

    def test_fast_consumer_gets_bandwidth_delay_product(self):
        # 10ms RPC, 2ms per chunk: five chunks must be in flight.
        assert derive_batch_depth(0.010, 0.002, 1, self.CONFIG) == 5

    def test_clamped_to_config_bounds(self):
        assert derive_batch_depth(10.0, 0.001, 1, self.CONFIG) == 16
        tight = AdaptiveConfig(min_batch=3, max_batch=6)
        assert derive_batch_depth(0.0, 0.0, 1, tight) == 3
        assert derive_batch_depth(10.0, 0.001, 1, tight) == 6

    def test_no_signal_falls_back_to_floor(self):
        assert derive_batch_depth(0.0, 0.0, 1, self.CONFIG) == 1


# ---------------------------------------------------------------------------
# the closed loop against a synthetic pipeline model


def model_throughput(depth: int, latency_s: float, service_s: float) -> float:
    """Chunks/s of the fetch pipeline at a static depth.

    With ``depth`` requests outstanding the RPC stream delivers
    ``depth / latency_s`` chunks/s; the consumer drains ``1 /
    service_s``.  The slower side bounds the run.
    """
    return min(depth / latency_s, 1.0 / service_s)


def drive(controller, latency_s, service_s, chunks, rpc_every=4):
    """Feed ``chunks`` observations from a steady (latency, service) phase."""
    for i in range(chunks):
        samples = [latency_s] if i % rpc_every == 0 else []
        controller.observe(latencies=samples, service_s=service_s)


class TestControllerConvergence:
    def test_converges_to_best_static_depth(self):
        # Oracle: sweep every static depth, keep the best throughput.
        # The controller, fed the same steady measurements, must land
        # within 5% of that oracle (the ISSUE's acceptance bound).
        config = AdaptiveConfig(max_batch=16)
        for latency_s, service_s in [(0.008, 0.004), (0.020, 0.002), (0.004, 0.008)]:
            best = max(
                model_throughput(b, latency_s, service_s) for b in range(1, 17)
            )
            controller = BatchDepthController(config, shards=1, initial_depth=4)
            drive(controller, latency_s, service_s, chunks=200)
            achieved = model_throughput(controller.depth, latency_s, service_s)
            assert achieved >= 0.95 * best, (
                f"L={latency_s} s={service_s}: depth {controller.depth} "
                f"gives {achieved:.1f}/s vs oracle {best:.1f}/s"
            )

    def test_tracks_a_mid_run_shift(self):
        # The shifting-skew scenario in miniature: the task speeds up
        # mid-run (hot window drained), so the pipeline must deepen.
        config = AdaptiveConfig(max_batch=16)
        controller = BatchDepthController(config, shards=1, initial_depth=2)
        drive(controller, 0.008, 0.008, chunks=100)
        settled = controller.depth
        assert settled <= 2  # compute-bound: shallow is right
        drive(controller, 0.008, 0.001, chunks=100)
        assert controller.depth == 8  # latency/service = 8 after the shift
        assert controller.depth > settled

    def test_decisions_only_every_window(self):
        config = AdaptiveConfig(window=8)
        controller = BatchDepthController(config, shards=1, initial_depth=1)
        for i in range(1, 25):
            controller.observe(latencies=[0.01], service_s=0.001)
            assert controller.decisions == i // 8


class TestControllerDamping:
    def test_hysteresis_dead_band_holds_shrinks(self):
        # Target 3 vs current 4 is inside a 25% downward dead band: the
        # depth holds rather than oscillating around a noisy target.
        config = AdaptiveConfig(window=1, hysteresis=0.25)
        controller = BatchDepthController(config, shards=1, initial_depth=4)
        moved = controller.observe(latencies=[0.003], service_s=0.001)
        assert moved is None and controller.depth == 4

    def test_deepening_is_not_damped(self):
        # An upward gap of even one step starves the consumer if held
        # back, so hysteresis applies only to shrinks.
        config = AdaptiveConfig(window=1, hysteresis=0.25)
        controller = BatchDepthController(config, shards=1, initial_depth=4)
        assert controller.observe(latencies=[0.005], service_s=0.001) == 5

    def test_zero_hysteresis_shrinks_on_any_gap(self):
        config = AdaptiveConfig(window=1, hysteresis=0.0)
        controller = BatchDepthController(config, shards=1, initial_depth=4)
        assert controller.observe(latencies=[0.003], service_s=0.001) == 3

    def test_step_bound_limits_each_decision(self):
        # Target 16 from depth 1: reached in max_step=2 increments, one
        # per window, never a jump.
        config = AdaptiveConfig(window=1, max_step=2, hysteresis=0.0)
        controller = BatchDepthController(config, shards=1, initial_depth=1)
        depths = [controller.depth]
        for _ in range(12):
            controller.observe(latencies=[0.016], service_s=0.001)
            depths.append(controller.depth)
        assert max(
            abs(b - a) for a, b in zip(depths, depths[1:])
        ) <= 2
        assert controller.depth == 16

    def test_trajectory_records_every_move(self):
        config = AdaptiveConfig(window=1, max_step=2, hysteresis=0.0)
        controller = BatchDepthController(config, shards=1, initial_depth=1)
        for _ in range(6):
            controller.observe(latencies=[0.008], service_s=0.001)
        assert controller.trajectory[0] == (0, 1)
        chunks = [c for c, _ in controller.trajectory]
        assert chunks == sorted(chunks)
        assert controller.trajectory[-1][1] == controller.depth


class TestControllerSnapshot:
    def test_round_trip_is_exact_continuation(self):
        config = AdaptiveConfig(window=3)
        original = BatchDepthController(config, shards=2, initial_depth=4)
        drive(original, 0.012, 0.002, chunks=10)
        resumed = BatchDepthController.restore(
            config, 2, original.snapshot()
        )
        assert resumed.snapshot() == original.snapshot()
        # The same suffix of observations lands both in the same state —
        # mid-window counters included, or a resumed worker would decide
        # at the wrong chunk.
        drive(original, 0.012, 0.002, chunks=11)
        drive(resumed, 0.012, 0.002, chunks=11)
        assert resumed.snapshot() == original.snapshot()

    def test_snapshot_is_primitives_only(self):
        controller = BatchDepthController(AdaptiveConfig(), shards=1)
        drive(controller, 0.01, 0.001, chunks=10)

        def primitive(value):
            if isinstance(value, (list, tuple)):
                return all(primitive(v) for v in value)
            if isinstance(value, dict):
                return all(primitive(v) for v in value.values())
            return value is None or isinstance(value, (bool, int, float, str))

        assert primitive(controller.snapshot())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.floats(min_value=-1.0, max_value=10.0, allow_nan=False),
                max_size=3,
            ),
            st.one_of(
                st.none(),
                st.floats(min_value=-1.0, max_value=10.0, allow_nan=False),
            ),
        ),
        max_size=80,
    ),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=12),
)
def test_property_depth_stays_bounded(stream, min_batch, extra):
    """Whatever the measurement stream, b never leaves [min, max]."""
    config = AdaptiveConfig(
        min_batch=min_batch,
        max_batch=min_batch + extra,
        window=2,
        hysteresis=0.1,
    )
    controller = BatchDepthController(config, shards=3)
    for latencies, service_s in stream:
        controller.observe(latencies=latencies, service_s=service_s)
        assert config.min_batch <= controller.depth <= config.max_batch
    for _chunks, depth in controller.trajectory:
        assert config.min_batch <= depth <= config.max_batch


# ---------------------------------------------------------------------------
# clone governor


class TestCloneGovernor:
    CONFIG = AdaptiveConfig(
        clone_queue_chunks=8, clone_p95_drift=1.5, clone_onset_decisions=2
    )

    def test_deep_queue_needs_sustained_onset(self):
        governor = CloneGovernor(self.CONFIG)
        assert governor.evaluate(20) is False  # first overloaded evaluation
        assert governor.evaluate(20) is True  # second in a row: allowed

    def test_transient_spike_grants_nothing(self):
        governor = CloneGovernor(self.CONFIG)
        assert governor.evaluate(20) is False
        assert governor.evaluate(0) is False  # spike over: onset resets
        assert governor.evaluate(20) is False

    def test_p95_drift_against_first_window_baseline(self):
        governor = CloneGovernor(self.CONFIG)
        governor.observe_latencies("shard0", [0.010] * 20)  # baseline
        governor.observe_latencies("shard0", [0.011] * 20)
        assert governor.drift() == pytest.approx(1.1)
        assert governor.evaluate(0) is False  # 1.1 < 1.5: not drifted
        governor.observe_latencies("shard0", [0.020] * 20)
        assert governor.evaluate(0) is False  # drifted, onset 1 of 2
        assert governor.evaluate(0) is True

    def test_slow_from_the_start_is_not_drift(self):
        # A shard that was always slow sets a slow baseline; drift flags
        # shards that *got* slower, which is the machine-skew signal.
        governor = CloneGovernor(self.CONFIG)
        governor.observe_latencies("shard0", [0.5] * 10)
        governor.observe_latencies("shard0", [0.5] * 10)
        assert governor.drift() == pytest.approx(1.0)

    def test_decision_log_records_every_evaluation(self):
        governor = CloneGovernor(self.CONFIG)
        governor.evaluate(20)
        governor.evaluate(0)
        assert [d["allow"] for d in governor.decisions] == [False, False]
        assert governor.decisions[0]["queue_deep"] is True
        assert governor.decisions[1]["onset"] == 0

    def test_snapshot_round_trip_preserves_onset(self):
        governor = CloneGovernor(self.CONFIG)
        governor.observe_latencies("s", [0.01] * 5)
        governor.observe_latencies("s", [0.05] * 5)
        governor.evaluate(20)
        resumed = CloneGovernor.restore(self.CONFIG, governor.snapshot())
        assert resumed.snapshot() == governor.snapshot()
        # One overloaded evaluation happened pre-snapshot; the restored
        # governor's next one completes the onset exactly like the
        # original's would.
        assert governor.evaluate(20) is True
        assert resumed.evaluate(20) is True


# ---------------------------------------------------------------------------
# reservoir sampling (the 512-cap warm-up-bias fix)


class TestReservoirSample:
    def test_small_population_returned_whole(self):
        assert reservoir_sample([1, 2, 3], 512, "node") == [1, 2, 3]

    def test_deterministic_in_seed_labels(self):
        population = list(range(5_000))
        first = reservoir_sample(population, 512, "node", 3)
        again = reservoir_sample(population, 512, "node", 3)
        other = reservoir_sample(population, 512, "node", 4)
        assert first == again
        assert first != other

    def test_no_warm_up_bias(self):
        # The old cap kept samples[:512] — all warm-up.  Algorithm R
        # keeps each element with probability k/n, so roughly 3/4 of a
        # 512-sample reservoir over 2048 elements comes from the
        # post-warm-up region, and truncation would keep exactly none.
        population = list(range(2_048))
        kept = reservoir_sample(population, 512, "node", 0)
        assert len(kept) == 512
        late = sum(1 for value in kept if value >= 512)
        assert late > 256

    def test_rejects_empty_reservoir(self):
        with pytest.raises(ValueError):
            reservoir_sample([1], 0, "node")


class TestNearestRank:
    def test_matches_convention(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert nearest_rank(samples, 0.5) == 3.0
        assert nearest_rank(samples, 1.0) == 5.0
        assert nearest_rank(samples, 0.95) == 5.0

    def test_rejects_empty_and_bad_percentile(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)


# ---------------------------------------------------------------------------
# one policy module across engines


class TestOnePolicyModule:
    def test_local_engine_uses_the_shared_module(self):
        from repro.local import runtime as local_runtime

        assert local_runtime.AdaptiveConfig is AdaptiveConfig
        assert local_runtime.CloneGovernor is CloneGovernor


class TestAdaptiveConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_batch": 0},
            {"max_batch": 0},
            {"min_batch": 8, "max_batch": 4},
            {"window": 0},
            {"target_utilization": 1.0},
            {"hysteresis": -0.1},
            {"max_step": 0},
            {"smoothing": 0.0},
            {"clone_onset_decisions": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)
