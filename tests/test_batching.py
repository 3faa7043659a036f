"""Tests for the deadline-aware dynamic batcher."""

import numpy as np
import pytest

from repro.host.batching import DynamicBatcher


def constant_stage_fn(emb=100.0, bot=0.0, top=20.0, per_sample_emb=0.0):
    def fn(nbatch):
        return (emb + per_sample_emb * nbatch, bot, top)

    return fn


class TestDispatchPolicy:
    def test_full_batch_dispatches_immediately(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=4, max_wait_ns=1e9)
        # 4 queries at t=0: batch forms without waiting for the deadline.
        result = batcher.run([0, 0, 0, 0])
        assert result.batch_sizes == [4]
        assert result.makespan_ns == pytest.approx(120)  # emb + top

    def test_deadline_flushes_partial_batch(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=8, max_wait_ns=50)
        result = batcher.run([0, 10])
        assert result.batch_sizes == [2]
        # Dispatch at deadline (t=50), finish at 50 + 120.
        assert result.makespan_ns == pytest.approx(170)

    def test_zero_wait_serves_singletons(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=8, max_wait_ns=0)
        result = batcher.run([0, 300, 600])
        assert result.batch_sizes == [1, 1, 1]

    def test_spread_arrivals_split_batches(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=4, max_wait_ns=30)
        result = batcher.run([0, 10, 1000, 1010])
        assert result.batch_sizes == [2, 2]

    def test_latencies_include_queueing(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=2, max_wait_ns=1e9)
        result = batcher.run([0, 40])
        # Query 0 waits for query 1 (40 ns) then 120 ns of service.
        assert result.query_latencies_ns[0] == pytest.approx(160)
        assert result.query_latencies_ns[1] == pytest.approx(120)

    def test_unsorted_arrivals_rejected(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=2, max_wait_ns=10)
        with pytest.raises(ValueError):
            batcher.run([10, 0])

    def test_empty_rejected(self):
        batcher = DynamicBatcher(constant_stage_fn(), max_batch=2, max_wait_ns=10)
        with pytest.raises(ValueError):
            batcher.run([])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DynamicBatcher(constant_stage_fn(), max_batch=0, max_wait_ns=1)
        with pytest.raises(ValueError):
            DynamicBatcher(constant_stage_fn(), max_batch=1, max_wait_ns=-1)


class TestTradeoff:
    def test_batching_raises_throughput_on_amortized_service(self):
        # Embedding cost dominated by a fixed term: batching amortizes.
        rng = np.random.default_rng(0)
        arrivals = np.cumsum(rng.exponential(30.0, size=400)).tolist()
        fn = constant_stage_fn(emb=100.0, per_sample_emb=2.0)
        singles = DynamicBatcher(fn, max_batch=1, max_wait_ns=0).run(arrivals)
        batched = DynamicBatcher(fn, max_batch=8, max_wait_ns=200).run(arrivals)
        assert batched.makespan_ns < singles.makespan_ns
        assert batched.mean_batch_size > 2

    def test_batching_adds_latency_when_underloaded(self):
        # Sparse arrivals: waiting for the deadline only hurts.
        arrivals = [i * 10_000.0 for i in range(20)]
        fn = constant_stage_fn()
        eager = DynamicBatcher(fn, max_batch=8, max_wait_ns=0).run(arrivals)
        patient = DynamicBatcher(fn, max_batch=8, max_wait_ns=5_000).run(arrivals)
        assert patient.latency_percentile_ns(50) > eager.latency_percentile_ns(50)

    def test_from_engine(self):
        from repro.core.device import RMSSD
        from repro.models import build_model, get_config

        config = get_config("rmc1")
        model = build_model(config, rows_per_table=32)
        device = RMSSD(model, lookups_per_table=4, use_des=False)
        batcher = DynamicBatcher.from_engine(
            device.mlp_engine, max_batch=4, max_wait_ns=1e6
        )
        result = batcher.run([0.0, 100.0, 200.0, 300.0])
        assert result.queries == 4
        assert result.qps > 0


def random_case(rng):
    """Arrivals with ties, zero stages and the max_wait=0 edge."""
    n = int(rng.integers(1, 80))
    gaps = rng.exponential(float(rng.choice([1.0, 13.7, 250.0])), size=n)
    gaps[rng.random(n) < 0.3] = 0.0
    arrivals = np.cumsum(gaps).tolist()
    emb, bot, top = (float(rng.choice(c)) for c in (
        [0.0, 37.3, 100.0], [0.0, 0.0, 45.5], [0.0, 0.0, 33.3]
    ))
    fn = constant_stage_fn(emb=emb, bot=bot, top=top,
                           per_sample_emb=float(rng.choice([0.0, 7.1])))
    max_batch = int(rng.integers(1, 10))
    max_wait = float(rng.choice([0.0, 13.7, 200.0]))
    return arrivals, fn, max_batch, max_wait


def outcome(result):
    return (result.batch_sizes, result.query_latencies_ns, result.makespan_ns)


class TestExecutionPaths:
    def test_des_and_fast_paths_are_bitwise_equal(self, monkeypatch):
        rng = np.random.default_rng(7)
        for _ in range(60):
            arrivals, fn, max_batch, max_wait = random_case(rng)
            outcomes = []
            for flag in ("0", "1"):
                monkeypatch.setenv("RMSSD_FASTPATH", flag)
                batcher = DynamicBatcher(fn, max_batch, max_wait)
                outcomes.append(outcome(batcher.run(arrivals)))
            assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("flag", ["0", "1"])
    def test_tie_heavy_case_pinned(self, monkeypatch, flag):
        # Exact floats produced by the event-driven batcher this replay
        # replaced: tied arrivals, max_wait=0 and a zero bottom stage.
        monkeypatch.setenv("RMSSD_FASTPATH", flag)

        def fn(nbatch):
            return (0.3 + 0.1 * nbatch, 0.0, 0.2)

        result = DynamicBatcher(fn, max_batch=2, max_wait_ns=0.0).run(
            [0.0, 0.0, 0.0, 0.1, 0.1, 0.7, 0.7, 0.7, 2.9]
        )
        assert outcome(result) == (
            [2, 1, 2, 2, 1, 1],
            [
                0.7, 0.7, 1.1, 1.4999999999999998, 1.4999999999999998,
                1.4000000000000001, 1.4000000000000001, 1.8,
                0.6000000000000005,
            ],
            3.5000000000000004,
        )

        def bot_only(nbatch):
            return (0.0, 0.45 * nbatch, 0.0)

        result = DynamicBatcher(bot_only, max_batch=3, max_wait_ns=0.0).run(
            [0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 1.3]
        )
        assert outcome(result) == (
            [3, 1, 2, 1],
            [1.35, 1.35, 1.35, 1.8, 2.6, 2.6, 1.9500000000000004],
            3.2500000000000004,
        )
