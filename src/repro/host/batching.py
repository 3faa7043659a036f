"""Deadline-aware dynamic batching (extension).

RM-SSD serves small device batches; the host decides how to group an
incoming query stream into them.  Batching raises device efficiency
(up to ``II`` samples ride the kernel pipeline free, and embedding
reads amortize fixed costs) but holding queries to fill a batch adds
queueing delay — the classic trade-off the DeepRecSys line of work
schedules around.

:class:`DynamicBatcher` implements the standard policy: dispatch when
either ``max_batch`` queries are waiting or the oldest has waited
``max_wait_ns``.  Batches then flow through the three-stage RM-SSD
pipeline (:class:`~repro.core.pipeline_sim.PipelineSimulator`) with
batch-size-dependent stage times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.analysis.metrics import percentile
from repro.core.pipeline_sim import PipelineSimulator
from repro.fpga.compose import StageTimes

#: Maps a batch size to its (emb_ns, bot_ns, top_ns) stage times.
StageTimesFn = Callable[[int], tuple]


@dataclass
class BatchingResult:
    """Outcome of one batching-policy run."""

    query_latencies_ns: List[float]
    batch_sizes: List[int]
    makespan_ns: float

    @property
    def queries(self) -> int:
        return len(self.query_latencies_ns)

    @property
    def qps(self) -> float:
        return self.queries / (self.makespan_ns / 1e9) if self.makespan_ns else 0.0

    @property
    def mean_batch_size(self) -> float:
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def latency_percentile_ns(self, q: float) -> float:
        return percentile(self.query_latencies_ns, q)


class DynamicBatcher:
    """Batch-or-deadline dispatch into a 3-stage pipeline."""

    def __init__(
        self,
        stage_times_fn: StageTimesFn,
        max_batch: int,
        max_wait_ns: float,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_wait_ns < 0:
            raise ValueError("max_wait_ns must be non-negative")
        self.stage_times_fn = stage_times_fn
        self.max_batch = max_batch
        self.max_wait_ns = max_wait_ns

    @classmethod
    def from_engine(cls, mlp_engine, max_batch: int, max_wait_ns: float):
        """Build from an :class:`MLPAccelerationEngine` (stage times in
        engine cycles at 5 ns)."""

        def fn(nbatch: int) -> tuple:
            times: StageTimes = mlp_engine.stage_times_for(nbatch)
            cycle = mlp_engine.settings.cycle_ns
            return (times.temb * cycle, times.tbot * cycle, times.ttop * cycle)

        return cls(fn, max_batch, max_wait_ns)

    # ------------------------------------------------------------------
    def run(self, arrival_times_ns: Sequence[float]) -> BatchingResult:
        """Serve queries arriving at the given (sorted) instants.

        The dispatch schedule depends only on the arrivals: the
        batcher's clock moves by its own timeouts alone, replayed here
        with the DES's float steps (``now + (target - now)``).  The
        batches then ride :class:`PipelineSimulator` like every other
        serving run, so ``RMSSD_FASTPATH`` picks the DES or the
        closed-form replay (bitwise-equal).
        """
        arrivals = list(arrival_times_ns)
        if not arrivals:
            raise ValueError("no queries")
        if arrivals != sorted(arrivals):
            raise ValueError("arrival times must be sorted")

        groups: List[range] = []
        dispatch_ns: List[float] = []
        now = 0.0
        index = 0
        while index < len(arrivals):
            if now < arrivals[index]:
                now = now + (arrivals[index] - now)
            deadline = arrivals[index] + self.max_wait_ns
            take = 1
            while (
                take < self.max_batch
                and index + take < len(arrivals)
                and arrivals[index + take] <= deadline
            ):
                take += 1
            if take == self.max_batch:
                dispatch_at = max(now, arrivals[index + take - 1])
            else:
                dispatch_at = max(now, deadline)
            if now < dispatch_at:
                now = now + (dispatch_at - now)
            groups.append(range(index, index + take))
            dispatch_ns.append(now)
            index += take

        stages = [self.stage_times_fn(len(group)) for group in groups]
        served = PipelineSimulator(
            emb_ns=lambda i: stages[i][0],
            bot_ns=lambda i: stages[i][1],
            top_ns=lambda i: stages[i][2],
        ).run(len(groups), arrival_times_ns=dispatch_ns)
        latencies: List[float] = [0.0] * len(arrivals)
        for group, record in zip(groups, served.records):
            for query in group:
                latencies[query] = record.top_done_ns - arrivals[query]
        return BatchingResult(
            query_latencies_ns=latencies,
            batch_sizes=[len(group) for group in groups],
            makespan_ns=served.makespan_ns,
        )
