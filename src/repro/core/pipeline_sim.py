"""Discrete-event validation of the Eq. 1 pipeline model.

The analytic stage-time model assumes perfect pipelining: steady-state
throughput of one batch per ``max(Temb', Tbot', Ttop')``.  This module
*simulates* the three-stage pipeline on the DES kernel — each engine
stage is a unit-capacity server, batches flow embedding∥bottom -> top —
so the assumption can be checked rather than trusted, including under
per-batch service-time jitter (real flash reads vary with striping
luck).

Used by ``benchmarks/bench_ext_pipeline_validation.py`` and the unit
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence

import numpy as np

from repro.core import pipeline_fast
from repro.fpga.compose import StageTimes
from repro.obs import names, resolve_profiler, resolve_tracer
from repro.sim import Server, Simulator


@dataclass
class BatchRecord:
    """Timeline of one batch through the pipeline (ns).

    The ``*_start_ns`` fields record when each stage's *service*
    began (after any wait for the stage server), so queueing and
    service time separate cleanly: the queue wait is
    ``emb_start_ns - arrival_ns``.
    """

    index: int
    arrival_ns: float
    emb_start_ns: float = 0.0
    emb_done_ns: float = 0.0
    bot_start_ns: float = 0.0
    bot_done_ns: float = 0.0
    top_start_ns: float = 0.0
    top_done_ns: float = 0.0

    @property
    def latency_ns(self) -> float:
        return self.top_done_ns - self.arrival_ns

    @property
    def queue_ns(self) -> float:
        """Time spent waiting before the embedding stage started."""
        return self.emb_start_ns - self.arrival_ns


@dataclass
class PipelineRunResult:
    """Outcome of streaming N batches through the simulated pipeline."""

    records: List[BatchRecord]
    makespan_ns: float
    #: Which implementation produced the records: "des" for the
    #: event-driven reference, "fast" for the closed-form replay
    #: (bitwise-equal; see repro/core/pipeline_fast.py).
    path: str = "des"

    @property
    def batches(self) -> int:
        return len(self.records)

    @property
    def steady_interval_ns(self) -> float:
        """Mean inter-completion gap once the pipeline is full."""
        completions = [r.top_done_ns for r in self.records]
        if len(completions) < 3:
            return self.makespan_ns / max(1, len(completions))
        # Skip the fill: measure from the second completion on.
        gaps = [b - a for a, b in zip(completions[1:], completions[2:])]
        return sum(gaps) / len(gaps)

    @property
    def mean_latency_ns(self) -> float:
        return sum(r.latency_ns for r in self.records) / len(self.records)


class PipelineSimulator:
    """Three-stage RM-SSD pipeline on the DES.

    ``emb_ns`` / ``bot_ns`` / ``top_ns`` give each batch's stage times;
    they may be constants or callables of the batch index (to inject
    jitter).  Embedding and bottom-MLP stages run concurrently for a
    batch; the top stage starts when both finish.  Each stage serves
    one batch at a time (the engines are single pipelines), which is
    exactly the structure behind Eq. 1.
    """

    def __init__(
        self,
        emb_ns,
        bot_ns,
        top_ns,
        tracer=None,
        profiler=None,
        metrics=None,
        critpath=None,
    ) -> None:
        # Raw values feed the fast replay (constants skip its
        # per-index evaluation loop); the DES always calls through
        # the normalized callables.
        self._emb_raw = emb_ns
        self._bot_raw = bot_ns
        self._top_raw = top_ns
        self._emb = self._as_fn(emb_ns)
        self._bot = self._as_fn(bot_ns)
        self._top = self._as_fn(top_ns)
        self.tracer = resolve_tracer(tracer)
        #: Utilization profiler fed by both paths: the DES wires it
        #: into its Simulator (Server.serve records the triples), the
        #: fast replay records the identical triples directly.
        self.profiler = resolve_profiler(profiler)
        #: Optional MetricsRegistry: run() observes per-batch
        #: latency/queue-wait into the serving histograms, stamped at
        #: the batch's completion instant so a windowed registry rolls
        #: them into simulated-clock windows (repro.obs.timeseries).
        self.metrics = metrics
        #: Optional CritPathCollector (repro.obs.critpath): run() hands
        #: it the finished run's per-batch records.
        self.critpath = critpath

    @staticmethod
    def _as_fn(value) -> Callable[[int], float]:
        if callable(value):
            return value
        return lambda _index: float(value)

    @classmethod
    def from_stage_times(
        cls,
        times: StageTimes,
        cycle_ns: float = 5.0,
        tracer=None,
        profiler=None,
        metrics=None,
        critpath=None,
    ) -> "PipelineSimulator":
        return cls(
            emb_ns=times.temb * cycle_ns,
            bot_ns=times.tbot * cycle_ns,
            top_ns=times.ttop * cycle_ns,
            tracer=tracer,
            profiler=profiler,
            metrics=metrics,
            critpath=critpath,
        )

    def run(
        self,
        batches: int,
        arrival_interval_ns: float = 0.0,
        arrival_times_ns: Optional[Sequence[float]] = None,
        fast: Optional[bool] = None,
    ) -> PipelineRunResult:
        """Stream ``batches`` through the pipeline.

        ``arrival_interval_ns = 0`` models the host pre-send keeping
        the device saturated; a positive value models a fixed-rate
        open loop; ``arrival_times_ns`` overrides with explicit
        (sorted) arrival instants — e.g. a Poisson process.

        ``fast=None`` follows ``RMSSD_FASTPATH`` (default on): the
        closed-form replay is bitwise-equal to the DES for index-pure
        stage-time callables (constants always qualify).  Pass
        ``fast=False`` for stage callables with cross-call state whose
        results depend on evaluation count rather than batch index.
        """
        if batches < 1:
            raise ValueError("need at least one batch")
        if arrival_times_ns is not None:
            if len(arrival_times_ns) != batches:
                raise ValueError("one arrival time per batch required")
            arrivals = list(arrival_times_ns)
            if len(arrivals) > 1 and bool(
                np.any(np.diff(np.asarray(arrivals, dtype=np.float64)) < 0)
            ):
                raise ValueError("arrival times must be sorted")
        else:
            arrivals = [i * arrival_interval_ns for i in range(batches)]
        if pipeline_fast.resolve_fast(fast):
            records, makespan, path = self._run_fast(arrivals)
        else:
            records, makespan, path = self._run_des(arrivals)
        # The one emitter: both paths hand over bitwise-equal records,
        # so every export built from them is byte-identical across
        # paths by construction.
        self._observe_completions(records)
        if self.critpath is not None:
            self.critpath.record_requests(names.CRITPATH_REQUESTS, records)
        if self.tracer.enabled:
            self._emit_spans(records)
        return PipelineRunResult(records=records, makespan_ns=makespan, path=path)

    def _observe_completions(self, records: Sequence[BatchRecord]) -> None:
        """Feed the serving metrics from a finished run's records.

        One latency + one queue-wait observation per batch, plus the
        batch counter, each stamped with the batch's *completion*
        instant — a windowed registry rolls them into the window the
        batch finished in.
        """
        metrics = self.metrics
        if metrics is None:
            return
        latency_histogram = metrics.histogram(names.METRIC_SERVING_LATENCY)
        queue_histogram = metrics.histogram(names.METRIC_SERVING_QUEUE)
        batch_counter = metrics.counter(names.METRIC_SERVING_BATCHES)
        for record in records:
            done = record.top_done_ns
            latency_histogram.observe(done - record.arrival_ns, t_ns=done)
            queue_histogram.observe(
                record.emb_start_ns - record.arrival_ns, t_ns=done
            )
            batch_counter.inc(1, t_ns=done)

    def _run_fast(self, arrivals: List[float]):
        """Closed-form replay; see :mod:`repro.core.pipeline_fast`."""
        timeline, makespan = pipeline_fast.replay_serving(
            self._emb_raw, self._bot_raw, self._top_raw, arrivals,
            profiler=self.profiler,
        )
        # Release the (n, 6) array before the records are built, not
        # after run() has emitted from them: emission allocations that
        # reuse its freed block fragment the heap (a cluster run peaked
        # 6.5 MB higher that way).
        rows = timeline.tolist()
        del timeline
        records = [
            BatchRecord(i, arrival, *stamps)
            for i, (arrival, stamps) in enumerate(zip(arrivals, rows))
        ]
        return records, makespan, "fast"

    def _run_des(self, arrivals: List[float]):
        """Event-driven reference: one flow process per batch."""
        sim = Simulator()
        sim.profiler = self.profiler
        emb_server = Server(sim, names.STAGE_EMB)
        bot_server = Server(sim, names.STAGE_BOT)
        top_server = Server(sim, names.STAGE_TOP)
        records = [
            BatchRecord(index=i, arrival_ns=arrival)
            for i, arrival in enumerate(arrivals)
        ]

        def flow(record: BatchRecord) -> Generator:
            if record.arrival_ns > sim.now:
                yield sim.timeout(record.arrival_ns - sim.now)

            def emb_stage() -> Generator:
                record.emb_start_ns = max(sim.now, emb_server.free_at)
                yield emb_server.serve(self._emb(record.index))
                record.emb_done_ns = sim.now

            def bot_stage() -> Generator:
                bot_time = self._bot(record.index)
                record.bot_start_ns = max(sim.now, bot_server.free_at)
                if bot_time > 0:
                    yield bot_server.serve(bot_time)
                else:
                    record.bot_start_ns = sim.now
                record.bot_done_ns = sim.now

            yield sim.all_of([sim.process(emb_stage()), sim.process(bot_stage())])
            top_time = self._top(record.index)
            record.top_start_ns = max(sim.now, top_server.free_at)
            if top_time > 0:
                yield top_server.serve(top_time)
            else:
                record.top_start_ns = sim.now
            record.top_done_ns = sim.now

        for record in records:
            sim.process(flow(record))
        sim.run()
        return records, sim.now, "des"

    def _emit_spans(self, records: Sequence[BatchRecord]) -> None:
        """Span tree per batch: queue wait, then the three stages.

        Concurrent in-flight batches land on separate ``serve.req``
        lanes; the bottom-MLP stage overlaps the embedding stage, so
        it lives on its own ``serve.bot`` lane group.
        """
        tracer = self.tracer
        for record in records:
            track = tracer.lane_track(
                "serve.req", record.arrival_ns, record.top_done_ns
            )
            tracer.add_span(
                names.SPAN_BATCH,
                record.arrival_ns,
                record.top_done_ns,
                cat="serve",
                track=track,
                args={"index": record.index},
            )
            if record.emb_start_ns > record.arrival_ns:
                tracer.add_span(
                    names.SPAN_QUEUE,
                    record.arrival_ns,
                    record.emb_start_ns,
                    cat="serve",
                    track=track,
                )
            tracer.add_span(
                names.STAGE_EMB, record.emb_start_ns, record.emb_done_ns,
                cat="serve", track=track,
            )
            tracer.add_span(
                names.STAGE_TOP, record.top_start_ns, record.top_done_ns,
                cat="serve", track=track,
            )
            if record.bot_done_ns > record.bot_start_ns:
                bot_track = tracer.lane_track(
                    "serve.bot", record.bot_start_ns, record.bot_done_ns
                )
                tracer.add_span(
                    names.STAGE_BOT,
                    record.bot_start_ns,
                    record.bot_done_ns,
                    cat="serve",
                    track=bot_track,
                    args={"index": record.index},
                )
