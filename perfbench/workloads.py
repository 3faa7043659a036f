"""The four benchmark workloads.

Each workload builds its inputs from the seed (:meth:`setup`), runs one
operation per call (:meth:`op`), checks each operation's output outside
the timed region (:meth:`check`) and replays a sample of operations on
the reference path after the timed loop (:meth:`final_check`).  Why
each workload exists, and which layer metric should move which
end-to-end metric on it, is in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.device import RMSSD
from repro.core.lookup_engine import flash_read_cycles
from repro.fpga.decompose import decompose_model
from repro.fpga.search import kernel_search
from repro.host.autoscale import Autoscaler
from repro.host.cluster_serving import ClusterServingSimulator
from repro.models import build_model, get_config
from repro.obs import MetricsRegistry, Profiler
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel
from repro.ssd.vcache import VectorCache
from repro.workloads.arrivals import diurnal_trace, flash_crowd_trace
from repro.workloads.inputs import RequestGenerator

ROWS_PER_TABLE = 8192
#: Timed operations whose simulated outcomes are averaged into the
#: exact per-op counts (every run holds at least this many).
COUNTED_OPS = 100


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class DeviceWorkload:
    """One ``RMSSD.infer_batch`` per operation, at the device batch."""

    def __init__(
        self,
        name: str,
        model: str,
        hot_fraction: float,
        cache_divisor: Optional[int],
        pool: int,
        warm_ops: int,
        shadow_ops: int,
    ) -> None:
        self.name = name
        self.model_name = model
        self.hot_fraction = hot_fraction
        #: Vector cache capacity = total rows // divisor (None: no cache).
        self.cache_divisor = cache_divisor
        self.pool = pool
        self.warm_ops = warm_ops
        self.shadow_ops = shadow_ops

    def _device(self, model, config, fastpath: bool) -> RMSSD:
        vcache = None
        if self.cache_divisor is not None:
            rows = sum(table.rows for table in model.tables)
            vcache = VectorCache(rows // self.cache_divisor, policy="lru")
        return RMSSD(
            model,
            config.lookups_per_table,
            sanitize=False,
            fastpath=fastpath,
            vcache=vcache,
        )

    def _input(self, state: dict, index: int):
        return state["requests"][index % self.pool]

    def setup(self, seed: int) -> Tuple[dict, Dict[str, float]]:
        model_seed, input_seed = sub_seeds(seed, 2)
        t0 = time.perf_counter()
        config = get_config(self.model_name)
        model = build_model(config, rows_per_table=ROWS_PER_TABLE, seed=model_seed)
        t1 = time.perf_counter()
        device = self._device(model, config, fastpath=True)
        t2 = time.perf_counter()
        generator = RequestGenerator(
            config,
            ROWS_PER_TABLE,
            hot_access_fraction=self.hot_fraction,
            seed=input_seed,
        )
        requests = generator.requests(self.pool, batch_size=device.supported_nbatch)
        t3 = time.perf_counter()
        state = {
            "config": config,
            "model": model,
            "device": device,
            "requests": requests,
            "warm": [],
            "prefix": [],
            "vectors": [],
            "latency_ns": [],
            "vcache_counted": None,
        }
        # Warm the vector cache (and every lazy structure) before timing;
        # the shadow replays exactly these operations first.
        for index in range(self.warm_ops):
            request = requests[index % self.pool]
            state["warm"].append(device.infer_batch(request.dense, request.sparse))
        state["reads_seen"] = device.stats.flash_vector_reads
        if device.vcache is not None:
            state["vcache_seen"] = _vcache_counts(device.vcache)
        t4 = time.perf_counter()
        return state, {
            "models.build_model.s": t1 - t0,
            "core.device.construct.s": t2 - t1,
            "workloads.inputs.gen_s": t3 - t2,
            "bench.warmup.s": t4 - t3,
        }

    def queries(self, state: dict, index: int) -> int:
        return len(self._input(state, self.warm_ops + index).sparse)

    def op(self, state: dict, index: int):
        request = self._input(state, self.warm_ops + index)
        return state["device"].infer_batch(request.dense, request.sparse)

    def check(self, state: dict, index: int, result) -> bool:
        """Outputs byte-equal to the host reference ``model.forward``."""
        outputs, timing = result
        request = self._input(state, self.warm_ops + index)
        reference = state["model"].forward(request.dense, request.sparse)
        device = state["device"]
        reads = device.stats.flash_vector_reads
        if len(state["vectors"]) < COUNTED_OPS:
            state["vectors"].append(reads - state["reads_seen"])
            state["latency_ns"].append(timing.latency_ns)
            if len(state["vectors"]) == COUNTED_OPS and device.vcache is not None:
                state["vcache_counted"] = _vcache_counts(device.vcache)
        state["reads_seen"] = reads
        if len(state["prefix"]) < self.shadow_ops:
            state["prefix"].append(result)
        return (
            outputs.dtype == reference.dtype
            and outputs.shape == reference.shape
            and outputs.tobytes() == reference.tobytes()
        )

    def final_check(self, state: dict) -> Set[int]:
        """A ``fastpath=False`` shadow device replays the warm-up and the
        first timed operations; outputs and ``DeviceTiming`` must be
        exactly equal.  Returns the indices of mismatching timed ops."""
        shadow = self._device(state["model"], state["config"], fastpath=False)
        failed: Set[int] = set()
        fast_results = state["warm"] + state["prefix"]
        for position, (outputs, timing) in enumerate(fast_results):
            request = state["requests"][position % self.pool]
            des_outputs, des_timing = shadow.infer_batch(request.dense, request.sparse)
            same = des_timing == timing and des_outputs.tobytes() == outputs.tobytes()
            if not same:
                failed.add(max(0, position - self.warm_ops))
        return failed

    def sim_counts(self, state: dict) -> Dict[str, float]:
        """Simulated outcomes over the first :data:`COUNTED_OPS` timed
        ops, so they do not depend on how many ops the host fitted in:
        reads and latency per op, vector-cache hit ratio and evictions
        per op."""
        vectors = state["vectors"]
        latency = state["latency_ns"]
        counts = {
            "ssd.vectors_read": sum(vectors) / len(vectors) if vectors else 0.0,
            "core.device.sim_latency_ns": sum(latency) / len(latency) if latency else 0.0,
        }
        if state["vcache_counted"] is not None:
            hits0, lookups0, evictions0 = state["vcache_seen"]
            hits, lookups, evictions = state["vcache_counted"]
            counts["ssd.vcache.hit_ratio"] = (hits - hits0) / max(1, lookups - lookups0)
            counts["ssd.vcache.evictions"] = (evictions - evictions0) / COUNTED_OPS
        return counts


def _vcache_counts(vcache) -> Tuple[int, int, int]:
    return vcache.hits, vcache.lookups, vcache.evictions


# ----------------------------------------------------------------------
# Cluster workloads
# ----------------------------------------------------------------------
CLUSTER_MODEL = "rmc1"
CYCLE_NS = 5.0
WINDOW_NS = 2e6
BALANCER = "jsq"
FLEET_REPLICAS = 8
#: Traces whose first operation is replayed on the DES after the loop.
DES_SAMPLED_TRACES = 4


def operating_point(model):
    """Kernel-searched stage times of one RM-SSD replica."""
    config = get_config(CLUSTER_MODEL)
    decomposed = decompose_model(model, config.lookups_per_table)
    flash = flash_read_cycles(
        decomposed.vectors_per_inference,
        SSDGeometry(),
        SSDTimingModel(),
        config.ev_size,
    )
    return kernel_search(decomposed, flash)


def autoscale_trace(replica_qps: float, duration_ns: float, seed: int):
    """Flash crowd: 0.7x one replica's saturation, 4x burst over 40%."""
    return flash_crowd_trace(
        0.7 * replica_qps,
        duration_ns,
        burst_start_ns=0.3 * duration_ns,
        burst_duration_ns=0.4 * duration_ns,
        burst_factor=4.0,
        seed=seed,
    )


def fleet_trace(replica_qps: float, duration_ns: float, seed: int):
    """Diurnal: 0.7x the 8-replica fleet's saturation, amplitude 0.5."""
    return diurnal_trace(
        0.7 * FLEET_REPLICAS * replica_qps,
        duration_ns,
        period_ns=duration_ns / 2,
        amplitude=0.5,
        seed=seed,
    )


def new_autoscaler() -> Autoscaler:
    """The burn-rate controller of ``bench_ext_autoscale``: pages on
    SLA/4 of a 40 ms p99, 1..6 replicas, +2 per page, 2-window epochs."""
    return Autoscaler(
        sla_ns=4e7 / 4.0,
        quantile=99.0,
        window_ns=WINDOW_NS,
        min_replicas=1,
        max_replicas=6,
        scale_up_step=2,
        epoch_windows=2,
    )


def serve(times, nbatch: int, trace, autoscale: bool, fast: bool):
    """One cluster operation: serve the trace, export the document."""
    sim = ClusterServingSimulator(
        times,
        cycle_ns=CYCLE_NS,
        nbatch=nbatch,
        replicas=1 if autoscale else FLEET_REPLICAS,
        balancer=BALANCER,
        autoscaler=new_autoscaler() if autoscale else None,
        metrics=MetricsRegistry(window_ns=WINDOW_NS),
        profiler=Profiler(),
    )
    point = sim.serve_trace(trace, fast=fast)
    return point, sim.timeseries_document()


def fingerprint(point, document) -> str:
    """SHA-256 of the exported document and the per-query latencies: a
    run keeps one short digest per trace, not the documents."""
    digest = hashlib.sha256(json.dumps(document, sort_keys=True).encode())
    digest.update(array("d", point.latencies_ns).tobytes())
    return digest.hexdigest()


class ClusterWorkload:
    """One ``serve_trace`` + ``timeseries_document`` per operation."""

    def __init__(
        self, name: str, autoscale: bool, duration_ns: float, trace_pool: int
    ) -> None:
        self.name = name
        self.autoscale = autoscale
        self.duration_ns = duration_ns
        #: Distinct seeded traces per run; operations cycle through them,
        #: so the op-time quantiles do not hang on a few traces.
        self.trace_pool = trace_pool

    def setup(self, seed: int) -> Tuple[dict, Dict[str, float]]:
        model_seed, *trace_seeds = sub_seeds(seed, 1 + self.trace_pool)
        t0 = time.perf_counter()
        model = build_model(
            get_config(CLUSTER_MODEL), rows_per_table=ROWS_PER_TABLE, seed=model_seed
        )
        t1 = time.perf_counter()
        result = operating_point(model)
        t2 = time.perf_counter()
        replica_qps = result.times.throughput_qps(1e9 / CYCLE_NS)
        make = autoscale_trace if self.autoscale else fleet_trace
        traces = [make(replica_qps, self.duration_ns, s) for s in trace_seeds]
        t3 = time.perf_counter()
        state = {
            "times": result.times,
            "nbatch": result.nbatch,
            "traces": traces,
            "documents": {},
            "first_op": {},
            "counts": None,
        }
        return state, {
            "models.build_model.s": t1 - t0,
            "core.device.construct.s": t2 - t1,
            "workloads.arrivals.gen_s": t3 - t2,
        }

    def queries(self, state: dict, index: int) -> int:
        return state["traces"][index % self.trace_pool].count

    def op(self, state: dict, index: int):
        trace = state["traces"][index % self.trace_pool]
        return serve(state["times"], state["nbatch"], trace, self.autoscale, fast=True)

    def check(self, state: dict, index: int, result) -> bool:
        """Every query served once; the exported document and latencies
        byte-identical to the first ones for the same trace."""
        point, document = result
        slot = index % self.trace_pool
        trace = state["traces"][slot]
        served = (
            point.queries == trace.count
            and len(point.latencies_ns) == trace.count
            and sum(point.per_replica_batches) == point.batches
            and all(latency > 0 for latency in point.latencies_ns)
        )
        key = fingerprint(point, document)
        if slot not in state["documents"]:
            state["documents"][slot] = key
            state["first_op"][slot] = index
        if slot == 0 and state["counts"] is None:
            state["counts"] = {
                "host.cluster_serving.sim_p99_ms": point.p99_ns / 1e6,
                "host.cluster_serving.sim_achieved_qps": point.achieved_qps,
                "host.cluster_serving.batches": float(point.batches),
                "host.autoscale.scale_events": float(len(point.scale_events)),
            }
        return served and key == state["documents"][slot]

    def final_check(self, state: dict) -> Set[int]:
        """The DES replay of the first operation on each sampled trace
        must export a byte-identical ``rmssd-timeseries/v1`` document and
        the same latencies."""
        failed: Set[int] = set()
        for slot in range(DES_SAMPLED_TRACES):
            if slot not in state["documents"]:
                continue  # every operation on this trace already failed
            point, document = serve(
                state["times"], state["nbatch"], state["traces"][slot],
                self.autoscale, fast=False,
            )
            same = point.path == "des" and (
                fingerprint(point, document) == state["documents"][slot]
            )
            if not same:
                failed.add(state["first_op"][slot])
        return failed

    def sim_counts(self, state: dict) -> Dict[str, float]:
        return dict(state["counts"] or {})


WORKLOADS = {
    workload.name: workload
    for workload in (
        DeviceWorkload(
            "device-rmc2", "rmc2", hot_fraction=0.65, cache_divisor=None,
            pool=128, warm_ops=2, shadow_ops=4,
        ),
        DeviceWorkload(
            "device-rmc1-vcache", "rmc1", hot_fraction=0.80, cache_divisor=100,
            pool=256, warm_ops=64, shadow_ops=32,
        ),
        # The autoscaler's op time depends much on the trace: a larger
        # pool keeps the 90th percentile from hanging on a few traces.
        ClusterWorkload(
            "cluster-autoscale", autoscale=True, duration_ns=3e8, trace_pool=192
        ),
        ClusterWorkload(
            "cluster-fleet", autoscale=False, duration_ns=1e9, trace_pool=16
        ),
    )
}
