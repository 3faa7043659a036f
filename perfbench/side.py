"""Fixed calibration slices for the traced run.

Every traced run measures the same slices, whatever its workload, so
these per-layer numbers mean one thing everywhere:

* a ``device-rmc2`` slice run on a plain fast-path device and again with
  a ``Tracer``, a ``Profiler`` or the sanitizer turned on alone (the
  instrumentation overheads), and on a ``fastpath=False`` shadow device
  whose outputs and timings must equal the fast path's (the DES oracle's
  read rate);
* the flash replay at 1 and 4 RMC2 samples per lookup call, and the
  autoscaler and cluster dispatch at trace lengths L and 2L, giving
  log-log scaling exponents;
* a DES replay of one fleet trace, whose document must be byte-identical
  to the fast path's (the serving oracle's batch rate).

The two DES rates are scaled to the reference speed (``speed.py``); the
overheads and exponents are ratios of back-to-back timings.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import Dict, Tuple

from repro.core.device import RMSSD
from repro.models import build_model, get_config
from repro.obs import Profiler, Tracer
from repro.workloads.inputs import RequestGenerator

import speed
from spans import SpanRecorder
from workloads import (
    CYCLE_NS,
    ROWS_PER_TABLE,
    autoscale_trace,
    fleet_trace,
    operating_point,
    serve,
    sub_seeds,
)

SLICE_OPS = 8
DES_OPS = 2
REPEATS = 3
AUTOSCALE_L_NS = 3e8
FLEET_L_NS = 1e9
AUTOSCALE_SPANS = (
    "host.autoscale.observe",
    "host.autoscale.causal_alerts",
    "host.autoscale.evaluate",
)


def _exponent(small: float, large: float, ratio: float) -> float:
    if small <= 0 or large <= 0:
        return 0.0
    return math.log(large / small) / math.log(ratio)


def device_slice(seed: int) -> Tuple[Dict[str, float], bool]:
    model_seed, input_seed = sub_seeds(seed, 2)
    config = get_config("rmc2")
    model = build_model(config, rows_per_table=ROWS_PER_TABLE, seed=model_seed)
    generator = RequestGenerator(
        config, ROWS_PER_TABLE, hot_access_fraction=0.65, seed=input_seed
    )
    requests = generator.requests(1 + SLICE_OPS, batch_size=1)

    def device(**kwargs) -> RMSSD:
        options = {"sanitize": False, "fastpath": True}
        options.update(kwargs)
        return RMSSD(model, config.lookups_per_table, **options)

    # Every variant serves each request back to back with the plain
    # device, so both sides of a ratio see the same host speed; the order
    # rotates, so no variant always pays for going first.
    variants = {
        "base": device(),
        "obs.tracer_overhead": device(tracer=Tracer()),
        "obs.profiler_overhead": device(profiler=Profiler()),
        "sim.sanitizer_overhead": device(sanitize=True),
    }
    base_results = []
    ratios = {name: [] for name in variants if name != "base"}
    names = list(variants)
    for position, request in enumerate(requests):
        times = {}
        turn = position % len(names)
        for name in names[turn:] + names[:turn]:
            start = time.perf_counter()
            result = variants[name].infer_batch(request.dense, request.sparse)
            times[name] = time.perf_counter() - start
            if name == "base":
                base_results.append(result)
        if position == 0:
            continue  # warm-up
        for name in ratios:
            ratios[name].append(times[name] / times["base"])
    metrics = {name: statistics.median(values) for name, values in ratios.items()}
    base = variants.pop("base")
    variants.clear()  # each device holds a copy of the tables

    shadow = device(fastpath=False)
    reads0 = shadow.stats.flash_vector_reads

    def replay_des():
        start = time.perf_counter()
        results = [shadow.infer_batch(r.dense, r.sparse) for r in requests[: 1 + DES_OPS]]
        return results, time.perf_counter() - start

    (shadow_results, elapsed), scale = speed.bracketed(replay_des)
    metrics["sim.des_reads_per_s"] = (
        shadow.stats.flash_vector_reads - reads0
    ) / (elapsed * scale)
    ok = all(
        des_timing == timing and des_out.tobytes() == out.tobytes()
        for (des_out, des_timing), (out, timing) in zip(shadow_results, base_results)
    )

    # Flash replay cost per lookup call at 1 and 4 samples.
    engine = base.lookup_engine
    quad = [s for r in requests[1:5] for s in r.sparse]

    def replay_s(batch) -> float:
        recorder = SpanRecorder(only=("ssd.fastpath.replay_reads",))
        with recorder.patched():
            engine.lookup_batch(batch, fast=True)
        return recorder.inclusive_s("ssd.fastpath.replay_reads")

    metrics["ssd.fastpath.scaling_exponent"] = statistics.median(
        _exponent(replay_s(requests[1].sparse), replay_s(quad), 4)
        for _ in range(REPEATS)
    )
    return metrics, ok


def cluster_slice(seed: int) -> Tuple[Dict[str, float], bool]:
    model_seed, trace_seed = sub_seeds(seed, 2)
    model = build_model(
        get_config("rmc1"), rows_per_table=ROWS_PER_TABLE, seed=model_seed
    )
    result = operating_point(model)
    replica_qps = result.times.throughput_qps(1e9 / CYCLE_NS)
    metrics: Dict[str, float] = {}

    def layer_s(trace, autoscale: bool, spans) -> float:
        recorder = SpanRecorder(only=spans)
        with recorder.patched():
            serve(result.times, result.nbatch, trace, autoscale, fast=True)
        return sum(recorder.inclusive_s(name) for name in spans)

    def exponent(make, length_ns: float, autoscale: bool, spans) -> float:
        """Median log-log slope over back-to-back L / 2L pairs."""
        small = make(replica_qps, length_ns, trace_seed)
        large = make(replica_qps, 2 * length_ns, trace_seed)
        return statistics.median(
            _exponent(layer_s(small, autoscale, spans), layer_s(large, autoscale, spans), 2)
            for _ in range(REPEATS)
        )

    metrics["host.autoscale.scaling_exponent"] = exponent(
        autoscale_trace, AUTOSCALE_L_NS, True, AUTOSCALE_SPANS
    )
    metrics["host.cluster_serving.scaling_exponent"] = exponent(
        fleet_trace, FLEET_L_NS, False, ("host.cluster_serving.serve_trace",)
    )

    trace = fleet_trace(replica_qps, FLEET_L_NS, trace_seed)
    _, fast_doc = serve(result.times, result.nbatch, trace, False, fast=True)
    recorder = SpanRecorder(only=("core.pipeline_sim.run",))

    def replay_des():
        with recorder.patched():
            return serve(result.times, result.nbatch, trace, False, fast=False)

    (point, des_doc), scale = speed.bracketed(replay_des)
    elapsed = recorder.inclusive_s("core.pipeline_sim.run") * scale
    metrics["core.pipeline_sim.des_batches_per_s"] = (
        point.batches / elapsed if elapsed > 0 else 0.0
    )
    ok = point.path == "des" and json.dumps(des_doc, sort_keys=True) == json.dumps(
        fast_doc, sort_keys=True
    )
    return metrics, ok


def calibrate(seed: int) -> Tuple[Dict[str, float], bool]:
    """Every calibration metric, and whether both oracle checks held."""
    device_metrics, device_ok = device_slice(seed)
    cluster_metrics, cluster_ok = cluster_slice(seed)
    return {**device_metrics, **cluster_metrics}, device_ok and cluster_ok
