#!/usr/bin/env python3
"""Host-time benchmark of the RM-SSD simulator.

Usage, from the repository root::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload device-rmc2 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cluster-fleet --trace 1

Each workload runs in this one process as a closed loop with a single
caller: the next operation starts when the previous one returns.  Set-up
(model, device or simulator, inputs from ``--seed``) is repeated and its
median reported; then operations run for ``--seconds`` (and at least
:data:`MIN_OPS` of them), each checked outside its timed region, and a
sample is replayed on the reference (DES) path at the end.  Every time
reported is host wall time rescaled to a reference host speed, measured
by a fixed kernel run next to each operation and set-up (``speed.py``).

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` spends half the time untraced and half with every layer
function wrapped in a span (see ``spans.py``), then runs the fixed
calibration slices (``side.py``), and prints the per-layer metrics plus
a self-time breakdown; its spans go to ``perfbench/results/``.

Each workload ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``, so the last line of
standard output is the last workload's result.  Exits 2 without a
result if the program's sources or ``BENCHMARK.json`` are missing, or if
``RMSSD_TRACE``/``RMSSD_PROFILE`` ask for instrumentation.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Set-ups per run: at least this many, and more until they have taken
#: SETUP_MIN_S; the median is reported as ``setup_s``.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 100
#: Every untraced loop holds at least this many timed operations, so
#: at least ten samples lie beyond the 90th percentile.
MIN_OPS = 100
MIN_TRACED_OPS = 20
#: Spans are kept in memory; cap the traced operations.
MAX_TRACED_OPS = 200
#: A loop stops here even short of MIN_OPS, so a run ends in time.
LOOP_CAP_S = 120.0
#: Tracebacks printed per run for failing operations.
MAX_TRACEBACKS = 3
#: Every end-to-end metric printed; ``BENCHMARK.json`` bounds all but
#: ``error_rate``, which is 0 on a correct program.
END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
#: Per-layer metrics that only some workloads have; they read 0 on the
#: others.  Any other metric missing from a record is an error.
PARTIAL_METRICS = frozenset({
    # Simulated outcomes of device or of cluster workloads.
    "ssd.vectors_read",
    "core.device.sim_latency_ns",
    "ssd.vcache.hit_ratio",
    "ssd.vcache.evictions",
    "host.cluster_serving.sim_p99_ms",
    "host.cluster_serving.sim_achieved_qps",
    "host.cluster_serving.batches",
    "host.autoscale.scale_events",
    # Set-up phases of device or of cluster workloads.
    "workloads.inputs.gen_s",
    "workloads.arrivals.gen_s",
    "bench.warmup.s",
})


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def pin_environment() -> None:
    """Sanitizer off and fast path on for everything built from here."""
    os.environ["RMSSD_SANITIZE"] = "0"
    os.environ["RMSSD_FASTPATH"] = "1"


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found next to {HERE.name}/")
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment_stamp(seed: int) -> dict:
    import numpy

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "RMSSD_SANITIZE": os.environ["RMSSD_SANITIZE"],
        "RMSSD_FASTPATH": os.environ["RMSSD_FASTPATH"],
    }


STATUS = Path("/proc/self/status")


def reset_peak_rss() -> None:
    """Hand freed heap back to the OS and restart the process's
    resident-memory high-water mark (glibc, Linux), so each workload's
    peak covers only its own set-up and timed loops, not the memory an
    earlier workload of the same run left in the allocator."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    if STATUS.is_file():
        for line in STATUS.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Timed operations of one closed loop: host seconds and simulated
    queries completed (0 for a failed operation) per operation, and the
    reference runs, one before the first operation and one after each."""

    def __init__(self) -> None:
        self.times = []
        self.queries = []
        self.failed = set()
        self.reference = [speed.reference_run()]

    @property
    def ops(self) -> int:
        return len(self.times)

    def scale(self, position: int) -> float:
        return speed.factor(speed.window(self.reference, position))

    def scaled_times(self):
        return [t * self.scale(p) for p, t in enumerate(self.times)]


def run_loop(workload, state, first, seconds, min_ops, max_ops=None, recorder=None):
    loop = Loop()
    tracebacks = 0
    begin = time.perf_counter()
    index = first
    while True:
        elapsed = time.perf_counter() - begin
        if max_ops is not None and loop.ops >= max_ops:
            break
        if (elapsed >= seconds and loop.ops >= min_ops) or elapsed >= LOOP_CAP_S:
            break
        error = None
        start = time.perf_counter()
        try:
            if recorder is None:
                result = workload.op(state, index)
            else:
                with recorder.operation(index):
                    result = workload.op(state, index)
        except Exception:  # an operation that raises counts as failed
            error = traceback.format_exc()
        loop.times.append(time.perf_counter() - start)
        loop.reference.append(speed.reference_run())
        ok = False
        if error is None:
            try:
                ok = workload.check(state, index, result)
            except Exception:
                error = traceback.format_exc()
        loop.queries.append(workload.queries(state, index) if ok else 0)
        if not ok:
            loop.failed.add(index)
            if tracebacks < MAX_TRACEBACKS:
                tracebacks += 1
                print(f"operation {index} failed", file=sys.stderr)
                print(error or "output check failed", file=sys.stderr)
        index += 1
    return loop


def timed_setup(workload, seed):
    start = time.perf_counter()
    state, parts = workload.setup(seed)
    return state, parts, time.perf_counter() - start


def set_up(workload, seed):
    """Repeat the set-up; keep the last state, report median scaled
    times."""
    totals, phases, state = [], {}, None
    begin = time.perf_counter()
    while len(totals) < SETUP_MAX_REPEATS and (
        len(totals) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_MIN_S
    ):
        state = None
        gc.collect()
        (state, parts, elapsed), scale = speed.bracketed(
            lambda: timed_setup(workload, seed)
        )
        totals.append(elapsed * scale)
        for name, value in parts.items():
            phases.setdefault(name, []).append(value * scale)
    medians = {name: statistics.median(values) for name, values in phases.items()}
    return state, statistics.median(totals), medians


def loop_metrics(times, queries) -> dict:
    """Throughput and op-time quantiles of one closed loop."""
    return {
        "queries_per_s": sum(queries) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def predictions(name, per_op):
    """The stress claims of each workload, checked on its trace."""
    from spans import self_shares

    shares = self_shares(per_op)

    def share(prefix):
        return sum(v for k, v in shares.items() if k.startswith(prefix))

    if name == "device-rmc2":
        top = max(shares, key=shares.get)
        return [(f"ssd.fastpath.replay_reads has the largest self share (top: {top})",
                 top == "ssd.fastpath.replay_reads")]
    if name == "device-rmc1-vcache":
        lookup = (share("ssd.vcache") + share("ssd.controller.peek_logical")
                  + shares.get("embedding.translator.translate", 0.0))
        replay = share("ssd.fastpath.replay_reads")
        return [(f"vcache+peek_logical+translate share {lookup:.1%} > replay {replay:.1%}",
                 lookup > replay)]
    control = share("host.autoscale") + share("obs.slo")
    if name == "cluster-autoscale":
        return [(f"host.autoscale + obs.slo share {control:.1%} > 50%", control > 0.5)]
    calls = sum(sum(e["calls"]) for k, e in per_op.items() if k.startswith("host.autoscale"))
    return [(f"host.autoscale calls = {calls}", calls == 0)]


def measure(name, seed, seconds, trace):
    """Set up and run one workload; returns its result record."""
    # Imported here: the program's modules resolve once SRC is on the path.
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    reset_peak_rss()
    state, setup_s, phases = set_up(workload, seed)
    record = {"workload": name, "stamp": environment_stamp(seed), "seconds": seconds}
    if not trace:
        loop = run_loop(workload, state, 0, seconds, MIN_OPS)
        peak = peak_rss_mb()
        failed = loop.failed | workload.final_check(state)
        scaled = loop.scaled_times()
        record.update(
            attempted=loop.ops,
            failed=len(failed),
            correct=not failed,
            metrics={
                **loop_metrics(scaled, loop.queries),
                "setup_s": setup_s,
                "peak_rss_mb": peak,
                "error_rate": len(failed) / loop.ops,
            },
            wall=loop_metrics(loop.times, loop.queries),
            reference_ms=statistics.median(loop.reference) * 1e3,
            op_times_s=loop.times,
            op_scaled_s=scaled,
        )
        return record

    from side import calibrate
    from spans import SpanRecorder, breakdown_table, layer_metrics

    untraced = run_loop(workload, state, 0, seconds / 2, MIN_OPS)
    recorder = SpanRecorder()
    with recorder.patched():
        traced = run_loop(
            workload, state, untraced.ops, seconds / 2, MIN_TRACED_OPS,
            MAX_TRACED_OPS, recorder,
        )
    failed = untraced.failed | traced.failed | workload.final_check(state)
    per_op = recorder.per_op(
        {untraced.ops + p: traced.scale(p) for p in range(traced.ops)}
    )
    side_metrics, side_ok = calibrate(seed)
    metrics = dict(phases)
    metrics.update(layer_metrics(per_op))
    metrics.update(workload.sim_counts(state))
    metrics.update(side_metrics)
    metrics["bench.reference_ms"] = statistics.median(untraced.reference) * 1e3
    metrics["bench.trace_overhead"] = (
        statistics.median(traced.scaled_times())
        / statistics.median(untraced.scaled_times())
    )
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{name}-seed{seed}.jsonl.gz"
    recorder.dump(spans_path)
    record.update(
        attempted=untraced.ops + traced.ops,
        failed=len(failed),
        correct=not failed and side_ok,
        metrics=metrics,
        predictions=[
            {"claim": claim, "holds": holds}
            for claim, holds in predictions(name, per_op)
        ],
        breakdown=breakdown_table(name, per_op),
        spans=str(spans_path.relative_to(ROOT)),
        spans_recorded=len(recorder),
    )
    return record


def select(spec_metrics, measured, workload):
    """The metrics ``BENCHMARK.json`` names, with its units."""
    out = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name in measured:
            value = measured[name]
        elif name in PARTIAL_METRICS:
            value = 0.0
        else:
            fail(f"{workload}: metric {name} was not measured")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def report(record, spec, trace):
    name = record["workload"]
    stamp = record["stamp"]
    print(f"== {name}: seed {stamp['seed']}, closed loop with one caller, "
          f"{record['seconds']:g} s, trace {int(trace)} ==")
    print("   env: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    metrics = record["metrics"]
    if not trace:
        bounded = {m["name"] for m in spec["end_to_end"]}
        wall = record["wall"]
        for key, unit in END_TO_END_UNITS.items():
            note = "" if key in bounded else "  (printed, not bounded)"
            if key in wall:
                note += f"  (wall {wall[key]:.6g})"
            print(f"   {key:<16} {metrics[key]:>14.6g} {unit}{note}")
        print(f"   reference run: {record['reference_ms']:.4f} ms median "
              f"(times above are scaled to a {speed.REFERENCE_S * 1e3:g} ms reference run)")
        print(f"   samples: {record['attempted']} ops ({record['attempted'] // 10} "
              f"beyond p90); failed {record['failed']} of {record['attempted']}")
        return
    print(record["breakdown"])
    for item in record["predictions"]:
        print(f"   prediction {'holds' if item['holds'] else 'FAILS'}: {item['claim']}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key in sorted(units):
        print(f"   {key:<48} {metrics.get(key, 0.0):>14.6g} {units[key]}")
    print(f"   spans: {record['spans_recorded']} written to {record['spans']}; "
          f"failed {record['failed']} of {record['attempted']}")


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"program sources not found under {SRC.name}/repro")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    pin_environment()
    sys.path.insert(0, str(SRC))
    from repro.obs import profiling_from_env
    from repro.obs.tracer import tracing_from_env

    if tracing_from_env() or profiling_from_env():
        fail("RMSSD_TRACE/RMSSD_PROFILE must be off for host-time measurement")

    key = "per_layer" if args.trace else "end_to_end"
    selected = names if args.workload == "all" else [args.workload]
    for name in selected:
        record = measure(name, args.seed, args.seconds, args.trace)
        report(record, spec, args.trace)
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str))
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": select(spec[key], record["metrics"], name),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
