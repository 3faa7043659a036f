"""Wall-time spans around calls into the simulator's layers.

The benchmark does not instrument the program: :class:`SpanRecorder`
wraps the public functions listed in :data:`LAYER_FUNCTIONS` from the
outside (``setattr`` on their class or module) for the duration of a
``with recorder.patched():`` block and restores them afterwards.

Every call becomes one span: name, start, end, parent span and the
operation id it ran under.  Spans stay in memory as flat arrays and are
written out once, at the end of the run (:meth:`SpanRecorder.dump`).
A span's *self time* is its duration minus the time covered by its
direct children; calls are synchronous, so children nest strictly.
Per-operation figures are rescaled to the reference host speed of
``speed.py`` with the factor of the operation they ran under.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Root span of one benchmark operation; its self time is the harness
#: and whatever program code runs outside the traced layer functions.
OP_SPAN = "bench.op"


def _lookups(args, kwargs) -> int:
    batch = args[1] if len(args) > 1 else kwargs["sparse_batch"]
    return sum(len(indices) for sample in batch for indices in sample)


def _reads(args, kwargs) -> int:
    enter = args[1] if len(args) > 1 else kwargs["enter_ns"]
    return len(enter)


def _batches(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["batches"])


def _layer_functions():
    """``(owner, attribute, span name, work counter)`` for every traced
    layer function.  Imported lazily: the program is importable only
    after ``run.py`` has put its sources on the path."""
    from repro.core import lookup_engine, pipeline_fast
    from repro.core.device import RMSSD
    from repro.core.lookup_engine import EmbeddingLookupEngine
    from repro.core.mlp_engine import MLPAccelerationEngine
    from repro.core.pipeline_sim import PipelineSimulator
    from repro.embedding.translator import EVTranslator
    from repro.host import cluster_serving
    from repro.host.autoscale import Autoscaler
    from repro.obs.slo import SLOEngine
    from repro.sim.engine import Simulator
    from repro.ssd import fastpath
    from repro.ssd.controller import SSDController
    from repro.ssd.flash import FlashArray
    from repro.ssd.vcache import VectorCache

    table = [
        (RMSSD, "infer_batch", "core.device.infer_batch", None),
        (EmbeddingLookupEngine, "lookup_batch",
         "core.lookup_engine.lookup_batch", _lookups),
        (MLPAccelerationEngine, "forward_batch",
         "core.mlp_engine.forward_batch", None),
        # Imported by name into the lookup engine: patch where it is
        # looked up.
        (lookup_engine, "segment_pool", "embedding.pooling.segment_pool", None),
        (EVTranslator, "translate", "embedding.translator.translate", None),
        (EVTranslator, "translate_array",
         "embedding.translator.translate_array", None),
        (VectorCache, "access", "ssd.vcache.access", None),
        (SSDController, "peek_logical", "ssd.controller.peek_logical", None),
        (SSDController, "serve_ftl_batch",
         "ssd.controller.serve_ftl_batch", None),
        (fastpath, "replay_reads", "ssd.fastpath.replay_reads", _reads),
        (FlashArray, "peek_vectors", "ssd.flash.peek_vectors", None),
        (Simulator, "run", "sim.run", None),
        (cluster_serving.ClusterServingSimulator, "serve_trace",
         "host.cluster_serving.serve_trace", None),
        (cluster_serving.ClusterServingSimulator, "timeseries_document",
         "host.cluster_serving.timeseries_document", None),
        (Autoscaler, "observe", "host.autoscale.observe", None),
        (Autoscaler, "causal_alerts", "host.autoscale.causal_alerts", None),
        (Autoscaler, "evaluate", "host.autoscale.evaluate", None),
        (SLOEngine, "evaluate", "obs.slo.evaluate", None),
        (PipelineSimulator, "run", "core.pipeline_sim.run", _batches),
        # Called as a module global inside pipeline_fast.
        (pipeline_fast, "serve_chain", "core.pipeline_fast.serve_chain", None),
    ]
    for balancer in (
        cluster_serving.RoundRobinBalancer,
        cluster_serving.JoinShortestQueueBalancer,
        cluster_serving.LatencyWeightedBalancer,
    ):
        table.append((balancer, "pick", "host.cluster_serving.pick", None))
    return table


class SpanRecorder:
    """In-memory span store plus the patching that feeds it.

    ``only`` restricts the patched functions to the named spans (the
    calibration slices trace one layer at a time).
    """

    def __init__(self, only: Optional[tuple] = None) -> None:
        self.only = only
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.work = array("q")
        self._stack: List[int] = []
        self.op_id = -1

    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _open(self, name_id: int, work: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.work.append(work)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        now = time.perf_counter()
        self.end[index] = now
        self._stack.pop()
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += now - self.start[index]

    def wrap(self, name: str, fn: Callable, work=None) -> Callable:
        name_id = self._intern(name)
        recorder = self

        def traced(*args, **kwargs):
            index = recorder._open(
                name_id, work(args, kwargs) if work is not None else 0
            )
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(index)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Wrap every layer function; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, work in _layer_functions():
                if self.only is not None and name not in self.only:
                    continue
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self.op_id = op_id
        index = self._open(self._intern(OP_SPAN), 0)
        try:
            yield
        finally:
            self._close(index)
            self.op_id = -1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def per_op(self, scale: Dict[int, float]) -> Dict[str, dict]:
        """Per span name: per-op self-time sums (s), per-op call counts,
        total inclusive time (s) and total work, over traced ops.  Each
        span's time is multiplied by ``scale[op id]`` (see ``speed.py``)."""
        ops = sorted({op for op in self.op if op >= 0})
        slot = {op: position for position, op in enumerate(ops)}
        out: Dict[str, dict] = {}
        for name in self.names:
            out[name] = {
                "self_s": [0.0] * len(ops),
                "calls": [0] * len(ops),
                "inclusive_s": 0.0,
                "work": 0,
            }
        for index in range(len(self.start)):
            op = self.op[index]
            if op < 0:
                continue
            entry = out[self.names[self.name_id[index]]]
            duration = (self.end[index] - self.start[index]) * scale[op]
            position = slot[op]
            entry["self_s"][position] += duration - self.child[index] * scale[op]
            entry["calls"][position] += 1
            entry["inclusive_s"] += duration
            entry["work"] += self.work[index]
        return out

    def inclusive_s(self, name: str) -> float:
        """Total inclusive time of every span called ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return 0.0
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] == name_id
        )

    def dump(self, path) -> None:
        """Write every span as gzipped JSON lines
        ``[name, start_s, end_s, parent_index, op_id]``."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index in range(len(self.start)):
                out.write(
                    json.dumps(
                        [
                            self.names[self.name_id[index]],
                            round(self.start[index] - origin, 9),
                            round(self.end[index] - origin, 9),
                            self.parent[index],
                            self.op[index],
                        ]
                    )
                )
                out.write("\n")


def layer_metrics(per_op: Dict[str, dict]) -> Dict[str, float]:
    """``<span>.self_ms`` (median per op) and ``<span>.calls`` (mean per
    op) for every traced layer, plus the throughput rates."""
    metrics: Dict[str, float] = {}
    for name, entry in per_op.items():
        samples = entry["self_s"]
        metrics[f"{name}.self_ms"] = (
            statistics.median(samples) * 1e3 if samples else 0.0
        )
        metrics[f"{name}.calls"] = (
            sum(entry["calls"]) / len(entry["calls"]) if samples else 0.0
        )

    def rate(name: str) -> float:
        entry = per_op.get(name)
        if not entry or entry["inclusive_s"] <= 0:
            return 0.0
        return entry["work"] / entry["inclusive_s"]

    metrics["ssd.fastpath.reads_per_s"] = rate("ssd.fastpath.replay_reads")
    metrics["core.lookup_engine.vectors_per_s"] = rate(
        "core.lookup_engine.lookup_batch"
    )
    metrics["core.pipeline_sim.batches_per_s"] = rate("core.pipeline_sim.run")
    return metrics


def self_shares(per_op: Dict[str, dict]) -> Dict[str, float]:
    """Each span's share of total traced op time (self times partition
    the root spans exactly, so the shares sum to 1)."""
    totals = {name: sum(entry["self_s"]) for name, entry in per_op.items()}
    whole = sum(totals.values())
    if whole <= 0:
        return {name: 0.0 for name in totals}
    return {name: value / whole for name, value in totals.items()}


def breakdown_table(workload: str, per_op: Dict[str, dict]) -> str:
    """Self-time share per layer, largest first."""
    shares = self_shares(per_op)
    ops = len(next(iter(per_op.values()))["calls"]) if per_op else 0
    lines = [
        f"self-time breakdown: {workload} ({ops} traced ops, "
        "times scaled to the reference speed)",
        f"  {'layer':<44} {'share':>7} {'self ms/op':>11} {'calls/op':>10}",
    ]
    for name in sorted(shares, key=lambda n: -shares[n]):
        entry = per_op[name]
        lines.append(
            f"  {name:<44} {shares[name]:>7.1%} "
            f"{statistics.median(entry['self_s']) * 1e3:>11.4f} "
            f"{sum(entry['calls']) / max(1, ops):>10.1f}"
        )
    return "\n".join(lines)
