"""Per-request critical-path attribution and tail exemplars.

The SLO engine (repro.obs.slo) says *that* a window blew its tail
objective and the autoscaler (repro.host.autoscale) reacts — but
neither can say *why*: which concrete requests landed in the tail, and
where each one spent its time.  This module closes that gap.  From the
:class:`~repro.core.pipeline_sim.BatchRecord` stage triples every
pipeline run already produces, it decomposes each request into

* ``dispatch_wait_ns`` — admission delay before the request reached a
  replica queue (0 today: the dispatch plan assigns at arrival);
* ``queue_ns`` — wait for the critical branch's stage server plus the
  wait for the top stage after the branch finished;
* ``emb_ns`` / ``bot_ns`` — service time of the *critical* branch of
  the parallel embedding∥bottom section (the other reads 0.0, its
  service was hidden);
* ``top_ns`` — top-MLP service time,

with the paper's section IV-C tie-break (equal finish times blame the
embedding stage, mirroring the profiler's bottleneck report).

**Conservation is exact by construction**: ``latency_ns`` is defined
as the component sum evaluated in one fixed order (see
:func:`component_sum`), not as the telescoped ``top_done - arrival``
difference — float addition is not associative, so summing raw
timestamp differences in any other order could miss the end-to-end
latency by an ulp.  The builder still cross-checks the sum against the
record's own latency within a relative tolerance, so a mis-stamped
record cannot hide behind the definition.

Determinism/parity: breakdowns are plain float arithmetic on the
record timestamps, which are bitwise-equal between the DES and the
closed-form replay, so the exported ``rmssd-explain/v1`` documents are
**byte-identical** across paths (asserted by ``cmp`` in
``tools/check.sh`` and by ``tests/test_explain_equivalence.py``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import percentile

#: Version tag of the explain export document.
EXPLAIN_SCHEMA = "rmssd-explain/v1"

#: Breakdown components, in the fixed summation order that *defines*
#: ``latency_ns``.  Validators (tools/check_trace.py --explain) must
#: recompute the sum in exactly this order.
COMPONENTS = ("dispatch_wait_ns", "queue_ns", "emb_ns", "bot_ns", "top_ns")

#: Relative slack for the cross-check of the component sum against the
#: record's raw ``top_done - arrival`` latency (the sum is exact by
#: definition; the raw difference telescopes in a different order).
CONSERVATION_RTOL = 1e-9

#: Default SLO quantiles attributed by :func:`build_explain_document`.
DEFAULT_QUANTILES = (50.0, 95.0, 99.0)


def component_sum(breakdown: Dict[str, float]) -> float:
    """The breakdown's latency: components added in the fixed order.

    ``((((dispatch_wait + queue) + emb) + bot) + top)`` — every
    producer and every validator uses this exact association, so
    "components sum to latency" is an equality, not a tolerance.
    """
    total = 0.0
    for key in COMPONENTS:
        total = total + breakdown[key]
    return total


def request_breakdown(record, replica: int = 0) -> Dict[str, float]:
    """Critical-path decomposition of one :class:`BatchRecord`.

    The embedding and bottom-MLP stages run in parallel; only the
    branch that finished last (ties -> embedding, the profiler's
    tie-break) is on the critical path, so its wait and service are
    charged and the other branch's service reads 0.0.
    """
    arrival = record.arrival_ns
    if record.emb_done_ns >= record.bot_done_ns:
        stage = "emb"
        branch_start = record.emb_start_ns
        branch_done = record.emb_done_ns
        emb_ns = record.emb_done_ns - record.emb_start_ns
        bot_ns = 0.0
    else:
        stage = "bot"
        branch_start = record.bot_start_ns
        branch_done = record.bot_done_ns
        emb_ns = 0.0
        bot_ns = record.bot_done_ns - record.bot_start_ns
    breakdown = {
        "arrival_ns": arrival,
        "dispatch_wait_ns": 0.0,
        "queue_ns": (branch_start - arrival) + (record.top_start_ns - branch_done),
        "emb_ns": emb_ns,
        "bot_ns": bot_ns,
        "top_ns": record.top_done_ns - record.top_start_ns,
        "critical_stage": stage,
        "replica": int(replica),
        "batch": int(record.index),
    }
    latency = component_sum(breakdown)
    raw = record.top_done_ns - record.arrival_ns
    if abs(latency - raw) > CONSERVATION_RTOL * max(abs(raw), 1.0):
        raise ValueError(
            f"batch {record.index}: components sum to {latency} ns but the "
            f"record's end-to-end latency is {raw} ns"
        )
    breakdown["latency_ns"] = latency
    return breakdown


class CritPathCollector:
    """Accumulates per-request breakdowns from pipeline runs.

    :meth:`~repro.core.pipeline_sim.PipelineSimulator.run` feeds it
    once per run, from the records of whichever path ran; the cluster
    simulator sets the replica context before each replica's replay so
    breakdowns carry the serving replica id.
    """

    def __init__(self) -> None:
        self.requests: List[Dict[str, float]] = []
        self.stream = ""
        self._replica = 0

    def __len__(self) -> int:
        return len(self.requests)

    def set_replica(self, replica: int) -> None:
        """Replica id stamped on subsequently recorded requests."""
        self._replica = int(replica)

    def reset(self) -> None:
        """Drop accumulated requests (the replica context survives)."""
        self.requests = []

    def record_requests(self, name: str, records: Sequence) -> None:
        """Record one run's batch records under catalogue name ``name``."""
        self.stream = name
        replica = self._replica
        for record in records:
            self.requests.append(request_breakdown(record, replica))


def canonical_order(requests: Sequence[dict]) -> List[dict]:
    """Requests sorted by (arrival, replica, batch) — the document
    order, identical on both paths ((replica, batch) is unique)."""
    return sorted(
        requests,
        key=lambda r: (r["arrival_ns"], r["replica"], r["batch"]),
    )


def tail_exemplars(
    requests: Sequence[dict], threshold_ns: float, top_k: int
) -> List[dict]:
    """The ``top_k`` slowest requests at or above ``threshold_ns``.

    Deterministic tie-breaking: equal latencies order by (arrival,
    replica, batch), so all-identical-latency runs still yield a
    stable exemplar list.
    """
    tail = [r for r in requests if r["latency_ns"] >= threshold_ns]
    tail.sort(
        key=lambda r: (-r["latency_ns"], r["arrival_ns"], r["replica"], r["batch"])
    )
    return tail[: max(0, int(top_k))]


def _tail_summary(tail: Sequence[dict]) -> dict:
    """Blame shares and component means over one quantile's tail."""
    sums = {key: 0.0 for key in COMPONENTS}
    latency_sum = 0.0
    queue_by_replica: Dict[str, float] = {}
    for request in tail:
        for key in COMPONENTS:
            sums[key] += request[key]
        latency_sum += request["latency_ns"]
        rid = str(request["replica"])
        queue_by_replica[rid] = queue_by_replica.get(rid, 0.0) + request["queue_ns"]
    count = len(tail)
    queue_sum = sums["queue_ns"]
    return {
        "count": count,
        "mean_ns": {
            **{key: sums[key] / count for key in COMPONENTS},
            "latency_ns": latency_sum / count,
        },
        "blame": {
            key: (sums[key] / latency_sum if latency_sum > 0 else 0.0)
            for key in COMPONENTS
        },
        "queue_share_by_replica": {
            rid: (share / queue_sum if queue_sum > 0 else 0.0)
            for rid, share in sorted(queue_by_replica.items())
        },
    }


def build_explain_document(
    requests: Sequence[dict],
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    top_k: int = 3,
    meta: Optional[dict] = None,
    include_requests: bool = True,
) -> dict:
    """Assemble the ``rmssd-explain/v1`` document.

    Per SLO quantile: the latency value, the tail (requests at or
    above it) with blame shares per component and per-replica queue
    shares, and the ``top_k`` concrete exemplar requests.  Empty
    request lists export an empty document (count 0, no quantiles)
    rather than raising — an idle window is an answer, not an error.
    """
    ordered = canonical_order(requests)
    latencies = sorted(r["latency_ns"] for r in ordered)
    entries = []
    if ordered:
        for q in quantiles:
            value = percentile(latencies, q, presorted=True)
            tail = tail_exemplars(ordered, value, top_k=len(ordered))
            entries.append(
                {
                    "q": float(q),
                    "latency_ns": value,
                    "tail": _tail_summary(tail),
                    "exemplars": tail[: max(0, int(top_k))],
                }
            )
    document: dict = {
        "schema": EXPLAIN_SCHEMA,
        "meta": dict(meta) if meta else {},
        "components": list(COMPONENTS),
        "quantiles": entries,
        "totals": _totals(ordered),
    }
    if include_requests:
        document["requests"] = {"count": len(ordered), "records": ordered}
    else:
        document["requests"] = {"count": len(ordered)}
    return document


def _totals(ordered: Sequence[dict]) -> dict:
    if not ordered:
        return {"count": 0, "mean_latency_ns": 0.0, "blame": {}}
    summary = _tail_summary(ordered)
    return {
        "count": summary["count"],
        "mean_latency_ns": summary["mean_ns"]["latency_ns"],
        "blame": summary["blame"],
    }


def export_explain_document(document: dict, path: str) -> str:
    """Write an explain document as sorted, indented JSON.

    Same serialization as the timeseries export: sorted keys and a
    trailing newline, so byte-identity across the DES and fast paths
    reduces to value equality.
    """
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
