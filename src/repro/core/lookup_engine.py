"""Embedding Lookup Engine (Section IV-B).

The engine chains the EV Translator, the vector-grained EV-FMC reads,
and the EV Sum pooling unit:

* lookups are translated to device addresses using only on-device
  extent metadata;
* vector reads are striped over all channels and dies (the layout's
  channel-major page numbering does the striping);
* returned vectors are accumulated per table in *lookup order* by the
  fadd array, so results match the host SLS operator bit for bit.

Two views are provided: an analytic bandwidth model (used by the kernel
search and quick sizing) and a timed execution (used by the end-to-end
device, capturing real queueing over the trace's channel distribution).

A timed lookup is one pipeline.  A shared prologue validates the batch,
flattens it in issue order and probes the optional controller-DRAM
vector cache, which only removes hit lookups from the miss set (with no
cache every lookup misses and nothing is probed).  The missed reads then
run on one of two execution paths — per-read discrete-event processes
(the reference oracle) or the vectorized replay of
:mod:`repro.ssd.fastpath`, bitwise-equal to it — and a shared epilogue
accounts the batch, emits its spans and profiler records and builds the
:class:`LookupResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.embedding.layout import EmbeddingLayout
from repro.embedding.pooling import segment_pool
from repro.embedding.translator import EVTranslator
from repro.obs import names
from repro.ssd import fastpath, vcache as vcache_model
from repro.ssd.controller import SSDController
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel

#: EV Sum cost per returned vector, in cycles: the fadd array adds all
#: dimensions in parallel, pipelined one vector per cycle plus a small
#: drain.  Negligible next to flash reads ("the time consumption of
#: embedding vector extraction and sum can be ignored for FPGA
#: handling").
EV_SUM_CYCLES_PER_VECTOR = 1


def effective_vector_bandwidth(
    geometry: SSDGeometry,
    timing: SSDTimingModel,
    ev_size: int,
) -> float:
    """``bEV``: sustained vector reads per engine cycle, whole device.

    Per channel, throughput is bounded by (a) its dies, which can
    overlap flushes (one vector per ``CEV`` cycles per die), and (b)
    the shared channel bus (one vector's transfer slice at a time).
    """
    cev = timing.vector_read_cycles(ev_size)
    per_die = 1.0 / cev
    die_bound = geometry.dies_per_channel * per_die
    bus_bound = 1.0 / timing.vector_transfer_cycles(ev_size)
    return geometry.channels * min(die_bound, bus_bound)


def effective_page_bandwidth(
    geometry: SSDGeometry,
    timing: SSDTimingModel,
) -> float:
    """Sustained full-page reads per engine cycle, whole device.

    The page-granularity analogue of :func:`effective_vector_bandwidth`
    — what the EMB-PageSum / EMB-MMIO / RecSSD paths achieve.  Pages
    pay the full transfer slice on the shared bus, which is why the
    vector-grained path beats them on bulk throughput.
    """
    die_bound = geometry.dies_per_channel / timing.page_read_cycles
    bus_bound = 1.0 / timing.transfer_cycles
    return geometry.channels * min(die_bound, bus_bound)


def flash_read_cycles(
    vectors: int,
    geometry: SSDGeometry,
    timing: SSDTimingModel,
    ev_size: int,
) -> int:
    """Analytic cycles to stream ``vectors`` embedding reads (Eq. 1a's
    ``M*N / bEV`` term)."""
    if vectors <= 0:
        return 0
    return ceil(vectors / effective_vector_bandwidth(geometry, timing, ev_size))


@dataclass
class LookupResult:
    """Output of one batched lookup: pooled vectors plus timing.

    ``path`` records which execution path produced the result:
    ``"des"`` (per-read simulation processes) or ``"fast"`` (the
    vectorized replay, bitwise-equal by construction and by test).

    ``vectors_read`` counts vectors *read from flash*; with a
    controller-DRAM vector cache configured, ``vcache_hits`` of the
    batch's lookups were absorbed before translation and fetched from
    DRAM in ``vcache_ns`` instead (both zero without a cache).
    """

    pooled: np.ndarray  # batch x (tables * dim)
    elapsed_ns: float
    vectors_read: int
    path: str = "des"
    vcache_hits: int = 0
    vcache_ns: float = 0.0

    @property
    def total_vectors(self) -> int:
        """All embedding vectors the batch consumed (flash + cache)."""
        return self.vectors_read + self.vcache_hits

    def elapsed_cycles(self, cycle_ns: float) -> float:
        return self.elapsed_ns / cycle_ns


class EmbeddingLookupEngine:
    """Translator + EV-FMC + EV Sum over a laid-out table set.

    ``pooling`` selects the EV Sum reduction: ``"sum"`` (the default
    SparseLengthSum semantics) or ``"mean"`` (average pooling — the
    fadd array followed by one multiply by ``1/N``).
    """

    def __init__(
        self,
        controller: SSDController,
        layout: EmbeddingLayout,
        pooling: str = "sum",
    ) -> None:
        if pooling not in ("sum", "mean"):
            raise ValueError(f"unknown pooling mode {pooling!r}")
        self.controller = controller
        self.layout = layout
        self.pooling = pooling
        self.tables = layout.tables
        self.translator = EVTranslator(page_size=controller.geometry.page_size)
        for table_id, ranges in layout.metadata().items():
            self.translator.register_table(
                table_id,
                ranges,
                self.tables.ev_size,
                self.tables[table_id].rows,
            )
        # High-water marks of the cache's cumulative eviction/fill
        # counters, so each batch accounts only its own activity even
        # though VectorCache counters never reset between batches.
        self._vcache_activity_seen = (0, 0)

    @property
    def dim(self) -> int:
        return self.tables.dim

    # ------------------------------------------------------------------
    # Controller-DRAM vector cache (optional; see repro.ssd.vcache)
    # ------------------------------------------------------------------
    def _load_vector(self, table_id: int, index: int) -> np.ndarray:
        """Functional fetch of one embedding vector (no simulated time).

        Used to fill the vector cache on admitted misses: the bytes are
        identical to what the timed flash read of the same row returns,
        so cache hits are bit-exact substitutes for flash reads.
        """
        read = self.translator.translate(table_id, index)
        data = self.controller.peek_logical(read.device_offset, read.size)
        return np.frombuffer(data, dtype=np.float32)

    def _probe_vcache(
        self, flat_tables: np.ndarray, flat_indices: np.ndarray
    ) -> Tuple[np.ndarray, Dict[int, np.ndarray], float]:
        """Probe the cache once per lookup, in issue order.

        Returns ``(missed, hits, vcache_ns)``: the missed flat
        positions in issue order, the hit vectors keyed by flat
        position, and the DRAM fetch time of the hits.  Cache state
        advances deterministically with the probe sequence, so both
        execution paths observe identical hit sets.  Without a cache
        every position misses and nothing is probed or accounted.
        """
        cache = self.controller.vcache
        if cache is None:
            return np.arange(len(flat_indices)), {}, 0.0
        hits: Dict[int, np.ndarray] = {}
        missed: List[int] = []
        lookups = zip(flat_tables.tolist(), flat_indices.tolist())
        for position, (table_id, row) in enumerate(lookups):
            value = cache.access(
                (table_id, row),
                lambda t=table_id, r=row: self._load_vector(t, r),
            )
            if value is None:
                missed.append(position)
            else:
                hits[position] = value
        vcache_ns = self._account_vcache(len(hits), len(flat_indices))
        return np.array(missed, dtype=np.int64), hits, vcache_ns

    def _account_vcache(self, hits: int, total: int) -> float:
        """Record one batch's probe outcome; returns the DRAM fetch ns."""
        cache = self.controller.vcache
        seen_evictions, seen_fills = self._vcache_activity_seen
        # ``reset_stats()`` (benchmarks call it mid-run) drops the
        # cumulative counters below the high-water mark; restart the
        # window instead of reporting a negative delta.
        if cache.evictions < seen_evictions or cache.fills < seen_fills:
            seen_evictions = seen_fills = 0
        self._vcache_activity_seen = (cache.evictions, cache.fills)
        self.controller.stats.record_vcache(
            hits,
            total - hits,
            cache.evictions - seen_evictions,
            cache.fills - seen_fills,
        )
        sanitizer = self.controller.flash.sanitizer
        if sanitizer is not None:
            sanitizer.vcache_batch(hits, total)
        return self.controller.timing.cycles_to_ns(
            vcache_model.fetch_cycles(hits, self.tables.ev_size)
        )

    def warm_vcache(self, keys: Sequence[Tuple[int, int]]) -> int:
        """Pre-fill the vector cache with ``(table_id, index)`` keys.

        The static-hot workflow (RecFlash): profile the trace, pin the
        hot set, serve.  Returns the resident vector count.
        """
        cache = self.controller.vcache
        if cache is None:
            raise ValueError("no vector cache configured on this device")
        return cache.warm(
            ((int(t), int(i)), self._load_vector(int(t), int(i)))
            for t, i in keys
        )

    # ------------------------------------------------------------------
    # Batched lookup: one prologue and epilogue around either execution
    # ------------------------------------------------------------------
    def lookup_batch(
        self,
        sparse_batch: Sequence[Sequence[Sequence[int]]],
        fast: Optional[bool] = None,
    ) -> LookupResult:
        """Run a batched lookup to completion on the simulation clock.

        Pools per (sample, table) in lookup order and concatenates per
        sample — the EV Sum semantics.

        ``fast=None`` defers to the ``RMSSD_FASTPATH`` flag.  The fast
        path replays the batch without per-read processes (same elapsed
        time, bitwise-identical pooled outputs) but requires exclusive
        use of the flash channels: any in-flight work — concurrent
        block I/O from :meth:`repro.core.device.RMSSD.
        start_background_block_reads`, for example — falls back to the
        DES, as does request-history recording on the EV-FMC.
        """
        if fast is None:
            fast = fastpath.enabled()
        controller = self.controller
        sim = controller.sim
        lengths, flat_tables, flat_indices = self._flatten(sparse_batch)
        start = sim.now
        mark = controller.batch_mark() if controller.tracer.enabled else None
        missed, hits, vcache_ns = self._probe_vcache(flat_tables, flat_indices)
        if fast and sim.peek() is None and not controller.fmc.keep_history:
            path = "fast"
            pooled = self._lookup_batch_fast(
                lengths, flat_tables, flat_indices, missed, hits
            )
        else:
            path = "des"
            pooled = self._lookup_batch_des(
                sparse_batch, flat_tables, flat_indices, missed, hits
            )
        total = len(flat_indices)
        elapsed = sim.now - start
        controller.stats.record_useful(total * self.tables.ev_size)
        ev_sum_ns = controller.timing.cycles_to_ns(
            EV_SUM_CYCLES_PER_VECTOR * total
        )
        # The flash reads and the DRAM fetch of the hits overlap; EV Sum
        # starts when the slower stream drains.
        stage_ns = max(elapsed, vcache_ns)
        result = LookupResult(
            pooled=pooled,
            elapsed_ns=stage_ns + ev_sum_ns,
            vectors_read=len(missed),
            path=path,
            vcache_hits=len(hits),
            vcache_ns=vcache_ns,
        )
        if controller.tracer.enabled:
            self._emit_lookup_spans(
                start, elapsed, stage_ns, ev_sum_ns, result, mark
            )
        self._profile_lookup(start, stage_ns, ev_sum_ns, vcache_ns)
        return result

    def _flatten(
        self, sparse_batch: Sequence[Sequence[Sequence[int]]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validate a batch and flatten it in issue order.

        Returns ``(lengths, flat_tables, flat_indices)``: the lookup
        count of every (sample, table) cell, and the table and row of
        every lookup.  Issue order is sample-major — the order the DES
        creates its read processes in, which fixes the FTL service
        order.  Validation finishes before any probe or read is issued,
        so a rejected batch leaves no simulation state behind.
        """
        if len(sparse_batch) == 0:
            raise ValueError("empty batch")
        num_tables = len(self.tables)
        cells: List[Sequence[int]] = []
        for sample_id, sample in enumerate(sparse_batch):
            if len(sample) != num_tables:
                raise ValueError(
                    f"sample {sample_id}: {len(sample)} index lists for "
                    f"{num_tables} tables"
                )
            cells.extend(sample)
        lengths = np.fromiter(
            (len(cell) for cell in cells), dtype=np.int64, count=len(cells)
        )
        table_ids = np.tile(np.arange(num_tables), len(sparse_batch))
        flat_tables = np.repeat(table_ids, lengths)
        flat_indices = np.concatenate(
            [np.asarray(cell, dtype=np.int64) for cell in cells]
        )
        return lengths, flat_tables, flat_indices

    def _emit_lookup_spans(
        self,
        start: float,
        elapsed: float,
        stage_ns: float,
        ev_sum_ns: float,
        result: LookupResult,
        mark,
    ) -> None:
        """Span tree of one batched lookup, identical for both paths.

        Every quantity here — ``start``, ``elapsed``, ``ev_sum_ns`` and
        the server states behind ``emit_batch_spans`` — is bitwise
        equal between the DES and the fast path (the PR 2 equivalence
        contract), so the emitted trees match exactly; pinned by
        ``tests/test_obs_span_equivalence.py``.

        With the vector cache enabled, a ``vcache`` span covers the
        DRAM fetch of the hit vectors (overlapping ``flash_read``) and
        ``ev_sum`` starts when the slower of the two streams drains;
        with it disabled the tree is byte-identical to the cache-free
        build.
        """
        tracer = self.controller.tracer
        vcache_enabled = self.controller.vcache is not None
        end = start + stage_ns + ev_sum_ns
        track = tracer.lane_track("emb", start, end)
        vectors_read = result.vectors_read
        batch_args = {
            "vectors": vectors_read,
            "samples": len(result.pooled),
            "path": result.path,
        }
        if vcache_enabled:
            batch_args["vcache_hits"] = result.vcache_hits
        tracer.add_span(
            names.SPAN_LOOKUP_BATCH,
            start,
            end,
            cat="emb",
            track=track,
            args=batch_args,
        )
        tracer.add_span(
            names.SPAN_TRANSLATE,
            start,
            start,
            cat="emb",
            track=track,
            args={"vectors": vectors_read},
        )
        tracer.add_span(
            names.SPAN_FLASH_READ, start, start + elapsed, cat="emb", track=track
        )
        if vcache_enabled:
            tracer.add_span(
                names.VCACHE,
                start,
                start + result.vcache_ns,
                cat="emb",
                track=track,
                args={"hits": result.vcache_hits},
            )
        tracer.add_span(
            names.EV_SUM,
            start + stage_ns,
            end,
            cat="emb",
            track=track,
            args={"vectors": result.total_vectors},
        )
        self.controller.emit_batch_spans(start, mark)

    def _profile_lookup(
        self, start: float, stage_ns: float, ev_sum_ns: float, vcache_ns: float
    ) -> None:
        """Busy intervals of the engines the DES does not model as
        resources: the EV-Sum adder tree and the controller-DRAM
        vcache stream are analytic add-ons, so their occupancy is
        reported here — from the same bitwise-equal quantities the
        span tree uses, identically on both execution paths.
        """
        profiler = self.controller.sim.profiler
        if profiler is None or not profiler.enabled:
            return
        profiler.record_busy(
            names.EV_SUM,
            start + stage_ns,
            start + stage_ns + ev_sum_ns,
            names.KIND_EV_SUM,
        )
        if self.controller.vcache is not None:
            profiler.record_busy(
                names.VCACHE, start, start + vcache_ns, names.VCACHE
            )

    # ------------------------------------------------------------------
    # Discrete-event execution (the reference oracle)
    # ------------------------------------------------------------------
    def _read_proc(
        self,
        missed: np.ndarray,
        flat_tables: np.ndarray,
        flat_indices: np.ndarray,
    ) -> Generator:
        """Process: issue the missed vector reads concurrently.

        Reads are created in issue order, so the FTL MUX serves them in
        the same order with or without a cache.  Returns the raw
        vectors keyed by flat position so EV Sum can reduce in lookup
        order regardless of completion order (the Path Buffer's job).
        """
        sim = self.controller.sim
        positions = missed.tolist()
        tables = flat_tables.tolist()
        indices = flat_indices.tolist()
        events = []
        for position in positions:
            read = self.translator.translate(
                tables[position], indices[position]
            )
            events.append(
                sim.process(
                    self.controller.read_vector_proc(
                        read.device_offset, read.size
                    )
                )
            )
        results = yield sim.all_of(events)
        return {
            position: np.frombuffer(request.data, dtype=np.float32)
            for position, request in zip(positions, results)
        }

    def _lookup_batch_des(
        self,
        sparse_batch: Sequence[Sequence[Sequence[int]]],
        flat_tables: np.ndarray,
        flat_indices: np.ndarray,
        missed: np.ndarray,
        hits: Dict[int, np.ndarray],
    ) -> np.ndarray:
        """Reference path: one simulation process per missed vector read.

        Hit vectors are merged back by flat position before EV Sum, so
        pooling still accumulates in lookup order.
        """
        sim = self.controller.sim
        proc = sim.process(self._read_proc(missed, flat_tables, flat_indices))
        sim.run()
        raw = {**hits, **proc.value}
        vectors = iter([raw[position] for position in range(len(raw))])
        # EV Sum: accumulate in lookup order for bitwise-stable fp32.
        pooled_rows: List[np.ndarray] = []
        for sample in sparse_batch:
            per_table: List[np.ndarray] = []
            for indices in sample:
                acc = np.zeros(self.dim, dtype=np.float32)
                for _ in indices:
                    acc += next(vectors)
                if self.pooling == "mean" and len(indices):
                    acc = (acc / np.float32(len(indices))).astype(np.float32)
                per_table.append(acc)
            pooled_rows.append(np.concatenate(per_table).astype(np.float32))
        return np.stack(pooled_rows)

    # ------------------------------------------------------------------
    # Vectorized execution
    # ------------------------------------------------------------------
    def _lookup_batch_fast(
        self,
        lengths: np.ndarray,
        flat_tables: np.ndarray,
        flat_indices: np.ndarray,
        missed: np.ndarray,
        hits: Dict[int, np.ndarray],
    ) -> np.ndarray:
        """Vectorized path: translate, replay, gather, segment-reduce.

        Produces the same elapsed time and bitwise-identical pooled
        outputs as :meth:`_lookup_batch_des`
        (``tests/test_fastpath_equivalence.py``,
        ``tests/test_vcache_equivalence.py``), in O(vectors) numpy work
        instead of O(vectors) Python processes.  Only the missed rows
        are translated, replayed and gathered; cache hits are scattered
        into their flat positions before the reduction.
        """
        controller = self.controller
        ev_size = self.tables.ev_size
        count = len(missed)
        miss_tables = flat_tables[missed]
        miss_indices = flat_indices[missed]
        # Fig. 6 translation, batched per table.
        device_offsets = np.empty(count, dtype=np.int64)
        for table_id in range(len(self.tables)):
            members = np.flatnonzero(miss_tables == table_id)
            if members.size:
                device_offsets[members] = self.translator.translate_array(
                    table_id, miss_indices[members]
                )
        physical_pages, cols = controller.translate_vector_offsets(
            device_offsets, ev_size
        )
        channel_ids, die_ids = controller.geometry.split_page_indices(
            physical_pages
        )
        # Timing: serialize the shared FTL stage, then replay the
        # two-phase flash protocol per channel.
        enter_ns = controller.serve_ftl_batch(count)
        transfer_ns = np.full(
            count, controller.timing.vector_transfer_ns(ev_size)
        )
        _, end = fastpath.replay_reads(
            controller.flash,
            enter_ns,
            channel_ids,
            die_ids,
            transfer_ns,
            staged=True,
        )
        controller.stats.record_vector_reads(count, count * ev_size)
        controller.sim.run(until=end)
        # EV Sum: gather rows from the flash pages, then reduce each
        # (sample, table) segment strictly left to right.
        rows = controller.flash.peek_vectors(physical_pages, cols, ev_size)
        if hits:
            flash_rows = rows
            rows = np.empty((len(flat_indices), self.dim), dtype=np.float32)
            rows[missed] = flash_rows
            hit_positions = np.fromiter(hits, dtype=np.int64, count=len(hits))
            rows[hit_positions] = np.stack(list(hits.values()))
        return segment_pool(rows, lengths, self.pooling).reshape(
            -1, len(self.tables) * self.dim
        )

    # ------------------------------------------------------------------
    # Analytic view
    # ------------------------------------------------------------------
    def analytic_cycles(self, vectors: int) -> int:
        return flash_read_cycles(
            vectors,
            self.controller.geometry,
            self.controller.timing,
            self.tables.ev_size,
        )
