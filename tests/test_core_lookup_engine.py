"""Tests for the Embedding Lookup Engine."""

import numpy as np
import pytest

from repro.core.lookup_engine import (
    EmbeddingLookupEngine,
    effective_vector_bandwidth,
    flash_read_cycles,
)
from repro.embedding.layout import EmbeddingLayout
from repro.embedding.pooling import sls_batch
from repro.embedding.table import EmbeddingTableSet
from repro.sim import Simulator
from repro.ssd.blockdev import BlockDevice
from repro.ssd.controller import SSDController
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import SSDTimingModel
from repro.ssd.vcache import VectorCache


def make_engine(num_tables=4, rows=64, dim=32, max_extent_pages=None,
                vcache=None):
    geo = SSDGeometry(
        channels=4,
        dies_per_channel=4,
        planes_per_die=2,
        blocks_per_plane=32,
        pages_per_block=32,
    )
    device = BlockDevice(
        SSDController(Simulator(), geo, vcache=vcache), max_extent_pages
    )
    tables = EmbeddingTableSet.uniform(num_tables, rows, dim, seed=5)
    layout = EmbeddingLayout(device, tables)
    layout.create_all()
    return EmbeddingLookupEngine(device.controller, layout), tables


class TestNumerics:
    def test_matches_host_sls_exactly(self):
        engine, tables = make_engine()
        batch = [
            [[0, 1, 2], [5], [10, 20], [63, 63]],
            [[7], [8, 9], [1, 1, 1], [0]],
        ]
        result = engine.lookup_batch(batch)
        expected = sls_batch(tables, batch)
        np.testing.assert_array_equal(result.pooled, expected)

    def test_fragmented_layout_still_exact(self):
        engine, tables = make_engine(max_extent_pages=1)
        batch = [[[i, 63 - i] for i in range(4)]]
        result = engine.lookup_batch(batch)
        np.testing.assert_array_equal(result.pooled, sls_batch(tables, batch))

    def test_repeated_index_accumulates(self):
        engine, tables = make_engine()
        result = engine.lookup_batch([[[3, 3], [0], [0], [0]]])
        expected = (tables[0].row(3) * 2).astype(np.float32)
        np.testing.assert_array_equal(result.pooled[0, :32], expected)

    @pytest.mark.parametrize("fast", [False, True], ids=["des", "fast"])
    @pytest.mark.parametrize("capacity", [None, 16], ids=["nocache", "vcache"])
    def test_wrong_table_count_rejected(self, fast, capacity):
        def build():
            vcache = None if capacity is None else VectorCache(capacity)
            return make_engine(num_tables=3, vcache=vcache)[0]

        engine = build()
        # A malformed sample after a valid one: the whole batch must be
        # rejected before any probe or read process exists.
        for malformed in ([[[0]]], [[[0], [1], [2]], [[0]]]):
            with pytest.raises(ValueError):
                engine.lookup_batch(malformed, fast=fast)
        assert engine.controller.sim.peek() is None
        # The next valid batch runs as on a fresh engine.
        valid = [[[5], [6], [7]]]
        fresh = build()
        after = engine.lookup_batch(valid, fast=fast)
        expected = fresh.lookup_batch(valid, fast=fast)
        assert after.elapsed_ns == pytest.approx(expected.elapsed_ns, rel=0, abs=0)
        assert engine.controller.stats.as_dict() == fresh.controller.stats.as_dict()

    def test_useful_bytes_accounted(self):
        engine, tables = make_engine()
        engine.lookup_batch([[[0, 1], [2], [3], [4]]])
        assert engine.controller.stats.useful_bytes == 5 * tables.ev_size


class TestTiming:
    def test_elapsed_positive_and_bounded(self):
        engine, _ = make_engine()
        result = engine.lookup_batch([[[0], [1], [2], [3]]])
        timing = engine.controller.timing
        assert result.elapsed_ns >= timing.vector_read_ns(128)
        # 4 vectors across 4 channels cannot cost more than serial.
        assert result.elapsed_ns < 4 * (
            timing.vector_read_ns(128) + timing.request_overhead_ns
        ) + 4 * timing.cycle_ns

    def test_more_lookups_take_longer(self):
        engine_small, _ = make_engine()
        t_small = engine_small.lookup_batch([[[0]] * 4]).elapsed_ns

        engine_big, _ = make_engine()
        t_big = engine_big.lookup_batch([[list(range(32))] * 4]).elapsed_ns
        assert t_big > t_small

    def test_analytic_tracks_des_within_factor_two(self):
        engine, _ = make_engine(rows=64)
        rng = np.random.default_rng(0)
        batch = [
            [list(rng.integers(0, 64, size=20)) for _ in range(4)]
            for _ in range(4)
        ]
        result = engine.lookup_batch(batch)
        analytic = engine.controller.timing.cycles_to_ns(
            engine.analytic_cycles(result.vectors_read)
        )
        assert analytic == pytest.approx(result.elapsed_ns, rel=1.0)

    def test_vectors_read_counted(self):
        engine, _ = make_engine()
        result = engine.lookup_batch([[[0, 1, 2], [3], [4], [5]]])
        assert result.vectors_read == 6
        assert engine.controller.stats.flash_vector_reads == 6


class TestBandwidthModel:
    def test_bev_positive_and_bus_capped(self):
        geo = SSDGeometry()
        timing = SSDTimingModel()
        bev = effective_vector_bandwidth(geo, timing, 128)
        die_bound = geo.channels * geo.dies_per_channel / timing.vector_read_cycles(128)
        assert 0 < bev <= die_bound

    def test_bev_decreases_with_vector_size(self):
        geo, timing = SSDGeometry(), SSDTimingModel()
        assert effective_vector_bandwidth(geo, timing, 256) < (
            effective_vector_bandwidth(geo, timing, 64)
        )

    def test_flash_read_cycles_scales_linearly(self):
        geo, timing = SSDGeometry(), SSDTimingModel()
        one = flash_read_cycles(100, geo, timing, 128)
        ten = flash_read_cycles(1000, geo, timing, 128)
        assert ten == pytest.approx(10 * one, rel=0.01)

    def test_zero_vectors_is_free(self):
        assert flash_read_cycles(0, SSDGeometry(), SSDTimingModel(), 128) == 0

    def test_rmc1_embedding_time_magnitude(self):
        # 640 x 128 B vectors over 4 ch x 2 dies: ~227 K cycles ~ 1.1 ms,
        # the embedding floor behind Fig. 12(a)'s ~1 K QPS ceiling.
        cycles = flash_read_cycles(640, SSDGeometry(), SSDTimingModel(), 128)
        assert 180_000 < cycles < 280_000
