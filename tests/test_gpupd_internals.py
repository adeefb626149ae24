"""GPUpd internals: projection analysis, batching, overlap computation."""

import copy

import numpy as np
import pytest

from repro.geometry import DrawCommand
from repro.harness import make_setup
from repro.raster.tiles import TileGrid
from repro.render import RenderService, render_service
from repro.render import service as service_module
from repro.sfr import GPUpd
from repro.sfr.gpupd import projection_analysis, triangle_owner_matrix
from repro.traces import load_benchmark


def ndc_triangle(x0, y0, x1, y1, x2, y2, depth=0.5):
    positions = np.array([[[x0, y0, depth], [x1, y1, depth],
                           [x2, y2, depth]]], dtype=np.float32)
    colors = np.ones((1, 3, 4), dtype=np.float32)
    return DrawCommand(draw_id=0, positions=positions, colors=colors)


class TestOwnerMatrix:
    def test_small_triangle_single_owner(self):
        grid = TileGrid(64, 64, tile_size=16)
        draw = ndc_triangle(-0.9, 0.9, -0.85, 0.9, -0.9, 0.85)
        owners = triangle_owner_matrix(draw, grid, 4)
        assert owners.shape == (1, 4)
        assert owners.sum() == 1

    def test_fullscreen_triangle_owned_by_all(self):
        grid = TileGrid(64, 64, tile_size=16)
        draw = ndc_triangle(-3, -3, 3, -3, 0, 3)
        owners = triangle_owner_matrix(draw, grid, 4)
        assert owners.sum() == 4

    def test_offscreen_triangle_owned_by_none(self):
        grid = TileGrid(64, 64, tile_size=16)
        draw = ndc_triangle(2.0, 2.0, 2.5, 2.0, 2.0, 2.5)
        owners = triangle_owner_matrix(draw, grid, 4)
        assert owners.sum() == 0

    def test_straddling_triangle_owned_by_both(self):
        grid = TileGrid(64, 64, tile_size=32)  # 2x2 tiles
        draw = ndc_triangle(-0.2, 0.6, 0.2, 0.6, 0.0, 0.9)
        owners = triangle_owner_matrix(draw, grid, 2)
        assert owners[0].sum() == 2


class TestProjectionAnalysis:
    def test_owned_counts_cover_all_primitives(self):
        setup = make_setup("tiny", num_gpus=8)
        trace = load_benchmark("cod2", "tiny")
        analysis = projection_analysis(trace, setup.config)
        assert len(analysis) == trace.frame.num_draws
        for draw, proj in zip(trace.frame.draws, analysis):
            # overlap duplicates primitives, never loses onscreen ones
            assert proj.owned_counts.sum() >= 0
            assert proj.owned_counts.sum() <= draw.num_triangles * 8

    def test_distribution_diagonal_zero(self):
        setup = make_setup("tiny", num_gpus=4)
        trace = load_benchmark("cod2", "tiny")
        for proj in projection_analysis(trace, setup.config):
            assert (np.diag(proj.dist_counts) == 0).all()

    def test_distribution_bounded_by_ownership(self):
        setup = make_setup("tiny", num_gpus=4)
        trace = load_benchmark("cod2", "tiny")
        for proj in projection_analysis(trace, setup.config):
            assert proj.dist_counts.sum() <= proj.owned_counts.sum()

    def test_cached_per_trace(self):
        setup = make_setup("tiny", num_gpus=8)
        trace = load_benchmark("cod2", "tiny")
        assert projection_analysis(trace, setup.config) \
            is projection_analysis(trace, setup.config)

    def test_reset_forces_recompute(self, monkeypatch):
        monkeypatch.setattr(service_module, "_SERVICE", RenderService())
        setup = make_setup("tiny", num_gpus=4)
        trace = load_benchmark("cod2", "tiny")
        first = projection_analysis(trace, setup.config)
        render_service().reset()
        misses = render_service().counters().misses
        second = projection_analysis(trace, setup.config)
        assert second is not first
        assert render_service().counters().misses == misses + 1
        for a, b in zip(first, second):
            assert np.array_equal(a.owned_counts, b.owned_counts)
            assert np.array_equal(a.dist_counts, b.dist_counts)

    def test_keyed_by_content_not_identity(self, monkeypatch):
        monkeypatch.setattr(service_module, "_SERVICE", RenderService())
        config = make_setup("tiny", num_gpus=4).config
        trace = load_benchmark("cod2", "tiny")
        clone = copy.deepcopy(trace)
        assert projection_analysis(clone, config) \
            is projection_analysis(trace, config)


class TestBatching:
    def test_batches_partition_segment(self):
        setup = make_setup("tiny", num_gpus=8)
        trace = load_benchmark("cod2", "tiny")
        scheme = GPUpd(setup.config, setup.costs, batch_primitives=16)
        batches = scheme._make_batches(trace.frame, 0, 40)
        assert batches[0][0] == 0 and batches[-1][1] == 40
        for (a, b), (c, d) in zip(batches, batches[1:]):
            assert b == c

    def test_batch_size_respected(self):
        setup = make_setup("tiny", num_gpus=8)
        trace = load_benchmark("cod2", "tiny")
        scheme = GPUpd(setup.config, setup.costs, batch_primitives=50)
        batches = scheme._make_batches(trace.frame, 0, 60)
        for start, end in batches[:-1]:
            triangles = sum(trace.frame.draws[i].num_triangles
                            for i in range(start, end))
            assert triangles >= 50 or end - start == 1

    def test_smaller_batches_slow_realistic_gpupd(self):
        """More batches => more sequential distribution turns => slower."""
        setup = make_setup("tiny", num_gpus=8)
        trace = load_benchmark("cod2", "tiny")
        coarse = GPUpd(setup.config, setup.costs,
                       batch_primitives=4096).run(trace)
        fine = GPUpd(setup.config, setup.costs,
                     batch_primitives=4).run(trace)
        assert fine.frame_cycles > coarse.frame_cycles
