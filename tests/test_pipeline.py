"""The functional graphics pipeline end to end, through a RenderSession."""

import numpy as np
import pytest

from repro.errors import PipelineError, TraceError
from repro.framebuffer import DEPTH_CLEAR, Framebuffer, SurfacePool
from repro.geometry import (BlendOp, DepthFunc, DrawCommand, RenderState,
                            fullscreen_quad)
from repro.raster import TileGrid
from repro.render import RenderService
from repro.traces import Frame, Trace


def ndc_quad(x0, y0, x1, y1, depth, color=(1, 1, 1, 1), **state_kwargs):
    quad = np.array([
        [[x0, y0, depth], [x1, y0, depth], [x1, y1, depth]],
        [[x0, y0, depth], [x1, y1, depth], [x0, y1, depth]],
    ], dtype=np.float32)
    colors = np.tile(np.asarray(color, dtype=np.float32), (2, 3, 1))
    return DrawCommand(draw_id=0, positions=quad, colors=colors,
                       state=RenderState(**state_kwargs))


@pytest.fixture()
def pipe():
    """A session on an empty 32x32 clip-space trace, with its own store."""
    trace = Trace(name="blank", width=32, height=32, frames=[Frame([])])
    return RenderService().session(trace)


@pytest.fixture()
def pool():
    return SurfacePool(32, 32)


class TestBasicRendering:
    def test_fullscreen_quad_fills_target(self, pipe, pool):
        metrics = pipe.execute_draw(fullscreen_quad((0.5, 0.25, 0.125, 1.0)),
                                    pool)
        fb = pool.render_target(0)
        assert metrics.pixels_written == 32 * 32
        assert np.allclose(fb.color[..., :3], [0.5, 0.25, 0.125], atol=1e-5)

    def test_depth_buffer_updated(self, pipe, pool):
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, depth=0.5), pool)
        assert np.allclose(pool.depth_buffer(0), 0.5, atol=1e-5)

    def test_closer_draw_wins(self, pipe, pool):
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.5, (1, 0, 0, 1)), pool)
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.2, (0, 1, 0, 1)), pool)
        assert np.allclose(pool.render_target(0).color[16, 16, :3], [0, 1, 0])

    def test_farther_draw_culled(self, pipe, pool):
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.2, (1, 0, 0, 1)), pool)
        metrics = pipe.execute_draw(
            ndc_quad(-1, -1, 1, 1, 0.5, (0, 1, 0, 1)), pool)
        assert metrics.fragments_passed == 0
        assert metrics.fragments_shaded == 0
        assert np.allclose(pool.render_target(0).color[16, 16, :3], [1, 0, 0])

    def test_offscreen_draw_culled_in_geometry(self, pipe, pool):
        metrics = pipe.execute_draw(ndc_quad(2, 2, 3, 3, 0.5), pool)
        assert metrics.triangles_culled == 2
        assert metrics.fragments_generated == 0

    def test_empty_draw_is_noop(self, pipe, pool):
        draw = DrawCommand(draw_id=0,
                           positions=np.empty((0, 3, 3), np.float32),
                           colors=np.empty((0, 3, 4), np.float32))
        metrics = pipe.execute_draw(draw, pool)
        assert metrics.fragments_generated == 0

    def test_render_target_selection(self, pipe, pool):
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.5, (1, 0, 0, 1),
                                   render_target=2, depth_buffer=2), pool)
        assert (pool.render_target(0).color == 0).all()
        assert np.allclose(pool.render_target(2).color[0, 0, :3], [1, 0, 0])

    def test_viewport_must_be_positive(self):
        with pytest.raises(TraceError):
            Trace(name="blank", width=0, height=32, frames=[Frame([])])
        with pytest.raises(PipelineError):
            Framebuffer(32, 0)


class TestDepthModes:
    def test_depth_write_disabled_leaves_buffer(self, pipe, pool):
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.5, depth_write=False),
                          pool)
        assert (pool.depth_buffer(0) == DEPTH_CLEAR).all()

    def test_late_z_shades_before_test(self, pipe, pool):
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.2), pool)
        metrics = pipe.execute_draw(
            ndc_quad(-1, -1, 1, 1, 0.5, early_z=False), pool)
        # all fragments shaded even though none pass
        assert metrics.fragments_shaded == 32 * 32
        assert metrics.late_passed == 0
        assert metrics.pixels_written == 0

    def test_greater_func_inverts_result(self, pipe, pool):
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.5), pool)
        metrics = pipe.execute_draw(
            ndc_quad(-1, -1, 1, 1, 0.9, depth_func=DepthFunc.GREATER), pool)
        assert metrics.fragments_passed == 32 * 32


class TestBlending:
    def test_over_blends_with_background(self, pipe, pool):
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.9, (1, 0, 0, 1)), pool)
        # premultiplied half-transparent green
        pipe.execute_draw(
            ndc_quad(-1, -1, 1, 1, 0.5, (0, 0.5, 0, 0.5),
                     blend_op=BlendOp.OVER, depth_write=False), pool)
        assert np.allclose(pool.render_target(0).color[16, 16, :3],
                           [0.5, 0.5, 0.0], atol=1e-5)

    def test_additive_saturates(self, pipe, pool):
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.9, (0.8, 0, 0, 1)), pool)
        pipe.execute_draw(
            ndc_quad(-1, -1, 1, 1, 0.5, (0.8, 0, 0, 0),
                     blend_op=BlendOp.ADDITIVE, depth_write=False), pool)
        assert np.allclose(pool.render_target(0).color[16, 16, 0], 1.0)


class TestOwnerAttribution:
    def test_by_owner_sums_match_totals(self, pipe, pool):
        grid = TileGrid(32, 32, tile_size=8)
        owner_map = grid.owner_map(4)
        metrics = pipe.execute_draw(fullscreen_quad((1, 1, 1, 1)), pool,
                                    owner_map=owner_map, num_owners=4)
        assert metrics.generated_by_owner.sum() == metrics.fragments_generated
        assert metrics.shaded_by_owner.sum() == metrics.fragments_shaded
        assert metrics.passed_by_owner.sum() == metrics.fragments_passed

    def test_owner_mask_restricts_fragments(self, pipe, pool):
        grid = TileGrid(32, 32, tile_size=8)
        mask = grid.gpu_pixel_mask(0, 4)
        metrics = pipe.execute_draw(fullscreen_quad((1, 1, 1, 1)), pool,
                                    owner_mask=mask)
        assert metrics.fragments_generated == int(mask.sum())

    def test_mask_and_map_agree(self, pipe):
        grid = TileGrid(32, 32, tile_size=8)
        owner_map = grid.owner_map(4)
        pool_a, pool_b = SurfacePool(32, 32), SurfacePool(32, 32)
        full = pipe.execute_draw(fullscreen_quad((1, 1, 1, 1)), pool_a,
                                 owner_map=owner_map, num_owners=4)
        masked = pipe.execute_draw(
            fullscreen_quad((1, 1, 1, 1)), pool_b,
            owner_mask=grid.gpu_pixel_mask(2, 4))
        assert masked.fragments_shaded == int(full.shaded_by_owner[2])


class TestTouchedAndRetained:
    def test_touched_mask_records_writes(self, pipe, pool):
        touched = np.zeros((32, 32), dtype=bool)
        pipe.execute_draw(ndc_quad(-1, 0, 0, 1, 0.5), pool, touched=touched)
        assert touched.any()
        assert not touched.all()

    def test_retained_fraction_inflates_shading_only(self, pipe, pool):
        pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.2), pool)
        rng = np.random.default_rng(0)
        metrics = pipe.execute_draw(ndc_quad(-1, -1, 1, 1, 0.5), pool,
                                    retained_cull_fraction=0.5, rng=rng)
        assert metrics.fragments_passed == 0
        assert metrics.pixels_written == 0
        # roughly half of the 1024 culled fragments shaded anyway
        assert 380 <= metrics.fragments_shaded <= 640

    def test_metrics_merge(self, pipe, pool):
        first = pipe.execute_draw(ndc_quad(-1, -1, 0, 0, 0.5), pool)
        second = pipe.execute_draw(ndc_quad(0, 0, 1, 1, 0.5), pool)
        total = first.fragments_shaded + second.fragments_shaded
        first.merge(second)
        assert first.fragments_shaded == total
