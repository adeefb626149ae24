"""Barycentric rasterizer: coverage, fill rule, interpolation."""

from typing import NamedTuple

import numpy as np
import pytest

from repro.raster.rasterizer import estimate_coverage, rasterize_triangles


class Frags(NamedTuple):
    tri: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    depths: np.ndarray
    colors: np.ndarray

    @property
    def count(self) -> int:
        return int(self.xs.shape[0])


def raster_batch(triangles, depths=None, live=None, size=(32, 32)):
    """Rasterize a batch of (v0, v1, v2) triangles as one draw."""
    xy = np.array(triangles, dtype=np.float32).reshape(-1, 3, 2)
    num = xy.shape[0]
    depth = (np.full((num, 3), 0.5, dtype=np.float32) if depths is None
             else np.array(depths, dtype=np.float32).reshape(num, 3))
    colors = np.tile(np.eye(3, 4, dtype=np.float32), (num, 1, 1))
    live = np.ones(num, dtype=bool) if live is None else np.asarray(live)
    return Frags(*rasterize_triangles(xy, depth, colors, live,
                                      size[0], size[1]))


def raster(v0, v1, v2, depths=(0.5, 0.5, 0.5), size=(32, 32)):
    return raster_batch([[v0, v1, v2]], [depths], size=size)


class TestCoverage:
    def test_right_triangle_covers_half_square(self):
        frags = raster([0, 0], [16, 0], [0, 16])
        # half of a 16x16 square, ±edge effects
        assert abs(frags.count - 128) <= 16

    def test_degenerate_triangle_empty(self):
        frags = raster([5, 5], [5, 5], [5, 5])
        assert frags.count == 0

    def test_offscreen_triangle_empty(self):
        frags = raster([-20, -20], [-10, -20], [-20, -10])
        assert frags.count == 0

    def test_clipped_to_screen(self):
        frags = raster([-100, -100], [100, -100], [0, 100], size=(8, 8))
        assert 0 < frags.count <= 64
        assert frags.xs.min() >= 0 and frags.xs.max() < 8
        assert frags.ys.min() >= 0 and frags.ys.max() < 8

    def test_winding_does_not_matter(self):
        ccw = raster([2, 2], [20, 2], [2, 20])
        cw = raster([2, 2], [2, 20], [20, 2])
        assert ccw.count == cw.count
        a = set(zip(ccw.xs.tolist(), ccw.ys.tolist()))
        b = set(zip(cw.xs.tolist(), cw.ys.tolist()))
        assert a == b

    def test_subpixel_triangle_may_miss_all_centres(self):
        frags = raster([3.1, 3.1], [3.3, 3.1], [3.1, 3.3])
        assert frags.count == 0


class TestTopLeftRule:
    def test_shared_edge_covered_exactly_once(self):
        """Splitting a square along its diagonal must cover each pixel of
        the square exactly once — the reason transparent draws don't double
        blend along shared edges."""
        a = raster([0, 0], [16, 0], [16, 16])
        b = raster([0, 0], [16, 16], [0, 16])
        pixels_a = set(zip(a.xs.tolist(), a.ys.tolist()))
        pixels_b = set(zip(b.xs.tolist(), b.ys.tolist()))
        assert not pixels_a & pixels_b, "diagonal pixels double-covered"
        assert len(pixels_a | pixels_b) == 256

    def test_adjacent_triangles_tile_strip(self):
        strip = []
        for x in range(0, 16, 4):
            strip.append([[x, 0], [x + 4, 0], [x + 4, 8]])
            strip.append([[x, 0], [x + 4, 8], [x, 8]])
        frags = raster_batch(strip)
        seen = {}
        for px, py in zip(frags.xs.tolist(), frags.ys.tolist()):
            seen[(px, py)] = seen.get((px, py), 0) + 1
        assert all(count == 1 for count in seen.values())
        assert len(seen) == 16 * 8


class TestInterpolation:
    def test_vertex_colors_near_vertices(self):
        frags = raster([0, 0], [31, 0], [0, 31])
        idx = np.argmin(frags.xs + frags.ys)  # nearest the v0 corner
        assert frags.colors[idx, 0] > 0.9  # v0 carries red

    def test_depth_interpolates_linearly(self):
        frags = raster([0, 0], [30, 0], [0, 30], depths=(0.0, 1.0, 1.0))
        near_v0 = np.argmin(frags.xs + frags.ys)
        far_corner = np.argmax(frags.xs)
        assert frags.depths[near_v0] < 0.1
        assert frags.depths[far_corner] > 0.8

    def test_flat_depth_exact(self):
        frags = raster([0, 0], [10, 0], [0, 10], depths=(0.25, 0.25, 0.25))
        assert np.allclose(frags.depths, 0.25, atol=1e-5)

    def test_select_filters_fragments(self):
        """The ``live`` mask selects whole triangles of the batch."""
        tris = [[[0, 0], [16, 0], [0, 16]], [[20, 20], [30, 20], [20, 30]]]
        both = raster_batch(tris)
        first = raster_batch(tris, live=[True, False])
        second = raster_batch(tris, live=[False, True])
        assert first.count + second.count == both.count
        assert (first.tri == 0).all() and (second.tri == 1).all()
        assert (first.xs < 17).all() and (second.xs >= 20).all()


class TestBatch:
    def test_triangle_major_row_major_order(self):
        tris = [[[20, 20], [30, 20], [20, 30]], [[0, 0], [16, 0], [0, 16]]]
        frags = raster_batch(tris)
        assert (np.diff(frags.tri) >= 0).all()
        for tri in (0, 1):
            sel = frags.tri == tri
            key = frags.ys[sel] * 32 + frags.xs[sel]
            assert (np.diff(key) > 0).all()

    def test_batch_equals_concatenated_single_triangles(self):
        rng = np.random.default_rng(4)
        tris = rng.uniform(-8, 40, size=(12, 3, 2))
        depths = rng.random((12, 3))
        batch = raster_batch(tris, depths)
        singles = [raster_batch(tris[i:i + 1], depths[i:i + 1])
                   for i in range(12)]
        assert batch.count == sum(s.count for s in singles)
        for name in ("xs", "ys", "depths", "colors"):
            joined = np.concatenate([getattr(s, name) for s in singles])
            assert getattr(batch, name).tobytes() == joined.tobytes()

    def test_degenerate_and_offscreen_triangles_skipped(self):
        tris = [[[5, 5], [5, 5], [5, 5]], [[-9, -9], [-5, -9], [-9, -5]],
                [[0, 0], [8, 0], [0, 8]]]
        frags = raster_batch(tris)
        assert frags.count > 0 and (frags.tri == 2).all()

    def test_empty_batch(self):
        frags = raster_batch(np.empty((0, 3, 2)))
        assert frags.count == 0 and frags.colors.shape == (0, 4)

    def test_output_dtypes(self):
        frags = raster([0, 0], [16, 0], [0, 16])
        assert frags.xs.dtype == np.int32 and frags.ys.dtype == np.int32
        assert frags.depths.dtype == np.float32
        assert frags.colors.dtype == np.float32


class TestEstimateCoverage:
    def test_matches_exact_for_onscreen_triangle(self):
        estimate = estimate_coverage(
            np.array([[0, 0], [16, 0], [0, 16]], dtype=np.float32), 32, 32)
        assert estimate == pytest.approx(128, rel=0.1)

    def test_zero_for_offscreen(self):
        estimate = estimate_coverage(
            np.array([[-10, -10], [-5, -10], [-10, -5]], dtype=np.float32),
            32, 32)
        assert estimate == 0.0
