"""Property-based tests on core invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.composition import (SubImage, composite_opaque,
                               composite_transparent,
                               composite_transparent_tree, depth_merge)
from repro.framebuffer import SurfacePool
from repro.geometry import BlendOp, DrawCommand, RenderState
from repro.raster import TileGrid
from repro.raster.rasterizer import rasterize_triangles
from repro.render import RenderService
from repro.sim import Simulator
from repro.traces import Frame, Trace
from repro.core.draw_scheduler import LeastRemainingTrianglesScheduler

colors_arr = hnp.arrays(np.float32, (4, 4, 4),
                        elements=st.floats(0, 1, width=32))
depth_arr = hnp.arrays(np.float32, (4, 4),
                       elements=st.floats(0, 1, width=32))
touched_arr = hnp.arrays(np.bool_, (4, 4))


@st.composite
def subimages(draw):
    return SubImage(color=draw(colors_arr), depth=draw(depth_arr),
                    touched=draw(touched_arr))


class TestCompositionProperties:
    @given(a=subimages(), b=subimages(), c=subimages())
    @settings(max_examples=60, deadline=None)
    def test_depth_merge_associative(self, a, b, c):
        left = depth_merge(depth_merge(a, b), c)
        right = depth_merge(a, depth_merge(b, c))
        assert (left.touched == right.touched).all()
        # depth is only meaningful where some input drew
        assert np.allclose(left.depth[left.touched],
                           right.depth[right.touched])

    @given(images=st.lists(subimages(), min_size=1, max_size=6),
           seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_opaque_composition_order_invariant(self, images, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(images)).tolist()
        a = composite_opaque(images)
        b = composite_opaque(images, order=order)
        assert (a.touched == b.touched).all()
        assert np.allclose(a.depth[a.touched], b.depth[b.touched])

    @given(images=st.lists(subimages(), min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_tree_reduction_matches_sequential(self, images):
        tree = composite_transparent_tree(images, BlendOp.OVER)
        seq = composite_transparent(images, BlendOp.OVER)
        assert np.allclose(tree.color, seq.color, atol=1e-4)


class TestRasterProperties:
    @given(coords=st.lists(st.floats(-10, 40, allow_nan=False), min_size=6,
                           max_size=6),
           depths=st.lists(st.floats(0, 1, width=32), min_size=3,
                           max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_fragments_always_on_screen_and_bounded(self, coords, depths):
        xy = np.array(coords, dtype=np.float32).reshape(1, 3, 2)
        depth = np.array(depths, dtype=np.float32).reshape(1, 3)
        colors = np.ones((1, 3, 4), dtype=np.float32)
        _, xs, ys, frag_depths, _ = rasterize_triangles(
            xy, depth, colors, np.ones(1, dtype=bool), 32, 32)
        if xs.size:
            assert xs.min() >= 0 and xs.max() < 32
            assert ys.min() >= 0 and ys.max() < 32
            # no duplicate pixels within one triangle
            assert len({(x, y) for x, y in zip(xs.tolist(), ys.tolist())}) \
                == xs.size
            assert frag_depths.min() >= min(depths) - 1e-4
            assert frag_depths.max() <= max(depths) + 1e-4

    @given(seed=st.integers(0, 50), num_gpus=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_owner_attribution_partitions_fragments(self, seed, num_gpus):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-1, 1, (6, 3, 3)).astype(np.float32)
        positions[..., 2] = rng.uniform(0.1, 0.9, (6, 3)).astype(np.float32)
        colors = rng.random((6, 3, 4), dtype=np.float32)
        draw = DrawCommand(draw_id=0, positions=positions, colors=colors)
        grid = TileGrid(32, 32, tile_size=8)
        pipe = RenderService().session(
            Trace(name="blank", width=32, height=32, frames=[Frame([])]))
        pool = SurfacePool(32, 32)
        metrics = pipe.execute_draw(draw, pool,
                                    owner_map=grid.owner_map(num_gpus),
                                    num_owners=num_gpus)
        assert metrics.generated_by_owner.sum() \
            == metrics.fragments_generated
        assert metrics.passed_by_owner.sum() == metrics.fragments_passed


class TestSchedulerProperties:
    @given(sizes=st.lists(st.integers(1, 500), min_size=1, max_size=60),
           num_gpus=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_least_remaining_never_exceeds_prefix_bound(self, sizes,
                                                        num_gpus):
        """Greedy least-loaded keeps the max load within (ideal + biggest
        item), the classic list-scheduling guarantee."""
        sched = LeastRemainingTrianglesScheduler(num_gpus)
        loads = [0] * num_gpus
        for size in sizes:
            loads[sched.pick(size)] += size
        ideal = sum(sizes) / num_gpus
        assert max(loads) <= ideal + max(sizes)


class TestSimProperties:
    @given(delays=st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                           max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []

        def proc(delay):
            yield sim.timeout(delay)
            observed.append(sim.now)

        for delay in delays:
            sim.process(proc(delay))
        sim.run()
        assert observed == sorted(observed)
        assert sim.now == max(delays)
