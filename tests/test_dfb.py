"""The distributed framebuffer (dfb): tile-granular async composition.

The functional core's contract (checked with the tile-by-tile reducers
in ``tests/oracles/tile_reducers.py``), then the scheme end-to-end:

1. *opaque*: folding tiles in **any** arrival order is bit-identical to
   the whole-sub-image sequential compositor — including under depth
   ties, where both must keep the lower source index;
2. *transparent*: the per-tile accumulator folds only tree-adjacent
   layers; out-of-order arrivals and incomplete reductions raise a typed
   ``SchedulingError`` instead of silently mis-blending;
3. the tile-message planner and the tree edge tile streams account for
   exactly the pixels the whole-message model bills;
4. fail-stop repair folds dead GPUs' tiles onto survivors (union, never
   double-billed) and re-owns their framebuffer region;
5. the ``dfb`` scheme renders bit-identically to CHOPIN, with and
   without a mid-frame GPU fail-stop.
"""

import numpy as np
import pytest

from repro.composition import composite_opaque, composite_transparent
from repro.composition.compositor import SubImage
from repro.composition.dfb import plan_group_tiles, tree_edge_tile_sizes
from repro.errors import CompositionError, FaultError, SchedulingError
from repro.faults import parse_fault_plan
from repro.framebuffer.depth import DEPTH_CLEAR
from repro.faults.degraded import (repair_tile_owner, repair_tile_sources,
                                   tile_owner_matrix, tile_pixel_counts)
from repro.geometry import BlendOp
from repro.harness.runner import make_setup, run
from repro.raster import TileGrid
from repro.traces import load_benchmark

from .oracles.tile_reducers import (OpaqueTileReducer, TransparentTileReducer,
                                    all_tile_messages, reduce_opaque_tiles)

WIDTH, HEIGHT, TILE = 20, 12, 4  # 5 x 3 tiles, edge-exact


@pytest.fixture()
def grid():
    return TileGrid(WIDTH, HEIGHT, tile_size=TILE)


def make_opaque_images(rng, count, tie_levels=3):
    """Sub-images with deliberately coarse depths so ties are common.

    Untouched pixels carry clear color/depth, as real sub-images do.
    """
    images = []
    for _ in range(count):
        depth = (rng.integers(0, tie_levels, (HEIGHT, WIDTH))
                 / tie_levels).astype(np.float32)
        color = rng.random((HEIGHT, WIDTH, 4), dtype=np.float32)
        touched = rng.random((HEIGHT, WIDTH)) < 0.6
        color[~touched] = 0.0
        depth[~touched] = DEPTH_CLEAR
        images.append(SubImage(color=color, depth=depth, touched=touched))
    return images


# ------------------------------------------------------------------ opaque


class TestOpaqueTileReduction:
    def test_raster_order_matches_sequential(self, grid, rng):
        images = make_opaque_images(rng, 4)
        expected = composite_opaque(images)
        got = reduce_opaque_tiles(grid, images)
        assert np.array_equal(got.color, expected.color)
        assert np.array_equal(got.depth, expected.depth)
        assert np.array_equal(got.touched, expected.touched)

    @pytest.mark.parametrize("seed", range(8))
    def test_any_permutation_is_bit_identical(self, grid, rng, seed):
        images = make_opaque_images(rng, 5)
        expected = composite_opaque(images)
        messages = all_tile_messages(grid, images)
        order = [messages[i]
                 for i in np.random.default_rng(seed).permutation(
                     len(messages))]
        got = reduce_opaque_tiles(grid, images, order=order)
        assert np.array_equal(got.color, expected.color)
        assert np.array_equal(got.depth, expected.depth)

    def test_depth_ties_keep_lower_source(self, grid):
        """Both compositors must break exact depth ties the same way."""
        flat = [SubImage(color=np.full((HEIGHT, WIDTH, 4), c, np.float32),
                         depth=np.full((HEIGHT, WIDTH), 0.5, np.float32),
                         touched=np.ones((HEIGHT, WIDTH), dtype=bool))
                for c in (0.25, 0.75)]
        expected = composite_opaque(flat)
        # deliver the *higher* source first: the tie must still resolve
        # toward source 0
        order = [m for m in all_tile_messages(grid, flat) if m[0] == 1] \
            + [m for m in all_tile_messages(grid, flat) if m[0] == 0]
        got = reduce_opaque_tiles(grid, flat, order=order)
        assert np.array_equal(got.color, expected.color)
        assert float(got.color[0, 0, 0]) == 0.25

    def test_reducer_rejects_unknown_source(self, grid, rng):
        images = make_opaque_images(rng, 2)
        reducer = OpaqueTileReducer(grid, 2)
        with pytest.raises(CompositionError):
            reducer.accept_subimage_tile(5, 0, 0, images[0])

    def test_zero_sources_rejected(self, grid):
        with pytest.raises(CompositionError):
            reduce_opaque_tiles(grid, [])


# -------------------------------------------------------------- transparent


def make_layer_images(grid, rng, layer_tiles):
    """Full-screen layers that are identity outside their touched tiles."""
    images = []
    for bitmap in layer_tiles:
        image = SubImage.blank(WIDTH, HEIGHT)
        for ty in range(grid.tiles_y):
            for tx in range(grid.tiles_x):
                if not bitmap[ty, tx]:
                    continue
                x0, y0, x1, y1 = grid.tile_bounds(tx, ty)
                image.color[y0:y1, x0:x1] = rng.random(
                    (y1 - y0, x1 - x0, 4), dtype=np.float32)
                image.depth[y0:y1, x0:x1] = rng.random(
                    (y1 - y0, x1 - x0), dtype=np.float32)
                image.touched[y0:y1, x0:x1] = True
        images.append(image)
    return images


def make_layer_tiles(grid, rng, count):
    tiles = rng.random((count, grid.tiles_y, grid.tiles_x)) < 0.7
    tiles[:, 0, 0] = True  # tile (0, 0) has every layer as a contributor
    return list(tiles)


def fold_all(reducer, grid, images, layer_tiles, reverse=False):
    for ty in range(grid.tiles_y):
        for tx in range(grid.tiles_x):
            layers = [k for k in range(len(images)) if layer_tiles[k][ty, tx]]
            for layer in (reversed(layers) if reverse else layers):
                reducer.accept_subimage_tile(layer, tx, ty, images[layer])


class TestTransparentTileReduction:
    def test_in_order_fold_matches_sequential(self, grid, rng):
        layer_tiles = make_layer_tiles(grid, rng, 4)
        images = make_layer_images(grid, rng, layer_tiles)
        expected = composite_transparent(images, BlendOp.OVER)
        reducer = TransparentTileReducer(grid, layer_tiles, BlendOp.OVER)
        fold_all(reducer, grid, images, layer_tiles)
        assert reducer.complete()
        got = reducer.result()
        assert np.array_equal(got.color, expected.color)
        assert np.array_equal(got.depth, expected.depth)

    def test_reverse_adjacent_fold_matches_sequential(self, grid, rng):
        """Growing the span from the back is still adjacent — same image
        up to float re-association (blend is associative in exact math
        only, like the tree compositor)."""
        layer_tiles = make_layer_tiles(grid, rng, 4)
        images = make_layer_images(grid, rng, layer_tiles)
        expected = composite_transparent(images, BlendOp.OVER)
        reducer = TransparentTileReducer(grid, layer_tiles, BlendOp.OVER)
        fold_all(reducer, grid, images, layer_tiles, reverse=True)
        got = reducer.result()
        assert np.allclose(got.color, expected.color, atol=1e-5)

    def test_out_of_order_tile_raises(self, grid, rng):
        layer_tiles = [np.ones((grid.tiles_y, grid.tiles_x), dtype=bool)
                       for _ in range(3)]
        images = make_layer_images(grid, rng, layer_tiles)
        reducer = TransparentTileReducer(grid, layer_tiles, BlendOp.OVER)
        reducer.accept_subimage_tile(0, 0, 0, images[0])
        with pytest.raises(SchedulingError, match="out-of-order"):
            reducer.accept_subimage_tile(2, 0, 0, images[2])

    def test_adjacency_judged_among_contributors_only(self, grid, rng):
        """A layer skipping the tile is no gap: 0 then 2 is adjacent when
        layer 1 never touches the tile."""
        layer_tiles = [np.ones((grid.tiles_y, grid.tiles_x), dtype=bool),
                       np.zeros((grid.tiles_y, grid.tiles_x), dtype=bool),
                       np.ones((grid.tiles_y, grid.tiles_x), dtype=bool)]
        images = make_layer_images(grid, rng, layer_tiles)
        reducer = TransparentTileReducer(grid, layer_tiles, BlendOp.OVER)
        reducer.accept_subimage_tile(0, 0, 0, images[0])
        reducer.accept_subimage_tile(2, 0, 0, images[2])  # must not raise

    def test_non_contributor_rejected(self, grid, rng):
        layer_tiles = [np.zeros((grid.tiles_y, grid.tiles_x), dtype=bool)
                       for _ in range(2)]
        layer_tiles[0][:, :] = True
        images = make_layer_images(grid, rng, layer_tiles)
        reducer = TransparentTileReducer(grid, layer_tiles, BlendOp.OVER)
        with pytest.raises(SchedulingError, match="does not touch"):
            reducer.accept_subimage_tile(1, 0, 0, images[1])

    def test_incomplete_result_raises(self, grid, rng):
        layer_tiles = make_layer_tiles(grid, rng, 3)
        images = make_layer_images(grid, rng, layer_tiles)
        reducer = TransparentTileReducer(grid, layer_tiles, BlendOp.OVER)
        reducer.accept_subimage_tile(0, 0, 0, images[0])
        assert not reducer.complete()
        with pytest.raises(SchedulingError, match="incomplete"):
            reducer.result()


# ----------------------------------------------------------- tile planning


class TestTileMessagePlanning:
    def test_plan_counts_are_consistent(self, grid, rng):
        n = 3
        pixels = tile_pixel_counts(grid)
        owner = tile_owner_matrix(grid, n)
        touched = [rng.random((grid.tiles_y, grid.tiles_x)) < 0.5
                   for _ in range(n)]
        sends, recv_counts = plan_group_tiles(touched, pixels, owner)
        assert sum(len(s) for s in sends) == sum(recv_counts)
        for src, messages in enumerate(sends):
            for m in messages:
                assert m.src == src
                assert m.dst != src  # self-owned tiles never travel
                assert m.dst == int(owner[m.ty, m.tx])
                assert m.pixels == int(pixels[m.ty, m.tx])
                assert touched[src][m.ty, m.tx]
        for dst in range(n):
            assert recv_counts[dst] == sum(
                1 for s in sends for m in s if m.dst == dst)

    def test_planned_tiles_cover_foreign_touched_tiles_exactly_once(
            self, grid, rng):
        n = 4
        pixels = tile_pixel_counts(grid)
        owner = tile_owner_matrix(grid, n)
        touched = [rng.random((grid.tiles_y, grid.tiles_x)) < 0.5
                   for _ in range(n)]
        sends, _ = plan_group_tiles(touched, pixels, owner)
        for src in range(n):
            expected = {(tx, ty)
                        for ty in range(grid.tiles_y)
                        for tx in range(grid.tiles_x)
                        if touched[src][ty, tx]
                        and int(owner[ty, tx]) != src}
            got = [(m.tx, m.ty) for m in sends[src]]
            assert len(got) == len(set(got))
            assert set(got) == expected

    def test_tree_edge_streams_sum_to_edge_pixels(self, grid, rng):
        pixels = tile_pixel_counts(grid)
        leaves = {m: rng.random((grid.tiles_y, grid.tiles_x)) < 0.6
                  for m in (0, 1, 2, 3)}
        # adjacent-pair tree: (1->0), (3->2) then (2->0); each edge is
        # billed the sender's current union of touched tiles
        def bill(bitmap):
            return int(pixels[bitmap].sum())
        levels = [[(1, 0, bill(leaves[1])), (3, 2, bill(leaves[3]))],
                  [(2, 0, bill(leaves[2] | leaves[3]))]]
        streams = tree_edge_tile_sizes(levels, leaves, pixels)
        for level, level_streams in zip(levels, streams):
            for (sender, receiver, billed), stream in zip(level,
                                                          level_streams):
                assert sum(stream) == billed
        # the second-level sender streams its merged bitmap
        assert sum(streams[1][0]) == bill(leaves[2] | leaves[3])


# --------------------------------------------------------- fail-stop repair


class TestTileRepair:
    def test_repair_tile_sources_unions_onto_inheritor(self, grid, rng):
        touched = [rng.random((grid.tiles_y, grid.tiles_x)) < 0.5
                   for _ in range(4)]
        merged = repair_tile_sources(touched, dead=[2], inherit={2: 0})
        assert np.array_equal(merged[0], touched[0] | touched[2])
        assert not merged[2].any()
        assert np.array_equal(merged[1], touched[1])
        assert np.array_equal(merged[3], touched[3])
        # union, not sum: the originals are untouched
        assert touched[0] is not merged[0]

    def test_repair_tile_sources_rejects_self_inherit(self, grid, rng):
        touched = [np.ones((grid.tiles_y, grid.tiles_x), dtype=bool)
                   for _ in range(2)]
        with pytest.raises(FaultError):
            repair_tile_sources(touched, dead=[1], inherit={1: 1})

    def test_repair_tile_owner_reowns_dead_tiles(self, grid):
        owner = tile_owner_matrix(grid, 4)
        repaired = repair_tile_owner(owner, dead=[1], inherit={1: 3})
        assert not (repaired == 1).any()
        assert np.array_equal(repaired == 3, (owner == 3) | (owner == 1))
        assert np.array_equal(repaired == 0, owner == 0)

    def test_repair_tile_owner_rejects_dead_adopter(self, grid):
        owner = tile_owner_matrix(grid, 4)
        with pytest.raises(FaultError):
            repair_tile_owner(owner, dead=[1, 2], inherit={1: 2, 2: 3})
        with pytest.raises(FaultError):
            repair_tile_owner(owner, dead=[1], inherit={1: 1})


# ----------------------------------------------------------- scheme e2e


class TestDfbSchemeEndToEnd:
    @pytest.fixture(scope="class")
    def setup(self):
        return make_setup("tiny", num_gpus=8)

    @pytest.fixture(scope="class")
    def dfb_result(self, setup):
        return run("dfb", load_benchmark("wolf", "tiny"), setup)

    def test_bit_identical_to_chopin(self, setup, dfb_result):
        baseline = run("chopin", load_benchmark("wolf", "tiny"), setup)
        assert np.array_equal(dfb_result.image.color, baseline.image.color)
        assert np.array_equal(dfb_result.image.depth, baseline.image.depth)

    def test_tile_streaming_pays_composition_traffic(self, dfb_result):
        from repro.stats import TRAFFIC_COMPOSITION
        assert dfb_result.stats.traffic_total(TRAFFIC_COMPOSITION) > 0

    def test_failstop_recovers_bit_identically(self, setup, dfb_result):
        faulted = make_setup("tiny", num_gpus=8,
                             faults=parse_fault_plan("fail=2@50000"))
        result = run("dfb", load_benchmark("wolf", "tiny"), faulted)
        assert np.array_equal(result.image.color, dfb_result.image.color)
        assert np.array_equal(result.image.depth, dfb_result.image.depth)
        assert result.stats.recovery_cycles > 0
        assert result.frame_cycles > dfb_result.frame_cycles
