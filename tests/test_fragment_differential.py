"""Batched fragment phase vs. the per-triangle oracle, byte for byte.

The production :func:`repro.render.phases.fragment_phase` rasterizes a
whole draw at once and processes it in rank layers; the oracle in
``tests/oracles/sequential_fragment.py`` is the per-triangle loop it
replaced. Both run on the same artifact and pre-filled surfaces, and
every buffer byte, every counter and the retain RNG's position must
agree. Vertices and depths are snapped to coarse grids so shared edges,
overlapping pixels and exact depth ties are the common case.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framebuffer import SurfacePool
from repro.geometry import BlendOp, DepthFunc, DrawCommand, RenderState
from repro.raster import rasterizer
from repro.raster.rasterizer import rasterize_triangles
from repro.render.artifact import DrawArtifact
from repro.render.phases import _live_mask, fragment_phase
from repro.shading.shaders import ShaderLibrary
from repro.shading.texture import value_noise

from .oracles import sequential_fragment as oracle

TEXTURE_ID = 3
STATE_AXES = list(itertools.product(DepthFunc, BlendOp, (True, False),
                                    (True, False)))


def make_artifact(rng, num_tris, width, height, snap, all_live=False):
    """Random screen-space triangles on a ``snap``-pixel vertex grid."""
    xy = rng.integers(-2, (width + 2) // snap + 1,
                      size=(num_tris, 3, 2)) * snap
    xy = xy.astype(np.float32)
    # a few triangles reuse another triangle's edge, as meshes do
    for tri in range(1, num_tris, 3):
        xy[tri, :2] = xy[tri - 1, 1:][::-1]
    depth = (rng.integers(0, 5, size=(num_tris, 3)) / 4).astype(np.float32)
    colors = rng.random((num_tris, 3, 4), dtype=np.float32)
    live = (np.ones(num_tris, dtype=bool) if all_live
            else _live_mask(xy, width, height))
    return DrawArtifact(triangles_submitted=num_tris + 1, triangles_culled=1,
                        xy=xy, depth=depth, colors=colors, live=live)


def make_surfaces(rng, width, height, state):
    pool = SurfacePool(width, height)
    pool.render_target(state.render_target).color[:] = rng.random(
        (height, width, 4), dtype=np.float32)
    pool.depth_buffer(state.depth_buffer)[:] = (
        rng.integers(0, 5, size=(height, width)) / 4).astype(np.float32)
    return pool


def run_both(scene_seed, state, *, mask_mode="none", num_owners=3,
             retain=0.0, rng_seed=None, textured=False, num_tris=12,
             width=24, height=20, snap=4, all_live=False):
    """Run oracle and production on copies of one scene; return both."""
    rng = np.random.default_rng(scene_seed)
    artifact = make_artifact(rng, num_tris, width, height, snap, all_live)
    draw = DrawCommand(draw_id=7,
                       positions=np.zeros((num_tris, 3, 3), np.float32),
                       colors=np.zeros((num_tris, 3, 4), np.float32),
                       state=state,
                       texture_id=TEXTURE_ID if textured else None)
    shaders = ShaderLibrary(width, height)
    shaders.register_texture(TEXTURE_ID, value_noise(8, seed=scene_seed))
    owner_mask = owner_map = None
    if mask_mode == "mask":
        owner_mask = rng.random((height, width)) < 0.6
    elif mask_mode == "map":
        owner_map = rng.integers(0, num_owners, size=(height, width))
    fill_seed = int(rng.integers(1 << 31))

    results = []
    for phase in (oracle.fragment_phase, fragment_phase):
        pool = make_surfaces(np.random.default_rng(fill_seed), width,
                             height, state)
        touched = np.zeros((height, width), dtype=bool)
        gen = (np.random.default_rng(rng_seed) if rng_seed is not None
               else None)
        metrics = phase(artifact, draw, pool, shaders, width, height,
                        owner_mask=owner_mask, owner_map=owner_map,
                        num_owners=num_owners, touched=touched,
                        retained_cull_fraction=retain, rng=gen)
        results.append((pool, touched, metrics, gen))
    return results


def assert_identical(results, state):
    (pool_a, touched_a, metrics_a, gen_a), \
        (pool_b, touched_b, metrics_b, gen_b) = results
    color_a = pool_a.render_target(state.render_target).color
    color_b = pool_b.render_target(state.render_target).color
    assert color_a.tobytes() == color_b.tobytes()
    assert pool_a.depth_buffer(state.depth_buffer).tobytes() \
        == pool_b.depth_buffer(state.depth_buffer).tobytes()
    assert touched_a.tobytes() == touched_b.tobytes()
    for field in dataclasses.fields(metrics_a):
        mine = getattr(metrics_a, field.name)
        theirs = getattr(metrics_b, field.name)
        if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
            assert mine.dtype == theirs.dtype, field.name
            assert np.array_equal(mine, theirs), field.name
        else:
            assert mine == theirs, field.name
            assert type(mine) is type(theirs), field.name
    if gen_a is not None:
        # the batched phase consumed exactly as many draws as the oracle
        assert gen_a.random() == gen_b.random()


@pytest.mark.parametrize("depth_func,blend_op,early_z,depth_write",
                         STATE_AXES)
@given(scene_seed=st.integers(0, 2 ** 16),
       mask_mode=st.sampled_from(["none", "mask", "map"]),
       num_owners=st.integers(2, 4),
       retain=st.sampled_from([0.0, 0.0, 0.3, 1.0]),
       rng_seed=st.one_of(st.none(), st.integers(0, 100)),
       textured=st.booleans(),
       num_tris=st.integers(1, 14),
       snap=st.sampled_from([1, 2, 4, 8]),
       all_live=st.booleans())
@settings(max_examples=6, deadline=None)
def test_batched_matches_sequential_oracle(depth_func, blend_op, early_z,
                                           depth_write, scene_seed,
                                           mask_mode, num_owners, retain,
                                           rng_seed, textured, num_tris,
                                           snap, all_live):
    state = RenderState(depth_func=depth_func, blend_op=blend_op,
                        early_z=early_z, depth_write=depth_write)
    results = run_both(scene_seed, state, mask_mode=mask_mode,
                       num_owners=num_owners, retain=retain,
                       rng_seed=rng_seed, textured=textured,
                       num_tris=num_tris, snap=snap, all_live=all_live)
    assert_identical(results, state)


@pytest.mark.parametrize("retain", [0.4, 1.0])
def test_retain_rng_stream_matches_oracle(retain):
    """The Fig 16 path: same extra shading and same generator position."""
    state = RenderState(depth_func=DepthFunc.LESS)
    for seed in range(20):
        for mask_mode in ("none", "mask", "map"):
            results = run_both(seed, state, mask_mode=mask_mode,
                               retain=retain, rng_seed=seed, num_tris=20)
            assert_identical(results, state)


def test_late_z_textured_overlapping_stack():
    """Many full-overlap layers: every pixel is hit by each triangle."""
    state = RenderState(depth_func=DepthFunc.LEQUAL, blend_op=BlendOp.OVER,
                        early_z=False)
    results = run_both(11, state, textured=True, num_tris=30, snap=16,
                       width=16, height=16)
    assert results[1][2].fragments_generated > 0
    assert_identical(results, state)


@pytest.mark.parametrize("mask_mode", ["none", "mask"])
def test_fragmentless_draw_binds_the_same_surfaces(mask_mode):
    """A draw with triangles but no (owned) fragments still allocates its
    render target and depth buffer, as the per-triangle loop did."""
    width, height = 16, 16
    xy = np.array([[[3.1, 3.1], [3.3, 3.1], [3.1, 3.3]],
                   [[0, 0], [8, 0], [0, 8]]], dtype=np.float32)
    if mask_mode == "none":
        xy = xy[:1]     # subpixel: covers no pixel centre
    artifact = DrawArtifact(
        triangles_submitted=len(xy), triangles_culled=0, xy=xy,
        depth=np.full((len(xy), 3), 0.5, np.float32),
        colors=np.ones((len(xy), 3, 4), np.float32),
        live=np.ones(len(xy), bool))
    draw = DrawCommand(draw_id=1, positions=np.zeros((len(xy), 3, 3)),
                       colors=np.zeros((len(xy), 3, 4)),
                       state=RenderState(render_target=2, depth_buffer=3))
    owner_mask = (np.zeros((height, width), dtype=bool)
                  if mask_mode == "mask" else None)
    pools = []
    for phase in (oracle.fragment_phase, fragment_phase):
        pool = SurfacePool(width, height)
        metrics = phase(artifact, draw, pool, ShaderLibrary(width, height),
                        width, height, owner_mask=owner_mask)
        assert metrics.fragments_generated == 0
        pools.append(pool)
    assert pools[0].target_ids == pools[1].target_ids == (2,)
    assert sorted(pools[0]._depths) == sorted(pools[1]._depths) == [3]


def _mixed_draw(width, height):
    """One screen-filling triangle among small ones."""
    rng = np.random.default_rng(5)
    small = rng.uniform(0, 12, size=(9, 3, 2)) + rng.uniform(
        0, width - 12, size=(9, 1, 2))
    full = np.array([[[-width, -height], [3 * width, -height],
                      [-width, 3 * height]]])
    xy = np.concatenate([small[:4], full, small[4:]]).astype(np.float32)
    depth = rng.random((10, 3), dtype=np.float32)
    colors = rng.random((10, 3, 4), dtype=np.float32)
    return xy, depth, colors, np.ones(10, dtype=bool)


def test_chunked_candidates_match_one_chunk(monkeypatch):
    width, height = 48, 40
    args = _mixed_draw(width, height) + (width, height)
    whole = rasterize_triangles(*args)

    spans = []
    span = rasterizer._rasterize_span

    def counting_span(per_tri, first, last, boxes):
        spans.append((first, last, int((boxes[:, 2] * boxes[:, 3]).sum())))
        return span(per_tri, first, last, boxes)

    monkeypatch.setattr(rasterizer, "_CHUNK_CANDIDATES", 300)
    monkeypatch.setattr(rasterizer, "_rasterize_span", counting_span)
    chunked = rasterize_triangles(*args)

    # small triangles share chunks; the screen-filling one (index 4) is
    # cut into bands of whole rows; no chunk exceeds the budget
    assert any(last - first > 1 for first, last, _ in spans)
    assert sum(1 for first, last, _ in spans if (first, last) == (4, 5)) > 2
    assert all(candidates <= 300 for _, _, candidates in spans)
    assert [a.dtype for a in whole] == [a.dtype for a in chunked]
    for a, b in zip(whole, chunked):
        assert a.tobytes() == b.tobytes()


def test_chunked_fragment_phase_matches_oracle(monkeypatch):
    monkeypatch.setattr(rasterizer, "_CHUNK_CANDIDATES", 200)
    state = RenderState(blend_op=BlendOp.ADDITIVE, depth_func=DepthFunc.LEQUAL)
    results = run_both(3, state, mask_mode="map", num_tris=14, snap=8,
                       width=40, height=32)
    assert_identical(results, state)
