"""The per-triangle fragment phase, kept as the oracle for the batched one.

``fragment_phase`` here is the sequential loop the production
:func:`repro.render.phases.fragment_phase` replaced: one
``rasterize_triangle`` call per live triangle, each followed by its own
gather, depth test, shade, blend and scatter. Tests run both on the same
artifact and surfaces and require byte-identical buffers and metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.composition.operators import blend
from repro.framebuffer.depth import depth_test
from repro.framebuffer.framebuffer import SurfacePool
from repro.geometry.primitives import BlendOp, DrawCommand
from repro.render.artifact import DrawArtifact, DrawMetrics
from repro.shading.shaders import ShaderLibrary


@dataclass
class FragmentBatch:
    """Fragments produced by rasterizing one triangle."""

    xs: np.ndarray      # (N,) int32 pixel x
    ys: np.ndarray      # (N,) int32 pixel y
    depths: np.ndarray  # (N,) float32
    colors: np.ndarray  # (N, 4) float32 RGBA

    @property
    def count(self) -> int:
        return int(self.xs.shape[0])

    def select(self, mask: np.ndarray) -> "FragmentBatch":
        return FragmentBatch(self.xs[mask], self.ys[mask],
                             self.depths[mask], self.colors[mask])


_EMPTY = FragmentBatch(
    xs=np.empty(0, dtype=np.int32),
    ys=np.empty(0, dtype=np.int32),
    depths=np.empty(0, dtype=np.float32),
    colors=np.empty((0, 4), dtype=np.float32),
)

#: vertex permutation that flips triangle winding (hot path: one triangle
#: per call, so the index array must not be rebuilt per triangle)
_WINDING_SWAP = np.array([0, 2, 1])


def _edge(ax, ay, bx, by, px, py):
    """Signed edge function: >0 when (px,py) is left of a->b (y-down CCW)."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def rasterize_triangle(xy: np.ndarray, depth: np.ndarray, colors: np.ndarray,
                       width: int, height: int) -> FragmentBatch:
    """Rasterize one screen-space triangle.

    ``xy`` is (3, 2) pixel coordinates, ``depth`` (3,), ``colors`` (3, 4).
    Attributes are interpolated linearly in screen space. Returns the covered
    fragments clipped to the screen.
    """
    v0, v1, v2 = xy[0], xy[1], xy[2]
    area = _edge(v0[0], v0[1], v1[0], v1[1], v2[0], v2[1])
    if area == 0.0:
        return _EMPTY
    if area < 0.0:
        # Normalize winding so the inside test is uniform.
        v1, v2 = v2, v1
        depth = depth[_WINDING_SWAP]
        colors = colors[_WINDING_SWAP]
        area = -area

    x_min = max(int(np.floor(min(v0[0], v1[0], v2[0]))), 0)
    x_max = min(int(np.ceil(max(v0[0], v1[0], v2[0]))), width)
    y_min = max(int(np.floor(min(v0[1], v1[1], v2[1]))), 0)
    y_max = min(int(np.ceil(max(v0[1], v1[1], v2[1]))), height)
    if x_min >= x_max or y_min >= y_max:
        return _EMPTY

    px = np.arange(x_min, x_max, dtype=np.float32) + 0.5
    py = np.arange(y_min, y_max, dtype=np.float32) + 0.5
    grid_x, grid_y = np.meshgrid(px, py)

    w0 = _edge(v1[0], v1[1], v2[0], v2[1], grid_x, grid_y)
    w1 = _edge(v2[0], v2[1], v0[0], v0[1], grid_x, grid_y)
    w2 = _edge(v0[0], v0[1], v1[0], v1[1], grid_x, grid_y)

    # Top-left rule: edges that are "top" or "left" include w == 0 pixels.
    inside = ((w0 > 0) | ((w0 == 0) & _top_left(v1, v2))) \
        & ((w1 > 0) | ((w1 == 0) & _top_left(v2, v0))) \
        & ((w2 > 0) | ((w2 == 0) & _top_left(v0, v1)))
    if not inside.any():
        return _EMPTY

    b0 = w0[inside] / area
    b1 = w1[inside] / area
    b2 = w2[inside] / area

    ys_idx, xs_idx = np.nonzero(inside)
    xs = (xs_idx + x_min).astype(np.int32)
    ys = (ys_idx + y_min).astype(np.int32)
    frag_depth = (b0 * depth[0] + b1 * depth[1] + b2 * depth[2]) \
        .astype(np.float32)
    frag_color = (b0[:, None] * colors[0][None, :]
                  + b1[:, None] * colors[1][None, :]
                  + b2[:, None] * colors[2][None, :]).astype(np.float32)
    return FragmentBatch(xs, ys, frag_depth, frag_color)


def _top_left(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether edge a->b is a top or left edge (y grows downward)."""
    # Left edge: goes down. Top edge: horizontal and goes right.
    return bool(b[1] > a[1] or (b[1] == a[1] and b[0] < a[0]))


def fragment_phase(artifact: DrawArtifact, draw: DrawCommand,
                   surfaces: SurfacePool, shaders: ShaderLibrary,
                   width: int, height: int,
                   owner_mask: Optional[np.ndarray] = None,
                   owner_map: Optional[np.ndarray] = None,
                   num_owners: int = 1,
                   touched: Optional[np.ndarray] = None,
                   retained_cull_fraction: float = 0.0,
                   rng: Optional[np.random.Generator] = None) -> DrawMetrics:
    """Rasterize, depth-test, shade and blend one binned artifact.

    ``touched``, when given, is an (H, W) bool array updated in place
    with every pixel the draw wrote (used to build composition
    sub-images and traffic filters).

    ``owner_map`` (an (H, W) int array of owning GPU ids) enables
    per-owner fragment attribution: the returned metrics carry
    ``*_by_owner`` arrays of length ``num_owners``. This lets sort-first
    schemes (where every GPU sees the same depth history) run the
    functional pipeline once and split the counts by screen region.
    """
    metrics = DrawMetrics(draw_id=draw.draw_id,
                          triangles_submitted=artifact.triangles_submitted,
                          triangles_culled=artifact.triangles_culled)
    if owner_map is not None:
        metrics.generated_by_owner = np.zeros(num_owners, dtype=np.int64)
        metrics.shaded_by_owner = np.zeros(num_owners, dtype=np.int64)
        metrics.passed_by_owner = np.zeros(num_owners, dtype=np.int64)
    if artifact.num_triangles == 0:
        return metrics

    xy, depth, colors = artifact.xy, artifact.depth, artifact.colors
    live = artifact.live
    state = draw.state
    target = surfaces.render_target(state.render_target)
    depth_buf = surfaces.depth_buffer(state.depth_buffer)
    shader = shaders.shader_for(draw.texture_id)
    retain = retained_cull_fraction
    if retain > 0.0 and rng is None:
        rng = np.random.default_rng(0)

    for tri in range(artifact.num_triangles):
        if not live[tri]:
            continue
        frags = rasterize_triangle(xy[tri], depth[tri], colors[tri],
                                   width, height)
        if frags.count == 0:
            continue
        metrics.triangles_rasterized += 1
        if owner_mask is not None:
            frags = frags.select(owner_mask[frags.ys, frags.xs])
            if frags.count == 0:
                continue
        metrics.fragments_generated += frags.count
        owners = (owner_map[frags.ys, frags.xs]
                  if owner_map is not None else None)
        if owners is not None:
            metrics.generated_by_owner += np.bincount(
                owners, minlength=num_owners)

        current = depth_buf[frags.ys, frags.xs]
        if state.early_z:
            passed = depth_test(state.depth_func, frags.depths, current)
            metrics.early_z_tested += frags.count
            n_passed = int(passed.sum())
            metrics.early_z_passed += n_passed
            if owners is not None:
                passed_counts = np.bincount(owners[passed],
                                            minlength=num_owners)
                metrics.passed_by_owner += passed_counts
                metrics.shaded_by_owner += passed_counts
            shaded_mask = passed
            if retain > 0.0:
                # Fig 16: a fraction of culled fragments still get shaded
                # (but never written), inflating fragment work.
                failed = ~passed
                keep = rng.random(frags.count) < retain
                extra = int((failed & keep).sum())
                metrics.fragments_shaded += extra
            survivors = frags.select(shaded_mask)
            if survivors.count == 0:
                continue
            metrics.fragments_shaded += survivors.count
            shaded = shader.shade(survivors.xs, survivors.ys,
                                  survivors.colors)
            _write(target, depth_buf, survivors, shaded, state,
                   metrics, touched)
        else:
            # Late Z: shade everything, then test.
            metrics.fragments_shaded += frags.count
            shaded = shader.shade(frags.xs, frags.ys, frags.colors)
            passed = depth_test(state.depth_func, frags.depths, current)
            metrics.late_tested += frags.count
            n_passed = int(passed.sum())
            metrics.late_passed += n_passed
            if owners is not None:
                metrics.shaded_by_owner += np.bincount(
                    owners, minlength=num_owners)
                metrics.passed_by_owner += np.bincount(
                    owners[passed], minlength=num_owners)
            survivors = frags.select(passed)
            if survivors.count == 0:
                continue
            _write(target, depth_buf, survivors, shaded[passed],
                   state, metrics, touched)
    return metrics


def _write(target, depth_buf, frags, shaded_colors,
           state, metrics, touched) -> None:
    """Blend surviving fragments into the render target."""
    ys, xs = frags.ys, frags.xs
    if state.blend_op is BlendOp.REPLACE:
        target.color[ys, xs] = shaded_colors
    else:
        target.color[ys, xs] = blend(
            state.blend_op, target.color[ys, xs], shaded_colors)
    if state.depth_write:
        depth_buf[ys, xs] = frags.depths
    if touched is not None:
        touched[ys, xs] = True
    metrics.pixels_written += frags.count
