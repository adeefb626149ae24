"""The two functional phases: geometry (cacheable) and fragment (live).

``geometry_phase`` is the assignment-independent front half of
rendering a draw: transform, near clip, frustum cull, perspective
divide, screen mapping, and tile binning, producing a
:class:`~repro.render.artifact.DrawArtifact`. Its output depends on its
four arguments only, which is what lets the artifact store key it on
exactly them (:meth:`~repro.render.service.RenderService.memo`) and
share it across schemes, GPU counts, subsets and fault plans.

``fragment_phase`` is the back half: rasterization, early/late depth
testing, shading and blending of one artifact against a surface pool.
It is subset-dependent (the bound depth buffer encodes which draws this
GPU has seen) so it always runs live. One
:func:`~repro.raster.rasterizer.rasterize_triangles` call turns the
artifact's ``live`` triangles into a single fragment stream in
submission order.

Count semantics are those of rendering the triangles one at a time, in
submission order, bit for bit. The fragment stream is cut into *rank
layers*: layer r holds each fragment that is the r-th to land on its
pixel. A layer's pixels are distinct, so one vectorized depth test,
shade and blend per layer leaves every pixel as the in-order loop
would, for every depth function, blend operator, early/late Z and
depth write. The counters are sums over fragments, so the processing
order does not move them. ``triangles_rasterized`` counts triangles
that produced at least one fragment before owner masking; fragment
counts are taken after it. Under early Z, the Fig 16 retained-cull RNG
draws once per owned fragment, in one ``rng.random(n)`` call per draw
in submission order; per-triangle calls in that order draw the same
stream, so the Fig 16 outputs do not depend on the batching.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from ..composition.operators import blend
from ..framebuffer.depth import depth_test
from ..framebuffer.framebuffer import SurfacePool
from ..geometry.clipping import clip_near_plane, frustum_cull_mask
from ..geometry.primitives import BlendOp, DrawCommand
from ..geometry.transform import (perspective_divide, to_screen,
                                  transform_positions, triangle_screen_bounds)
from ..shading.shaders import ShaderLibrary
from ..raster.rasterizer import rasterize_triangles
from .artifact import DrawArtifact, DrawMetrics, empty_artifact

#: channel offsets of one RGBA pixel in a flat (H * W * 4) color index
_RGBA = np.arange(4)


class Camera:
    """A trace's view-projection matrix plus its content address.

    ``matrix=None`` means the draws are already in clip space (identity
    transform). ``fingerprint`` lets the artifact store key a geometry
    artifact on the camera (see :meth:`RenderService.memo`).
    """

    __slots__ = ("matrix", "fingerprint")

    def __init__(self, matrix: Optional[np.ndarray]) -> None:
        self.matrix = matrix
        self.fingerprint = "ndc" if matrix is None else hashlib.sha256(
            np.ascontiguousarray(matrix).tobytes()).hexdigest()


def geometry_phase(draw: DrawCommand, camera: Camera,
                   width: int, height: int) -> DrawArtifact:
    """Run the geometry stage of one draw command.

    The result depends on its four arguments and nothing else, which is
    what lets :meth:`RenderService.memo` key the artifact on exactly
    them: ``width``/``height`` fix the screen mapping.
    """
    if draw.num_triangles == 0:
        return empty_artifact(0)
    mvp = camera.matrix
    clip = transform_positions(
        draw.positions, mvp if mvp is not None else np.eye(4))
    colors = draw.colors
    if (clip[..., 2] < 0).any():
        clip, colors = clip_near_plane(clip, colors)
    if clip.shape[0] == 0:
        return empty_artifact(draw.num_triangles,
                              triangles_culled=draw.num_triangles)
    culled = frustum_cull_mask(clip)
    num_culled = int(culled.sum())
    clip, colors = clip[~culled], colors[~culled]
    if clip.shape[0] == 0:
        return empty_artifact(draw.num_triangles, triangles_culled=num_culled)

    ndc = perspective_divide(clip)
    xy, depth = to_screen(ndc, width, height)
    return DrawArtifact(
        triangles_submitted=draw.num_triangles,
        triangles_culled=num_culled,
        xy=xy, depth=depth, colors=colors,
        live=_live_mask(xy, width, height),
    )


def _live_mask(xy: np.ndarray, width: int, height: int) -> np.ndarray:
    """Triangles whose rasterization can produce fragments.

    Mirrors the rasterizer's own early-outs exactly (zero signed area, or
    an empty pixel bbox after clamping to the screen), so skipping a
    non-live triangle is observationally identical to rasterizing it.
    """
    bounds = triangle_screen_bounds(xy)
    v0, v1, v2 = xy[:, 0], xy[:, 1], xy[:, 2]
    area = ((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
            - (v1[:, 1] - v0[:, 1]) * (v2[:, 0] - v0[:, 0]))
    x_min = np.maximum(np.floor(bounds[:, 0]), 0.0)
    x_max = np.minimum(np.ceil(bounds[:, 2]), float(width))
    y_min = np.maximum(np.floor(bounds[:, 1]), 0.0)
    y_max = np.minimum(np.ceil(bounds[:, 3]), float(height))
    return (area != 0.0) & (x_min < x_max) & (y_min < y_max)


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

    state = draw.state
    target = surfaces.render_target(state.render_target)
    depth_buf = surfaces.depth_buffer(state.depth_buffer)
    shader = shaders.shader_for(draw.texture_id)
    tri, xs, ys, depths, colors = rasterize_triangles(
        artifact.xy, artifact.depth, artifact.colors, artifact.live,
        width, height)
    if tri.size == 0:
        return metrics
    metrics.triangles_rasterized = \
        int(np.count_nonzero(tri[1:] != tri[:-1])) + 1
    pixels = ys.astype(np.int64) * width + xs
    if owner_mask is not None:
        mine = owner_mask.take(pixels)
        xs, ys, pixels = xs[mine], ys[mine], pixels[mine]
        depths, colors = depths[mine], colors[mine]
        if xs.size == 0:
            return metrics
    metrics.fragments_generated = xs.size
    owners = owner_map.take(pixels) if owner_map is not None else None
    if owners is not None:
        metrics.generated_by_owner += np.bincount(owners,
                                                  minlength=num_owners)

    retained = None
    if state.early_z and retained_cull_fraction > 0.0:
        # Fig 16: a fraction of culled fragments still get shaded (but
        # never written), inflating fragment work. One draw per fragment
        # in submission order (see the module docstring).
        if rng is None:
            rng = np.random.default_rng(0)
        retained = rng.random(xs.size) < retained_cull_fraction

    order, layer_sizes = _rank_layers(pixels)
    if order is not None:
        xs, ys, pixels = xs.take(order), ys.take(order), pixels.take(order)
        depths, colors = depths.take(order), colors.take(order, axis=0)
        if owners is not None:
            owners = owners.take(order)
        if retained is not None:
            retained = retained.take(order)
    hi = 0
    for size in layer_sizes:
        # one rank layer: distinct pixels, so one vectorized step has the
        # sequential loop's effect on each of them
        lo, hi = hi, hi + size
        lpixels, ldepths = pixels[lo:hi], depths[lo:hi]
        lowners = owners[lo:hi] if owners is not None else None
        passed = depth_test(state.depth_func, ldepths,
                            depth_buf.take(lpixels))
        n_passed = int(np.count_nonzero(passed))
        if state.early_z:
            metrics.early_z_tested += size
            metrics.early_z_passed += n_passed
            if lowners is not None:
                passed_counts = np.bincount(lowners[passed],
                                            minlength=num_owners)
                metrics.passed_by_owner += passed_counts
                metrics.shaded_by_owner += passed_counts
            if retained is not None:
                metrics.fragments_shaded += int(
                    np.count_nonzero(~passed & retained[lo:hi]))
            if n_passed == 0:
                continue
            metrics.fragments_shaded += n_passed
            shaded = shader.shade(xs[lo:hi][passed], ys[lo:hi][passed],
                                  colors[lo:hi][passed])
        else:
            # Late Z: shade everything, then test.
            metrics.fragments_shaded += size
            shaded = shader.shade(xs[lo:hi], ys[lo:hi], colors[lo:hi])
            metrics.late_tested += size
            metrics.late_passed += n_passed
            if lowners is not None:
                metrics.shaded_by_owner += np.bincount(
                    lowners, minlength=num_owners)
                metrics.passed_by_owner += np.bincount(
                    lowners[passed], minlength=num_owners)
            if n_passed == 0:
                continue
            shaded = shaded[passed]
        _write(target, depth_buf, lpixels[passed], ldepths[passed], shaded,
               state, metrics, touched)
    return metrics


def _rank_layers(pixels: np.ndarray) -> tuple:
    """Group fragments into layers by their occurrence rank on a pixel.

    ``pixels`` holds each fragment's flat pixel index in submission
    order. Returns ``(order, sizes)``: taken in ``order``, the fragments
    fall into consecutive layers of the given sizes, and layer r holds
    every fragment that is the r-th to land on its pixel, so pixels
    within a layer are distinct. ``order`` is None when every pixel is
    hit once: one layer, in submission order.
    """
    by_pixel = pixels.argsort(kind="stable")
    sorted_pixels = pixels.take(by_pixel)
    repeat = sorted_pixels[1:] == sorted_pixels[:-1]
    if not repeat.any():
        return None, [pixels.size]
    # rank = position - position of the first fragment on the same pixel
    position = np.arange(pixels.size)
    first = position.copy()
    first[1:][repeat] = 0
    rank = position - np.maximum.accumulate(first)
    return by_pixel.take(rank.argsort(kind="stable")), \
        np.bincount(rank).tolist()


def _write(target, depth_buf, pixels, depths,
           shaded_colors, state, metrics, touched) -> None:
    """Blend surviving fragments into the render target.

    ``pixels`` are flat (y * width + x) indices; ``put``/``take`` address
    any memory layout in that logical order.
    """
    texels = pixels[:, None] * 4 + _RGBA
    if state.blend_op is BlendOp.REPLACE:
        target.color.put(texels, shaded_colors)
    else:
        target.color.put(texels, blend(
            state.blend_op, target.color.take(texels), shaded_colors))
    if state.depth_write:
        depth_buf.put(pixels, depths)
    if touched is not None:
        touched.put(pixels, True)
    metrics.pixels_written += pixels.size
