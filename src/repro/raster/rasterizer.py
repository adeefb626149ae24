"""Triangle rasterization: screen-space triangles -> fragments.

A vectorized barycentric rasterizer with the conventional top-left fill rule,
so shared edges between triangles are covered exactly once (this matters for
transparent draws, where double-hitting an edge pixel would blend it twice).

:func:`rasterize_triangles` rasterizes every live triangle of a draw in one
pass. Fragments come back as flat parallel arrays (triangle, x, y, depth,
rgba) in triangle-major, row-major order; the fragment phase applies depth
testing, shading and blending.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: vertex permutations that flip / keep triangle winding, picked per
#: triangle with ``np.where``
_WINDING_SWAP = np.array([0, 2, 1])
_WINDING_KEEP = np.array([0, 1, 2])

#: edge i runs from vertex _EDGE_FROM[i] to _EDGE_TO[i]; edge i is the one
#: opposite vertex i, so its edge function is vertex i's barycentric weight
_EDGE_FROM = np.array([1, 2, 0])
_EDGE_TO = np.array([2, 0, 1])

#: bbox pixels tested per chunk. Each carries ~150 bytes of temporaries, so
#: this bounds them at ~40 MB however large the triangles are. Chunks are
#: cut at triangle boundaries; a triangle whose bbox alone exceeds the
#: budget gets chunks of its own, one per band of whole rows.
_CHUNK_CANDIDATES = 1 << 18


#: what a draw without fragments rasterizes to (empty, so safe to share)
_NO_FRAGMENTS = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int32),
                 np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float32),
                 np.empty((0, 4), dtype=np.float32))

Fragments = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _edge(ax, ay, bx, by, px, py):
    """Signed edge function: >0 when (px,py) is left of a->b (y-down CCW)."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def rasterize_triangles(xy: np.ndarray, depth: np.ndarray,
                        colors: np.ndarray, live: np.ndarray,
                        width: int, height: int) -> Fragments:
    """Rasterize the ``live`` triangles of one draw in a single pass.

    ``xy`` is (T, 3, 2) float32 pixel coordinates, ``depth`` (T, 3) and
    ``colors`` (T, 3, 4) the per-vertex attributes, ``live`` a (T,) bool
    mask of the triangles to rasterize (the others produce nothing).
    Attributes are interpolated linearly in screen space.

    Returns ``(tri, xs, ys, depths, colors)``: for each covered on-screen
    pixel, the index of its triangle in ``xy``, the int32 pixel
    coordinates, the float32 depth and the (N, 4) float32 RGBA. The order
    is triangle-major, then row-major within a triangle. Every value is
    computed with the same float32 operations, in the same order, as
    rasterizing each triangle on its own.
    """
    tris = live.nonzero()[0]
    corners = xy.take(tris, axis=0)
    area = _edge(corners[:, 0, 0], corners[:, 0, 1],
                 corners[:, 1, 0], corners[:, 1, 1],
                 corners[:, 2, 0], corners[:, 2, 1])
    lo = np.maximum(np.floor(corners.min(axis=1)), 0.0)
    hi = np.minimum(np.ceil(corners.max(axis=1)), (width, height))
    ok = ((area != 0.0) & (lo < hi).all(axis=1)).nonzero()[0]
    if ok.size == 0:
        return _NO_FRAGMENTS
    tris, area = tris.take(ok), area.take(ok)
    lo, hi = lo.take(ok, axis=0), hi.take(ok, axis=0)
    # Normalize winding so the inside test is uniform.
    vertex = tris[:, None] * 3 + np.where((area < 0.0)[:, None],
                                          _WINDING_SWAP, _WINDING_KEEP)
    corners = xy.reshape(-1, 2).take(vertex, axis=0).transpose(2, 1, 0)
    start = corners.take(_EDGE_FROM, axis=1)      # (xy, edge, tri)
    end = corners.take(_EDGE_TO, axis=1)
    edges = np.concatenate((start, end))             # ax, ay, bx, by
    # Top-left rule: an edge that goes down (y grows downward), or is
    # horizontal with bx < ax, includes its w == 0 pixels.
    top_left = (end[1] > start[1]) \
        | ((end[1] == start[1]) & (end[0] < start[0]))
    origin = lo.astype(np.int64)
    boxes = np.concatenate((origin, hi.astype(np.int64) - origin), axis=1)
    per_tri = (tris, np.abs(area), depth.reshape(-1).take(vertex),
               colors.reshape(-1, 4).take(vertex, axis=0)
               .transpose(1, 0, 2), edges, top_left)

    counts = boxes[:, 2] * boxes[:, 3]
    ends = counts.cumsum()
    parts = []
    first = 0
    while first < tris.size:
        done = int(ends[first - 1]) if first else 0
        last = max(int(ends.searchsorted(done + _CHUNK_CANDIDATES,
                                         side="right")), first + 1)
        box = boxes[first:last]
        if counts[first] <= _CHUNK_CANDIDATES:
            parts.append(_rasterize_span(per_tri, first, last, box))
        else:
            # one triangle whose bbox alone exceeds the budget: split it
            # into bands of whole rows, which keeps the row-major order
            box_x, box_y, box_w, box_h = box[0].tolist()
            rows = max(_CHUNK_CANDIDATES // box_w, 1)
            for top in range(box_y, box_y + box_h, rows):
                band = box.copy()
                band[0, 1] = top
                band[0, 3] = min(rows, box_y + box_h - top)
                parts.append(_rasterize_span(per_tri, first, last, band))
        first = last
    if len(parts) == 1:
        return parts[0]
    tri, xs, ys, depths, rgba = zip(*parts)
    return (np.concatenate(tri), np.concatenate(xs), np.concatenate(ys),
            np.concatenate(depths), np.concatenate(rgba))


def _rasterize_span(per_tri, first: int, last: int,
                    boxes: np.ndarray) -> Fragments:
    """Fragments of the prepared triangles ``first:last`` (one chunk).

    ``boxes`` holds their pixel boxes as rows of [x0, y0, width, height].
    """
    tris, area, depth, colors, edges, top_left = per_tri
    tris, area, depth = tris[first:last], area[first:last], depth[first:last]
    colors, edges = colors[:, first:last], edges[:, :, first:last]
    top_left = top_left[:, first:last]

    # one candidate per bbox pixel, triangle-major then row-major
    counts = boxes[:, 2] * boxes[:, 3]
    local = np.arange(last - first).repeat(counts)
    offset = np.arange(local.size) - (counts.cumsum() - counts).take(local)
    box_w = boxes[:, 2].take(local)
    row = offset // box_w
    xs = boxes[:, 0].take(local) + (offset - row * box_w)
    ys = boxes[:, 1].take(local) + row

    ax, ay, bx, by = edges.take(local, axis=2)
    w = _edge(ax, ay, bx, by, xs.astype(np.float32) + 0.5,
              ys.astype(np.float32) + 0.5)
    inside = (w > 0) | ((w == 0) & top_left.take(local, axis=1))
    keep = (inside[0] & inside[1] & inside[2]).nonzero()[0]
    local = local.take(keep)

    b = w.take(keep, axis=1) / area.take(local)
    d = depth.take(local, axis=0)
    c = colors.take(local, axis=1)
    frag_depth = (b[0] * d[:, 0] + b[1] * d[:, 1] + b[2] * d[:, 2]) \
        .astype(np.float32, copy=False)
    frag_color = (b[0, :, None] * c[0] + b[1, :, None] * c[1]
                  + b[2, :, None] * c[2]).astype(np.float32, copy=False)
    return (tris.take(local), xs.take(keep).astype(np.int32),
            ys.take(keep).astype(np.int32), frag_depth, frag_color)


def estimate_coverage(xy: np.ndarray, width: int, height: int) -> float:
    """Cheap area-based fragment-count estimate for one triangle.

    Used by timing-only paths that do not need exact per-pixel coverage
    (e.g., GPUpd's projection phase cost model).
    """
    v0, v1, v2 = xy[0], xy[1], xy[2]
    area = abs(_edge(v0[0], v0[1], v1[0], v1[1], v2[0], v2[1])) * 0.5
    # Clamp to the screen bounding box overlap fraction.
    bbox = (max(min(v0[0], v1[0], v2[0]), 0), max(min(v0[1], v1[1], v2[1]), 0),
            min(max(v0[0], v1[0], v2[0]), width),
            min(max(v0[1], v1[1], v2[1]), height))
    if bbox[0] >= bbox[2] or bbox[1] >= bbox[3]:
        return 0.0
    full = ((max(v0[0], v1[0], v2[0]) - min(v0[0], v1[0], v2[0]))
            * (max(v0[1], v1[1], v2[1]) - min(v0[1], v1[1], v2[1])))
    if full == 0.0:
        return 0.0
    overlap = (bbox[2] - bbox[0]) * (bbox[3] - bbox[1])
    return float(area * overlap / full)
