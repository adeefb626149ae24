"""Tile-by-tile DFB reducers: the order-independence oracle.

The DFB scheme (:mod:`repro.sfr.dfb`) streams sub-images tile by tile
but takes its functional image from the whole-sub-image compositor.
These reducers fold the tiles one at a time instead, so the tests can
show that any arrival order of an opaque group, and any tree-adjacent
order of a transparent one, gives that same image bit for bit:

- :class:`OpaqueTileReducer` keeps, per pixel, the contribution with the
  smallest ``(depth, source)`` pair — a pure argmin, hence independent
  of arrival order, and exactly what index-order ``composite_opaque``
  selects (ties break toward the lower GPU index either way);
- :class:`TransparentTileReducer` grows a contiguous span of
  contributing layers per tile and raises a typed
  :class:`~repro.errors.SchedulingError` on an out-of-order arrival —
  DFB must reject the protocol violation rather than mis-blend.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.composition.compositor import SubImage
from repro.composition.operators import blend, identity_for
from repro.errors import CompositionError, SchedulingError
from repro.framebuffer.depth import DEPTH_CLEAR
from repro.geometry.primitives import BlendOp


def all_tile_messages(grid, images: Sequence[SubImage]
                      ) -> List[Tuple[int, int, int]]:
    """Every (src, tx, ty) tile touched by any source, in raster order.

    The canonical full delivery schedule for :class:`OpaqueTileReducer`;
    property tests permute it to exercise arbitrary arrival orders.
    """
    messages: List[Tuple[int, int, int]] = []
    for src, image in enumerate(images):
        for ty in range(grid.tiles_y):
            for tx in range(grid.tiles_x):
                x0, y0, x1, y1 = grid.tile_bounds(tx, ty)
                if image.touched[y0:y1, x0:x1].any():
                    messages.append((src, tx, ty))
    return messages


class OpaqueTileReducer:
    """Any-order tile accumulator for one opaque composition group.

    Per pixel the accumulator keeps the touched contribution with the
    smallest ``(depth, source GPU)`` pair. That selection is a pure argmin,
    hence independent of arrival order, and it coincides with what
    index-order sequential :func:`~repro.composition.compositor
    .composite_opaque` produces (its strict ``<`` keeps the earliest source
    on depth ties) — the bit-identity oracle the DFB scheme is gated on.
    """

    def __init__(self, grid, num_sources: int) -> None:
        if num_sources <= 0:
            raise CompositionError("need at least one sub-image source")
        height, width = grid.height, grid.width
        self.grid = grid
        self.num_sources = num_sources
        self.color = np.zeros((height, width, 4), dtype=np.float32)
        self.depth = np.full((height, width), DEPTH_CLEAR, dtype=np.float32)
        self.touched = np.zeros((height, width), dtype=bool)
        #: winning source per pixel; ``num_sources`` = no contribution yet
        self.winner = np.full((height, width), num_sources, dtype=np.int32)

    def accept(self, src: int, tx: int, ty: int, color: np.ndarray,
               depth: np.ndarray, touched: np.ndarray) -> None:
        """Fold one tile fragment from ``src`` — any order, exactly once."""
        if not 0 <= src < self.num_sources:
            raise CompositionError(f"unknown sub-image source {src}")
        x0, y0, x1, y1 = self.grid.tile_bounds(tx, ty)
        window = (slice(y0, y1), slice(x0, x1))
        acc_depth = self.depth[window]
        acc_touched = self.touched[window]
        acc_winner = self.winner[window]
        wins = touched & (~acc_touched
                          | (depth < acc_depth)
                          | ((depth == acc_depth) & (src < acc_winner)))
        self.color[window][wins] = color[wins]
        acc_depth[wins] = depth[wins]
        acc_winner[wins] = src
        self.touched[window] |= touched

    def accept_subimage_tile(self, src: int, tx: int, ty: int,
                             image: SubImage) -> None:
        """Fold the (tx, ty) tile of a full-screen sub-image."""
        x0, y0, x1, y1 = self.grid.tile_bounds(tx, ty)
        window = (slice(y0, y1), slice(x0, x1))
        self.accept(src, tx, ty, image.color[window], image.depth[window],
                    image.touched[window])

    def result(self) -> SubImage:
        return SubImage(color=self.color, depth=self.depth,
                        touched=self.touched)


def reduce_opaque_tiles(grid, images: Sequence[SubImage],
                        order: Optional[Iterable[Tuple[int, int, int]]] = None,
                        ) -> SubImage:
    """Tile-streamed reduction of full sub-images, in any delivery order.

    ``order`` is a sequence of ``(src, tx, ty)`` deliveries covering every
    touched tile of every source exactly once (default: raster order by
    source). Bit-identical to ``composite_opaque(images)`` regardless of
    the permutation.
    """
    if not images:
        raise CompositionError("cannot compose zero sub-images")
    reducer = OpaqueTileReducer(grid, len(images))
    deliveries = list(order) if order is not None \
        else all_tile_messages(grid, images)
    for src, tx, ty in deliveries:
        reducer.accept_subimage_tile(src, tx, ty, images[src])
    return reducer.result()


class TransparentTileReducer:
    """Tree-adjacent tile accumulator for one transparent group.

    ``layer_tiles[k]`` is the touched-tile bitmap of layer ``k`` (layers
    are submission-order chunks). Blending is associative but not
    commutative, so per tile the accumulator grows a *contiguous span of
    contributing layers*: an arriving layer must be the immediate
    predecessor or successor — among the layers that actually touch the
    tile — of the span already folded. Layers that skip the tile
    contribute the blend identity there, which is why adjacency is judged
    against contributors only. Anything else raises
    :class:`~repro.errors.SchedulingError`.
    """

    def __init__(self, grid, layer_tiles: Sequence[np.ndarray],
                 op: BlendOp = BlendOp.OVER) -> None:
        if not len(layer_tiles):
            raise CompositionError("need at least one layer")
        height, width = grid.height, grid.width
        self.grid = grid
        self.op = op
        self.num_layers = len(layer_tiles)
        self.color = np.broadcast_to(
            identity_for(op), (height, width, 4)).astype(np.float32).copy()
        self.depth = np.full((height, width), DEPTH_CLEAR, dtype=np.float32)
        self.touched = np.zeros((height, width), dtype=bool)
        #: per tile: contributing layers, in submission order
        self._contributors: Dict[Tuple[int, int], List[int]] = {}
        #: per tile: folded contiguous span, as contributor-list indices
        self._spans: Dict[Tuple[int, int], List[int]] = {}
        for layer, bitmap in enumerate(layer_tiles):
            for ty in range(bitmap.shape[0]):
                for tx in range(bitmap.shape[1]):
                    if bitmap[ty, tx]:
                        self._contributors.setdefault(
                            (tx, ty), []).append(layer)

    def accept(self, layer: int, tx: int, ty: int, color: np.ndarray,
               depth: np.ndarray, touched: np.ndarray) -> None:
        """Fold one tile of one layer; must be span-adjacent for the tile."""
        contributors = self._contributors.get((tx, ty), [])
        if layer not in contributors:
            raise SchedulingError(
                f"layer {layer} does not touch tile ({tx}, {ty})")
        rank = contributors.index(layer)
        span = self._spans.get((tx, ty))
        x0, y0, x1, y1 = self.grid.tile_bounds(tx, ty)
        window = (slice(y0, y1), slice(x0, x1))
        if span is None:
            self.color[window] = color
            self._spans[(tx, ty)] = [rank, rank]
        elif rank == span[0] - 1:
            # incoming layer is in front of (earlier than) the span
            self.color[window] = blend(self.op, color, self.color[window])
            span[0] = rank
        elif rank == span[1] + 1:
            # incoming layer is behind (later than) the span
            self.color[window] = blend(self.op, self.color[window], color)
            span[1] = rank
        else:
            raise SchedulingError(
                f"out-of-order tile reduction: tile ({tx}, {ty}) holds "
                f"layers {contributors[span[0]]}..{contributors[span[1]]} "
                f"but layer {layer} arrived (transparent groups must fold "
                f"tree-adjacent layers)")
        self.depth[window] = np.minimum(self.depth[window], depth)
        self.touched[window] |= touched

    def accept_subimage_tile(self, layer: int, tx: int, ty: int,
                             image: SubImage) -> None:
        x0, y0, x1, y1 = self.grid.tile_bounds(tx, ty)
        window = (slice(y0, y1), slice(x0, x1))
        self.accept(layer, tx, ty, image.color[window], image.depth[window],
                    image.touched[window])

    def complete(self) -> bool:
        """Whether every tile folded all of its contributing layers."""
        for tile, contributors in self._contributors.items():
            span = self._spans.get(tile)
            if span is None or span[0] != 0 \
                    or span[1] != len(contributors) - 1:
                return False
        return True

    def result(self) -> SubImage:
        if not self.complete():
            raise SchedulingError(
                "transparent tile reduction is incomplete: some tiles have "
                "unfolded contributing layers")
        return SubImage(color=self.color, depth=self.depth,
                        touched=self.touched)
