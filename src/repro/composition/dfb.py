"""Distributed FrameBuffer composition: tile-granular asynchronous reduction.

Instead of exchanging whole sub-images at group boundaries, a DFB scheme
streams each GPU's sub-image as fixed-size screen tiles to the tiles'
owners the moment rendering finishes. The owner folds arriving tiles into
its region of the distributed framebuffer as they land:

- **opaque** groups reduce in *any* order: per pixel the owner keeps the
  contribution with the lexicographically smallest ``(depth, source)``
  pair, which is exactly the winner index-order :func:`composite_opaque`
  selects — so any tile arrival order reproduces the whole-sub-image
  compositor bit for bit;
- **transparent** groups blend with an associative but *non-commutative*
  operator: a tile may only fold a layer adjacent (among the layers that
  actually touch that tile) to the contiguous span already accumulated.

The functional image is the whole-sub-image compositor's, so the scheme
only needs this module's tile-message planning; the timing side (tile
messages contending on the interconnect) lives in :mod:`repro.sfr.dfb`.
The tile-by-tile reducers that prove both order claims are test oracles
(``tests/oracles/tile_reducers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TileMessage:
    """One tile's worth of sub-image payload bound for the tile's owner."""

    src: int
    dst: int
    tx: int
    ty: int
    pixels: int


def plan_group_tiles(touched_tiles: Sequence[np.ndarray],
                     tile_pixels: np.ndarray,
                     tile_owner: np.ndarray,
                     ) -> Tuple[List[List[TileMessage]], List[int]]:
    """Tile messages for one opaque group's composition.

    ``touched_tiles[src]`` is the (tiles_y, tiles_x) bool bitmap of tiles
    GPU ``src`` rendered into; ``tile_pixels``/``tile_owner`` give each
    tile's pixel area and owning GPU. Returns ``(sends, recv_counts)``:
    per-source messages in raster order (tiles a GPU owns itself never
    travel) and the number of messages each GPU will receive — the latch
    count the timing pass arms before any tile is in flight.
    """
    n = len(touched_tiles)
    tiles_y, tiles_x = tile_owner.shape
    sends: List[List[TileMessage]] = [[] for _ in range(n)]
    recv_counts = [0 for _ in range(n)]
    for src in range(n):
        bitmap = touched_tiles[src]
        for ty in range(tiles_y):
            for tx in range(tiles_x):
                if not bitmap[ty, tx]:
                    continue
                dst = int(tile_owner[ty, tx])
                if dst == src:
                    continue
                sends[src].append(TileMessage(
                    src=src, dst=dst, tx=tx, ty=ty,
                    pixels=int(tile_pixels[ty, tx])))
                recv_counts[dst] += 1
    return sends, recv_counts


def tree_edge_tile_sizes(tree_levels: Sequence[Sequence[Tuple[int, int, int]]],
                         leaf_bitmaps: Mapping[int, np.ndarray],
                         tile_pixels: np.ndarray) -> List[List[List[int]]]:
    """Per-tile pixel sizes of every reduction-tree edge's tile stream.

    Replays the adjacent-pair merge over the leaves' touched-tile bitmaps
    (union at each receiver — exactly how the tree's edge pixel counts were
    derived), returning, parallel to ``tree_levels``, the raster-order list
    of tile pixel counts each edge streams. The per-edge sum equals the
    edge's recorded whole-message pixel count.
    """
    current = {m: np.array(b, dtype=bool, copy=True)
               for m, b in leaf_bitmaps.items()}
    streams: List[List[List[int]]] = []
    for level in tree_levels:
        level_streams: List[List[int]] = []
        for sender, receiver, _pixels in level:
            bitmap = current[sender]
            # boolean indexing yields the touched tiles in raster order
            level_streams.append(tile_pixels[bitmap].tolist())
            current[receiver] = current[receiver] | bitmap
        streams.append(level_streams)
    return streams
