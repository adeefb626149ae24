"""DFB: CHOPIN with a Distributed FrameBuffer tile-streaming compositor.

The ``dfb`` scheme keeps CHOPIN's grouping, draw scheduling and functional
pipeline but replaces the composition transport: instead of exchanging
whole per-region sub-image messages at the group boundary (naive
direct-send gated on receiver readiness, or the §IV-E pairing scheduler),
each GPU streams its sub-image as fixed-size screen tiles straight to the
tiles' owners the moment rendering finishes.

- No receiver gating and no pairing handshake: a tile message departs as
  soon as the sender's sub-image is done and contends only for link ports.
  The owner folds tiles in *arrival order* — sound for opaque groups
  because the per-pixel ``(depth, source)`` argmin reduction is
  order-independent and bit-identical to the sequential compositor.
- Transparent groups keep the adjacent-pair reduction tree (blending is
  not commutative) but every tree edge streams its payload one tile at a
  time, and a tile may only fold a layer adjacent to the span already
  folded.
- The cost model bills one interconnect head latency per tile message
  (messages serialize on the sender's egress port), which is the price DFB
  pays for composing without any scheduling hardware.
- Fail-stop repair folds the dead GPUs' touched-tile bitmaps onto their
  re-rendering inheritors and re-owns their framebuffer tiles — the
  tile-granular analogue of the region-matrix repair, and strictly more
  precise (overlapping tiles stream once, not twice).

The timing pass is CHOPIN's own; this scheme only selects the
:class:`~repro.sfr.transport.TileStreaming` transport, which plans its
tile messages with :mod:`repro.composition.dfb`. The functional image is
the whole-sub-image compositor's; the tile-by-tile reducers that show
both order claims are test oracles.
"""

from __future__ import annotations

from .chopin import Chopin
from .transport import TileStreaming


class DistributedFramebufferChopin(Chopin):
    """CHOPIN variant composing via asynchronous per-tile streaming."""

    name = "dfb"
    transport = TileStreaming
