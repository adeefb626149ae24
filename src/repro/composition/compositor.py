"""Sub-image composition: the reduction at the heart of CHOPIN.

A :class:`SubImage` is what one GPU produces for a composition group: colour,
depth, and a touched-pixel mask. Two reduction flavours exist (paper
section III-B / Fig 7):

- **opaque** groups reduce by depth selection — commutative, so any order and
  any pairing works (`composite_opaque`);
- **transparent** groups reduce by an associative blend that must respect the
  GPU (= draw) order; associativity still allows *adjacent pairs* to combine
  asynchronously (`composite_transparent_tree`), which is what CHOPIN's
  composition scheduler exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import CompositionError
from ..framebuffer.depth import DEPTH_CLEAR
from ..framebuffer.framebuffer import Framebuffer
from ..geometry.primitives import BlendOp
from .operators import blend, identity_for


@dataclass
class SubImage:
    """One GPU's rendering of a composition group over the full screen."""

    color: np.ndarray                 # (H, W, 4) float32
    depth: np.ndarray                 # (H, W) float32
    touched: np.ndarray               # (H, W) bool — pixels any draw wrote

    @classmethod
    def blank(cls, width: int, height: int,
              op: BlendOp = BlendOp.OVER) -> "SubImage":
        """An identity sub-image (contributes nothing under ``op``)."""
        color = np.broadcast_to(identity_for(op), (height, width, 4)).copy()
        return cls(color=color,
                   depth=np.full((height, width), DEPTH_CLEAR, np.float32),
                   touched=np.zeros((height, width), dtype=bool))

    @property
    def shape(self) -> tuple:
        return self.depth.shape


def _check_shapes(images: Sequence[SubImage]) -> None:
    if not images:
        raise CompositionError("cannot compose zero sub-images")
    shape = images[0].shape
    for img in images[1:]:
        if img.shape != shape:
            raise CompositionError("sub-image shapes differ")


def depth_merge(a: SubImage, b: SubImage) -> SubImage:
    """Merge two opaque sub-images: per pixel, keep the closer fragment.

    Commutative and associative — the out-of-order reduction of Fig 7 step 7.
    Untouched pixels never win against touched ones even at equal depth.
    """
    if a.shape != b.shape:
        raise CompositionError("sub-image shapes differ")
    # b wins where it drew and is strictly closer (or a never drew). An
    # untouched side never wins: its depth may hold stale pre-group values.
    b_wins = b.touched & ((b.depth < a.depth) | ~a.touched)
    color = np.where(b_wins[..., None], b.color, a.color)
    depth = np.where(b_wins, b.depth, a.depth)
    return SubImage(color=color.astype(np.float32),
                    depth=depth.astype(np.float32),
                    touched=a.touched | b.touched)


def composite_opaque(images: Sequence[SubImage],
                     order: Optional[Sequence[int]] = None) -> SubImage:
    """Reduce opaque sub-images (in any ``order``; the result is identical)."""
    _check_shapes(images)
    indices = list(order) if order is not None else list(range(len(images)))
    result = images[indices[0]]
    for i in indices[1:]:
        result = depth_merge(result, images[i])
    return result


def blend_merge(front: SubImage, back: SubImage, op: BlendOp) -> SubImage:
    """Combine two *adjacent* transparent sub-images.

    ``front`` holds draws that come earlier in submission order. With
    back-to-front submission (the convention for transparency), earlier draws
    are composited first, so the pair reduces as
    ``blend(op, old=front, new=back)``.
    """
    if front.shape != back.shape:
        raise CompositionError("sub-image shapes differ")
    color = blend(op, front.color, back.color)
    return SubImage(color=color,
                    depth=np.minimum(front.depth, back.depth),
                    touched=front.touched | back.touched)


def composite_transparent(images: Sequence[SubImage],
                          op: BlendOp = BlendOp.OVER) -> SubImage:
    """Sequential in-order reduction of transparent sub-images."""
    _check_shapes(images)
    result = images[0]
    for img in images[1:]:
        result = blend_merge(result, img, op)
    return result


def composite_transparent_tree(images: Sequence[SubImage],
                               op: BlendOp = BlendOp.OVER) -> SubImage:
    """Pairwise (adjacent) tree reduction — the associative schedule.

    Produces the same image as :func:`composite_transparent` up to floating
    point, while allowing independent pairs to combine in parallel. This is
    the asynchronous adjacent-composition CHOPIN performs (section III-B).
    """
    _check_shapes(images)
    level: List[SubImage] = list(images)
    while len(level) > 1:
        merged: List[SubImage] = []
        for i in range(0, len(level) - 1, 2):
            merged.append(blend_merge(level[i], level[i + 1], op))
        if len(level) % 2 == 1:
            merged.append(level[-1])
        level = merged
    return level[0]


def resolve_to_background(color: np.ndarray, depth: np.ndarray,
                          composed: SubImage, op: BlendOp,
                          depth_write: bool = True) -> None:
    """Merge a composed group image into background surfaces, in place.

    For opaque groups this is a depth-tested write; for transparent groups
    the composed layer blends over the background exactly once — the reason
    CHOPIN allocates separate render targets for transparent groups (Fig 7
    step 3: blending per sub-image would hit the background N times).
    """
    if color.shape[:2] != composed.shape or depth.shape != composed.shape:
        raise CompositionError("background / sub-image size mismatch")
    if op is BlendOp.REPLACE:
        wins = composed.touched & (composed.depth < depth)
        color[wins] = composed.color[wins]
        if depth_write:
            depth[wins] = composed.depth[wins]
    else:
        touched = composed.touched
        color[touched] = blend(op, color[touched], composed.color[touched])


def resolve_to_framebuffer(background: Framebuffer, composed: SubImage,
                           op: BlendOp) -> None:
    """Convenience wrapper of :func:`resolve_to_background` for a
    :class:`~repro.framebuffer.framebuffer.Framebuffer`."""
    resolve_to_background(background.color, background.depth, composed, op)
