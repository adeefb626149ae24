"""Phase artifacts: what the geometry phase produces, what counts come out.

The functional pipeline used to be one monolithic ``execute_draw``. It is
now split at the geometry/rasterization boundary (the same cut Molnar's
taxonomy and the paper's Fig 1(b) draw):

- the **geometry phase** (transform, near clip, frustum cull, screen
  mapping, tile binning) depends only on the draw's vertices and the
  camera — *not* on which GPU renders it, the tile split, or the depth
  history — so its output is captured here as a :class:`DrawArtifact`
  and cached content-addressed across schemes, GPU counts and link
  configs;
- the **fragment phase** (rasterize, depth test, shade, blend) is
  subset-dependent (each GPU sees its own depth history) and stays live;
  it consumes an artifact instead of redoing the geometry math.

:class:`DrawMetrics` and :class:`GroupMetrics` live here too: they are
the per-draw functional counts every timing model and paper figure is
built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class DrawMetrics:
    """Functional counts for one executed draw command."""

    draw_id: int = -1
    triangles_submitted: int = 0      # unit: triangles
    triangles_culled: int = 0         # unit: triangles
    triangles_rasterized: int = 0     # unit: triangles
    fragments_generated: int = 0      # unit: fragments
    early_z_tested: int = 0           # unit: fragments
    early_z_passed: int = 0           # unit: fragments
    late_tested: int = 0              # unit: fragments
    late_passed: int = 0              # unit: fragments
    fragments_shaded: int = 0         # unit: fragments
    pixels_written: int = 0           # unit: pixels
    #: optional per-owner-GPU attribution (filled when owner_map is given)
    generated_by_owner: Optional[np.ndarray] = None
    shaded_by_owner: Optional[np.ndarray] = None
    passed_by_owner: Optional[np.ndarray] = None

    @property
    def fragments_passed(self) -> int:
        """Fragments surviving any depth/stencil test (paper Fig 15)."""
        return self.early_z_passed + self.late_passed

    def merge(self, other: "DrawMetrics") -> None:
        for name in ("triangles_submitted", "triangles_culled",
                     "triangles_rasterized", "fragments_generated",
                     "early_z_tested", "early_z_passed", "late_tested",
                     "late_passed", "fragments_shaded", "pixels_written"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in ("generated_by_owner", "shaded_by_owner",
                     "passed_by_owner"):
            theirs = getattr(other, name)
            if theirs is None:
                continue
            mine = getattr(self, name)
            if mine is None:
                setattr(self, name, theirs.copy())
            else:
                mine += theirs


@dataclass
class GroupMetrics:
    """Accumulated :class:`DrawMetrics` over a composition group or frame."""

    totals: DrawMetrics = field(default_factory=DrawMetrics)
    draws: int = 0

    def add(self, metrics: DrawMetrics) -> None:
        self.totals.merge(metrics)
        self.draws += 1


@dataclass
class DrawArtifact:
    """Geometry-phase output for one draw at one resolution.

    Everything downstream of the geometry stage needs: screen-space
    triangles with interpolation attributes, the cull/clip counts the
    metrics start from, and which triangles can produce fragments.
    Assignment-independent by construction — the same artifact serves
    every scheme, GPU count and draw subset at this resolution.
    """

    #: input triangle count of the draw (before clip/cull)
    triangles_submitted: int          # unit: triangles
    #: triangles removed by the near clip / frustum cull
    triangles_culled: int             # unit: triangles
    #: (T, 3, 2) float32 screen-space vertex positions of the survivors
    xy: np.ndarray
    #: (T, 3) float32 per-vertex depth
    depth: np.ndarray
    #: (T, 3, 4) float32 per-vertex RGBA (post near-clip interpolation)
    colors: np.ndarray
    #: (T,) bool — triangle has a non-empty clamped pixel bbox and
    #: non-zero area. The fragment phase hands it to
    #: :func:`~repro.raster.rasterizer.rasterize_triangles`, which
    #: rasterizes only the True triangles (False ones would produce no
    #: fragments anyway) in one batch per draw
    live: np.ndarray

    @property
    def num_triangles(self) -> int:
        """Post-cull triangle count carried to the fragment phase."""
        return int(self.xy.shape[0])

    @property
    def nbytes(self) -> int:
        """In-memory footprint, for the store's byte-budget accounting."""
        return int(self.xy.nbytes + self.depth.nbytes + self.colors.nbytes
                   + self.live.nbytes)


def empty_artifact(triangles_submitted: int,
                   triangles_culled: int = 0) -> DrawArtifact:
    """Artifact of a draw whose geometry phase produced no triangles."""
    return DrawArtifact(
        triangles_submitted=triangles_submitted,
        triangles_culled=triangles_culled,
        xy=np.empty((0, 3, 2), dtype=np.float32),
        depth=np.empty((0, 3), dtype=np.float32),
        colors=np.empty((0, 3, 4), dtype=np.float32),
        live=np.empty(0, dtype=bool),
    )
