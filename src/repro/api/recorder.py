"""A DirectX-style command-recording API (the paper's software layer).

§IV-A extends the graphics API with ``CompGroupStart()`` / ``CompGroupEnd()``
markers that the driver turns into composition groups. This module provides
that programming model: a :class:`CommandRecorder` with familiar state-
setting and draw calls, explicit (optional) composition-group markers, and
a driver-side validator that checks user markers against the boundary rules
(every §IV-A event must split groups — a marker that spans a render-target
switch would corrupt the frame).

    rec = CommandRecorder(width=256, height=256)
    rec.set_render_target(0)
    rec.comp_group_start()
    rec.draw_triangles(positions, colors)
    rec.comp_group_end()
    trace = rec.finish("my-scene")

Traces built this way run through every scheme and the whole harness.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.grouping import boundary_reason, split_into_groups
from ..errors import PipelineError, TraceError
from ..geometry.primitives import (BlendOp, DepthFunc, DrawCommand,
                                   RenderState)
from ..traces.trace import Frame, Trace


class CommandRecorder:
    """Records draw commands and state changes into frames."""

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise TraceError("viewport must be positive")
        self.width = width
        self.height = height
        self._frames: List[Frame] = []
        self._draws: List[DrawCommand] = []
        self._camera = None
        self._state = RenderState()
        self._next_draw_id = 0
        #: explicit CompGroupStart()/CompGroupEnd() ranges, as half-open
        #: index intervals into the current frame's draw list
        self._group_ranges: List[Tuple[int, int]] = []
        self._open_group_start: Optional[int] = None

    # -- state setting -------------------------------------------------------

    def set_camera(self, mvp: np.ndarray) -> None:
        """Set the 4x4 model-view-projection matrix for the whole trace
        (world-space draws; None/unset = geometry is already in NDC)."""
        mvp = np.asarray(mvp, dtype=np.float32)
        if mvp.shape != (4, 4):
            raise TraceError("camera must be a 4x4 matrix")
        self._camera = mvp

    def set_render_target(self, target_id: int,
                          depth_buffer: Optional[int] = None) -> None:
        self._state = RenderState(
            render_target=target_id,
            depth_buffer=target_id if depth_buffer is None else depth_buffer,
            depth_write=self._state.depth_write,
            depth_func=self._state.depth_func,
            blend_op=self._state.blend_op,
            early_z=self._state.early_z)

    def set_depth_func(self, func: DepthFunc) -> None:
        self._replace(depth_func=func)

    def set_blend(self, op: BlendOp) -> None:
        self._replace(blend_op=op)
        if op is not BlendOp.REPLACE:
            self._replace(depth_write=False)

    def _replace(self, **kwargs) -> None:
        from dataclasses import replace
        self._state = replace(self._state, **kwargs)

    # -- composition-group markers (the §IV-A API extension) -----------------

    def comp_group_start(self) -> None:
        """Begin an explicit composition group (CompGroupStart())."""
        if self._open_group_start is not None:
            raise TraceError("composition group already open")
        self._open_group_start = len(self._draws)

    def comp_group_end(self) -> None:
        """End the current composition group (CompGroupEnd())."""
        if self._open_group_start is None:
            raise TraceError("no composition group open")
        self._group_ranges.append((self._open_group_start,
                                   len(self._draws)))
        self._open_group_start = None

    # -- draw calls -----------------------------------------------------------

    def draw_triangles(self, positions: np.ndarray, colors: np.ndarray,
                       vertex_cost: float = 36.0, pixel_cost: float = 110.0,
                       texture_id: Optional[int] = None) -> int:
        """Record one draw command; returns its draw id."""
        draw = DrawCommand(draw_id=self._next_draw_id,
                           positions=positions, colors=colors,
                           state=self._state, vertex_cost=vertex_cost,
                           pixel_cost=pixel_cost, texture_id=texture_id)
        self._draws.append(draw)
        self._next_draw_id += 1
        return draw.draw_id

    def draw_quad(self, x0: float, y0: float, x1: float, y1: float,
                  depth: float, color: Tuple[float, float, float, float],
                  **kwargs) -> int:
        """Record an axis-aligned NDC quad (two triangles)."""
        positions = np.array([
            [[x0, y0, depth], [x1, y0, depth], [x1, y1, depth]],
            [[x0, y0, depth], [x1, y1, depth], [x0, y1, depth]],
        ], dtype=np.float32)
        colors = np.tile(np.asarray(color, dtype=np.float32), (2, 3, 1))
        return self.draw_triangles(positions, colors, **kwargs)

    # -- frame management -------------------------------------------------------

    def end_frame(self) -> None:
        """Swap: close the current frame (§IV-A event 1)."""
        if self._open_group_start is not None:
            raise TraceError("composition group still open at frame end")
        if not self._draws:
            raise TraceError("cannot end an empty frame")
        self.validate_markers()
        self._frames.append(Frame(draws=self._draws))
        self._draws = []
        self._group_ranges = []

    def finish(self, name: str) -> Trace:
        """Close the last frame and build the trace."""
        if self._draws:
            self.end_frame()
        if not self._frames:
            raise TraceError("no frames recorded")
        trace = Trace(name=name, width=self.width, height=self.height,
                      frames=self._frames, camera=self._camera)
        trace.validate()
        return trace

    # -- driver-side marker validation -------------------------------------------

    def validate_markers(self) -> None:
        """Check explicit markers against the §IV-A boundary rules.

        A user-placed group may be *smaller* than the driver's greedy
        grouping, but must never span a mandatory boundary event: draws
        inside one marked group have to share every group-defining state
        field. Raises :class:`PipelineError` naming the offending draws.
        """
        ranges = list(self._group_ranges)
        if self._open_group_start is not None:
            ranges.append((self._open_group_start, len(self._draws)))
        for start, end in ranges:
            for i in range(start + 1, end):
                reason = boundary_reason(self._draws[i - 1], self._draws[i])
                if reason is not None:
                    raise PipelineError(
                        f"composition group spanning draws {start}..{end} "
                        f"crosses a mandatory boundary at draw {i} "
                        f"({reason})")


def driver_groups(trace: Trace):
    """The driver's greedy grouping of a recorded trace (§IV-A)."""
    return split_into_groups(trace.frame)
