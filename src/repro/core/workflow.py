"""Composition-group workflow decisions (paper Fig 7).

For every composition group, CHOPIN decides:

1. if the group has fewer primitives than the composition threshold, revert
   to primitive duplication (the composition cost would dominate the saved
   redundant geometry — background quads are the canonical case);
2. otherwise, if the group is transparent: allocate an extra render target
   per GPU (sub-images cannot blend with the background independently),
   split the primitives evenly and contiguously across GPUs, and compose
   adjacent sub-images asynchronously;
3. otherwise (opaque): schedule draws dynamically and compose out-of-order.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from ..config import SystemConfig
from ..errors import ConfigError
from ..geometry.primitives import DrawCommand
from .draw_scheduler import even_split_by_triangles
from .grouping import CompositionGroup


class GroupMode(enum.Enum):
    """How a composition group executes (the three Fig 7 exits)."""

    DUPLICATE = "duplicate"          # below threshold: conventional SFR
    OPAQUE_PARALLEL = "opaque"       # scheduled draws, out-of-order compose
    TRANSPARENT_PARALLEL = "transparent"  # even split, adjacent compose


@dataclass
class GroupPlan:
    """The resolved execution plan for one composition group."""

    group: CompositionGroup
    mode: GroupMode
    #: contiguous per-GPU draw chunks (transparent mode only)
    chunks: Optional[List[List[DrawCommand]]] = None
    #: whether an extra render target per GPU is required (transparent mode)
    needs_extra_target: bool = False

    @property
    def accelerated(self) -> bool:
        """Whether this group uses parallel image composition."""
        return self.mode is not GroupMode.DUPLICATE


def plan_group(group: CompositionGroup, config: SystemConfig,
               threshold: Optional[int] = None) -> GroupPlan:
    """Apply the Fig 7 workflow to one group."""
    limit = config.composition_threshold if threshold is None else threshold
    return _plan_group(group, config.num_gpus, limit)


def _plan_group(group: CompositionGroup, num_gpus: int,
                limit: int) -> GroupPlan:
    if group.num_triangles < limit:
        return GroupPlan(group=group, mode=GroupMode.DUPLICATE)
    if group.transparent:
        chunks = even_split_by_triangles(group.draws, num_gpus)
        return GroupPlan(group=group, mode=GroupMode.TRANSPARENT_PARALLEL,
                         chunks=chunks, needs_extra_target=True)
    from ..framebuffer.depth import is_order_independent
    if not group.depth_write or not is_order_independent(group.depth_func):
        # Without recorded depth (or with an order-dependent test like
        # EQUAL), opaque sub-images cannot be depth-composited out of order;
        # fall back to conventional duplication for safety.
        return GroupPlan(group=group, mode=GroupMode.DUPLICATE)
    return GroupPlan(group=group, mode=GroupMode.OPAQUE_PARALLEL)


def plan_frame(groups: List[CompositionGroup], config: SystemConfig,
               threshold: Optional[int] = None) -> List[GroupPlan]:
    """Plan every group of a frame."""
    return [plan_group(g, config, threshold) for g in groups]


def plan_trace_frame(trace, config: SystemConfig,
                     threshold: Optional[int] = None) -> List[GroupPlan]:
    """Group and plan a trace's frame, via the render service's store.

    The grouping + Fig 7 decisions depend only on the trace content, the
    GPU count and the composition threshold, so the plan is a cacheable
    artifact like any other: CHOPIN's functional prep, ``inspect`` and
    the experiments all share one computation per configuration.
    ``config`` needs only ``num_gpus`` and ``composition_threshold``.
    """
    from ..render import render_service

    limit = config.composition_threshold if threshold is None else threshold
    return render_service().memo("plan", _plan_trace, trace=trace,
                                 num_gpus=config.num_gpus, threshold=limit)


def _plan_trace(trace, num_gpus: int, threshold: int) -> List[GroupPlan]:
    from .grouping import split_into_groups
    return [_plan_group(group, num_gpus, threshold)
            for group in split_into_groups(trace.frame)]


class PipelineWindow:
    """Bounded window of in-flight groups for one GPU (cross-group pipeline).

    A group is *in flight* from the moment its rendering finished until its
    composition completes; the window bounds how many such groups a GPU may
    hold concurrently (= how many sub-image buffers it keeps). The DES layer
    calls :meth:`push` with each group's composition-done event and waits on
    :meth:`admit_gate` before starting the next group's rendering:

    - ``depth=None`` — unbounded: composition always drains behind
      rendering (the paper's fully overlapped Fig 3 behaviour);
    - ``depth=1`` — the next group's rendering waits for the previous
      group's composition: a hard per-GPU group barrier;
    - ``depth=k`` — rendering runs at most ``k`` groups ahead of this GPU's
      own composition chain.

    Entries are events with a ``processed`` flag (duck-typed so the core
    tier stays independent of the sim kernel). Compositions complete in
    CGID order per GPU, so the head of the deque is always the oldest
    pending group.
    """

    def __init__(self, depth: Optional[int]) -> None:
        if depth is not None and depth < 1:
            raise ConfigError("pipeline window depth must be >= 1 (or None "
                              "for an unbounded window)")
        self.depth = depth
        self._pending: Deque = deque()
        #: groups pushed through the window over its lifetime
        self.admitted = 0
        #: admissions that found the window full (caller had to wait)
        self.stalls = 0

    def admit_gate(self):
        """Event to wait on before starting another group (None = go)."""
        while self._pending and self._pending[0].processed:
            self._pending.popleft()
        if self.depth is None or len(self._pending) < self.depth:
            return None
        self.stalls += 1
        return self._pending[0]

    def push(self, composition_done) -> None:
        """Register a freshly rendered group's composition-done event."""
        self._pending.append(composition_done)
        self.admitted += 1

    def pending(self) -> int:
        """Groups currently in flight (rendered, composition pending)."""
        while self._pending and self._pending[0].processed:
            self._pending.popleft()
        return len(self._pending)


@dataclass
class WorkflowSummary:
    """Coverage statistics of a frame plan (§VI-E's accelerated-group data)."""

    total_groups: int = 0
    accelerated_groups: int = 0
    duplicated_groups: int = 0
    accelerated_triangles: int = 0
    total_triangles: int = 0
    transparent_groups: int = 0
    reasons: List[str] = field(default_factory=list)

    @property
    def triangle_coverage(self) -> float:
        """Fraction of primitives in accelerated groups (92.44% at 4096)."""
        if self.total_triangles == 0:
            return 0.0
        return self.accelerated_triangles / self.total_triangles


def summarize_plan(plans: List[GroupPlan]) -> WorkflowSummary:
    summary = WorkflowSummary()
    for plan in plans:
        summary.total_groups += 1
        summary.total_triangles += plan.group.num_triangles
        summary.reasons.append(plan.group.boundary_reason)
        if plan.accelerated:
            summary.accelerated_groups += 1
            summary.accelerated_triangles += plan.group.num_triangles
        else:
            summary.duplicated_groups += 1
        if plan.mode is GroupMode.TRANSPARENT_PARALLEL:
            summary.transparent_groups += 1
    return summary
