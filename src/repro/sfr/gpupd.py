"""GPUpd (Kim et al., MICRO 2017) — the best prior SFR scheme (paper §III-A).

A cooperative sort-first pipeline with two extra stages before normal
rendering:

1. **Primitive projection**: each GPU projects 1/N of every draw's
   primitives to screen space (position-only transform) to learn which
   screen regions — hence which GPUs — each primitive touches.
2. **Primitive distribution**: GPUs exchange primitive IDs so each GPU ends
   up owning exactly the primitives that overlap its tiles. To preserve the
   input primitive order without large reorder buffers, distribution is
   *sequential across source GPUs*: GPU0 sends its lists to everyone, then
   GPU1, and so on — the critical bottleneck the paper measures in Fig 4.

Both published optimizations are modeled: **batching** (primitives flow
through projection/distribution in sub-batches so stages overlap) and
**runahead execution** (a GPU projects batch *i+1* while batch *i* is being
distributed). The idealized variant gets free links (infinite bandwidth,
zero latency), bounding how much faster perfect interconnects could make it.

After distribution each GPU runs the normal pipeline on its owned
primitives; fragments are confined to its own tiles, so the functional
result (and depth-test behaviour) is identical to primitive duplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..config import SystemConfig
from ..geometry.primitives import DrawCommand
from ..geometry.transform import (perspective_divide, to_screen,
                                  transform_positions)
from ..raster.tiles import TileGrid
from ..render import render_service
from ..sim import Barrier, Countdown, Simulator
from ..stats import (RunStats, STAGE_DISTRIBUTION, STAGE_FRAGMENT,
                     STAGE_GEOMETRY, STAGE_PROJECTION, TRAFFIC_PRIMITIVES,
                     TRAFFIC_SYNC)
from ..timing.gpu import DrawWork, GPUEngine
from ..timing.interconnect import Interconnect
from ..traces.trace import Trace
from .base import SchemeResult, SFRScheme, reference_pass
from .duplication import fill_fragment_stats_by_owner


def triangle_owner_matrix(draw: DrawCommand, grid: TileGrid,
                          num_gpus: int, mvp=None) -> np.ndarray:
    """(T, num_gpus) bool: which GPUs' tile regions each triangle overlaps.

    Conservative bounding-box overlap, the same test a hardware binner would
    use before fine rasterization.
    """
    clip = transform_positions(
        draw.positions,
        np.eye(4, dtype=np.float32) if mvp is None else mvp)
    ndc = perspective_divide(clip)
    xy, _ = to_screen(ndc, grid.width, grid.height)
    mins = xy.min(axis=1)
    maxs = xy.max(axis=1)
    ts = grid.tile_size
    tx0 = np.clip(np.floor(mins[:, 0] / ts), 0, grid.tiles_x - 1).astype(int)
    tx1 = np.clip(np.floor(maxs[:, 0] / ts), 0, grid.tiles_x - 1).astype(int)
    ty0 = np.clip(np.floor(mins[:, 1] / ts), 0, grid.tiles_y - 1).astype(int)
    ty1 = np.clip(np.floor(maxs[:, 1] / ts), 0, grid.tiles_y - 1).astype(int)
    offscreen = ((maxs[:, 0] < 0) | (mins[:, 0] >= grid.width)
                 | (maxs[:, 1] < 0) | (mins[:, 1] >= grid.height))
    owners = np.zeros((draw.num_triangles, num_gpus), dtype=bool)
    for t in range(draw.num_triangles):
        if offscreen[t]:
            continue
        for ty in range(ty0[t], ty1[t] + 1):
            for tx in range(tx0[t], tx1[t] + 1):
                owners[t, grid.owner_of_tile(tx, ty, num_gpus)] = True
    return owners


@dataclass
class DrawProjection:
    """Per-draw projection/distribution analysis for one GPU count."""

    #: primitives owned (= overlapping the region of) each GPU
    owned_counts: np.ndarray          # (num_gpus,) int
    #: distribution messages: ids sent from src chunk to dst region
    dist_counts: np.ndarray           # (num_gpus, num_gpus) int, diag = 0


def projection_analysis(trace: Trace,
                        config: SystemConfig) -> List[DrawProjection]:
    """Projection analysis for every draw. Stored in the render service's
    artifact store, keyed by (trace fingerprint, num_gpus, tile_size)."""
    return render_service().memo("projection", _projections, trace=trace,
                                 num_gpus=config.num_gpus,
                                 tile_size=config.tile_size)


def _projections(trace: Trace, num_gpus: int,
                 tile_size: int) -> List[DrawProjection]:
    n = num_gpus
    grid = TileGrid(trace.width, trace.height, tile_size)
    result: List[DrawProjection] = []
    for draw in trace.frame.draws:
        owners = triangle_owner_matrix(draw, grid, n, mvp=trace.camera)
        owned = owners.sum(axis=0).astype(np.int64)
        bounds = np.linspace(0, draw.num_triangles, n + 1).astype(int)
        dist = np.zeros((n, n), dtype=np.int64)
        for src in range(n):
            lo, hi = bounds[src], bounds[src + 1]
            if hi > lo:
                dist[src] = owners[lo:hi].sum(axis=0)
            dist[src, src] = 0
        result.append(DrawProjection(owned_counts=owned, dist_counts=dist))
    return result


@dataclass
class _Batch:
    """One projection/distribution/render batch's precomputed work."""

    proj_cycles: np.ndarray           # (num_gpus,)
    works: List[List[DrawWork]]       # [gpu] -> draws' render work
    dist_bytes: np.ndarray            # (num_gpus, num_gpus)
    proj_done: Countdown = None       # all GPUs projected this batch
    dist_done: Countdown = None       # primitive IDs fully exchanged


class GPUpd(SFRScheme):
    """Best-effort realistic GPUpd with batching + runahead."""

    name = "gpupd"

    def __init__(self, config: SystemConfig, costs=None,
                 batch_primitives: int = 2048,
                 runahead: bool = True) -> None:
        super().__init__(config, costs)
        #: primitives per distribution batch. GPUpd pipelines projection /
        #: distribution / rendering at this granularity; each batch costs a
        #: full sequential turn of every source GPU, which is why the
        #: distribution overhead grows with GPU count (Fig 4).
        self.batch_primitives = max(1, batch_primitives)
        #: overlap batch b+1's projection with batch b's distribution (the
        #: GPUpd paper's second optimization); off = fully serialized phases
        self.runahead = runahead

    def run(self, trace: Trace) -> SchemeResult:
        prep = reference_pass(trace, self.config)
        projections = projection_analysis(trace, self.config)
        num_gpus = self.config.num_gpus
        stats = RunStats(num_gpus=num_gpus)
        sim = self._make_sim()
        engines = [GPUEngine(sim, g, self.costs, stats.gpus[g])
                   for g in range(num_gpus)]
        interconnect = Interconnect(sim, self.config, stats)
        barrier = Barrier(sim, num_gpus)
        segments = self._segments(trace, prep)
        frame = trace.frame
        sync_bytes = self._sync_broadcast_bytes(trace)

        # Precompute every segment's batches up front.
        segment_batches: List[List[_Batch]] = []
        for (start, end) in segments:
            batches = []
            for (b_start, b_end) in self._make_batches(frame, start, end):
                batches.append(self._prepare_batch(
                    frame, prep, projections, b_start, b_end, sim))
            segment_batches.append(batches)

        def gpu_process(gpu: int):
            for seg_index, batches in enumerate(segment_batches):
                if self.runahead:
                    # Runahead depth 1: project batch b, then (while batch
                    # b is distributed) render batch b-1.
                    for b, batch in enumerate(batches):
                        yield from engines[gpu].busy_work(
                            float(batch.proj_cycles[gpu]), STAGE_PROJECTION)
                        batch.proj_done.arrive()
                        if b >= 1:
                            yield batches[b - 1].dist_done.event
                            yield from engines[gpu].run_draws(
                                batches[b - 1].works[gpu])
                    yield batches[-1].dist_done.event
                    yield from engines[gpu].run_draws(
                        batches[-1].works[gpu])
                else:
                    # No runahead: project -> wait distribution -> render,
                    # batch by batch.
                    for batch in batches:
                        yield from engines[gpu].busy_work(
                            float(batch.proj_cycles[gpu]), STAGE_PROJECTION)
                        batch.proj_done.arrive()
                        yield batch.dist_done.event
                        yield from engines[gpu].run_draws(batch.works[gpu])
                yield engines[gpu].drain()
                yield barrier.wait()
                if seg_index < len(segment_batches) - 1 and num_gpus > 1:
                    yield interconnect.broadcast(
                        gpu, sync_bytes, TRAFFIC_SYNC)
                    yield barrier.wait()

        def distributor():
            # Sequential across sources (GPU0, then GPU1, ...) to preserve
            # the input primitive order at every receiver. Each source's
            # turn is charged to it as distribution-stage cycles (Fig 4).
            for batches in segment_batches:
                for batch in batches:
                    yield batch.proj_done.event
                    for src in range(num_gpus):
                        turn_start = sim.now
                        sends = []
                        for dst in range(num_gpus):
                            nbytes = float(batch.dist_bytes[src, dst])
                            if dst == src or nbytes == 0.0:
                                continue
                            sends.append(interconnect.transfer(
                                src, dst, nbytes, TRAFFIC_PRIMITIVES))
                        if sends:
                            yield sim.all_of(sends)
                            stats.add_cycles(src, STAGE_DISTRIBUTION,
                                             sim.now - turn_start)
                    batch.dist_done.arrive()

        processes = [sim.process(gpu_process(gpu), name=f"gpupd-gpu{gpu}")
                     for gpu in range(num_gpus)]
        processes.append(sim.process(distributor(), name="gpupd-distributor"))
        stats.frame_cycles = self._run_sim_checked(sim, processes,
                                                   stats=stats)
        fill_fragment_stats_by_owner(stats, prep)
        return SchemeResult(scheme=self.name, trace_name=trace.name,
                            num_gpus=num_gpus, stats=stats,
                            image=prep.image.copy(),
                            draw_metrics=list(prep.metrics))

    # -- helpers --------------------------------------------------------------

    def _prepare_batch(self, frame, prep, projections, b_start: int,
                       b_end: int, sim: Simulator) -> _Batch:
        num_gpus = self.config.num_gpus
        id_bytes = self.config.primitive_id_bytes
        cycles = np.zeros(num_gpus)
        works: List[List[DrawWork]] = [[] for _ in range(num_gpus)]
        bytes_matrix = np.zeros((num_gpus, num_gpus))
        for i in range(b_start, b_end):
            draw = frame.draws[i]
            proj = projections[i]
            metrics = prep.metrics[i]
            cycles += self.costs.projection_cycles(
                draw.num_triangles / num_gpus, draw.vertex_cost)
            bytes_matrix += proj.dist_counts * id_bytes
            for gpu in range(num_gpus):
                owned = int(proj.owned_counts[gpu])
                works[gpu].append(DrawWork(
                    draw_id=draw.draw_id,
                    triangles=owned,
                    geometry_cycles=self.costs.geometry_cycles(
                        owned, draw.vertex_cost),
                    fragment_cycles=self.costs.fragment_cycles(
                        owned, int(metrics.shaded_by_owner[gpu]),
                        draw.pixel_cost),
                    fragments=int(metrics.shaded_by_owner[gpu]),
                    geometry_stage=STAGE_GEOMETRY,
                    fragment_stage=STAGE_FRAGMENT,
                ))
        batch = _Batch(proj_cycles=cycles, works=works,
                       dist_bytes=bytes_matrix)
        batch.proj_done = Countdown(sim, num_gpus)
        batch.dist_done = Countdown(sim, 1)
        return batch

    def _make_batches(self, frame, start: int,
                      end: int) -> List[Tuple[int, int]]:
        """Bundle consecutive draws until ``batch_primitives`` is reached."""
        batches: List[Tuple[int, int]] = []
        batch_start = start
        triangles = 0
        for i in range(start, end):
            triangles += frame.draws[i].num_triangles
            if triangles >= self.batch_primitives:
                batches.append((batch_start, i + 1))
                batch_start = i + 1
                triangles = 0
        if batch_start < end:
            batches.append((batch_start, end))
        return batches


class IdealGPUpd(GPUpd):
    """GPUpd on free links: zero latency, infinite bandwidth (Fig 5/13)."""

    name = "gpupd-ideal"

    def __init__(self, config: SystemConfig, costs=None,
                 batch_primitives: int = 2048) -> None:
        super().__init__(config.idealized(), costs, batch_primitives)
