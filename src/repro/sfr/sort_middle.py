"""Sort-middle SFR (the third Molnar class; paper §III-A).

Sort-middle splits the pipeline at the geometry/rasterization boundary:
each GPU runs *full* geometry processing on 1/N of the primitives (no
redundancy — better than duplication, no projection pre-pass — better than
GPUpd), then ships the **post-geometry attributes** of every primitive to
the GPUs whose screen regions it overlaps, where rasterization and fragment
processing proceed.

The paper dismisses it in one line: "sort-middle is rarely adopted because
the geometry processing output is very large". This implementation makes
that argument quantitative: the exchange moves full transformed vertex
attributes (positions, colours, texture coordinates, ...) per primitive —
``attribute_bytes`` per triangle, versus GPUpd's 4-byte primitive IDs — so
its interconnect load is ~2 orders of magnitude higher and the scheme is
bandwidth-bound even on NVLink-class fabrics.

Functionally the final image equals duplication's (the redistribution is
semantics-preserving), so the reference pass is reused; only the timing
differs. The attribute exchange is modeled as a parallel all-to-all per
batch (sort-middle has no GPUpd-style global-ordering constraint: ordering
only matters per tile, which per-pair FIFO channels already provide).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..config import SystemConfig
from ..sim import Barrier, Countdown, Simulator
from ..stats import (RunStats, STAGE_DISTRIBUTION, STAGE_FRAGMENT,
                     STAGE_GEOMETRY, TRAFFIC_PRIMITIVES, TRAFFIC_SYNC)
from ..timing.gpu import DrawWork, GPUEngine
from ..timing.interconnect import Interconnect
from ..traces.trace import Trace
from .base import SchemeResult, SFRScheme, reference_pass
from .duplication import fill_fragment_stats_by_owner
from .gpupd import projection_analysis

#: post-geometry payload per *input* triangle at paper scale. Geometry
#: output carries full transformed attributes (3 vertices x ~48 B) and is
#: amplified by tessellation (~8 micro-triangles per patch in modern
#: content) before the sort: ~1.2 KB per input primitive — the "very
#: large" geometry output of §III-A, vs GPUpd's 4 B primitive IDs.
ATTRIBUTE_BYTES_PER_TRIANGLE = 1152


class SortMiddle(SFRScheme):
    """Sort-middle SFR with post-geometry attribute redistribution."""

    name = "sort-middle"

    def __init__(self, config: SystemConfig, costs=None,
                 attribute_bytes: int = ATTRIBUTE_BYTES_PER_TRIANGLE,
                 batch_primitives: int = 2048) -> None:
        super().__init__(config, costs)
        self.attribute_bytes = max(1, attribute_bytes)
        self.batch_primitives = max(1, batch_primitives)

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

        # Per-segment batches: (geometry work per GPU, exchange matrix,
        # raster/fragment work per GPU).
        segment_batches = []
        for (start, end) in segments:
            batches = []
            batch_start, triangles = start, 0
            for i in range(start, end):
                triangles += frame.draws[i].num_triangles
                if triangles >= self.batch_primitives or i == end - 1:
                    batches.append(self._prepare_batch(
                        frame, prep, projections, batch_start, i + 1, sim))
                    batch_start, triangles = i + 1, 0
            segment_batches.append(batches)

        def gpu_process(gpu: int):
            for seg_index, batches in enumerate(segment_batches):
                for b, batch in enumerate(batches):
                    # full geometry on this GPU's 1/N primitive chunk
                    yield from engines[gpu].busy_work(
                        float(batch["geo_cycles"][gpu]), STAGE_GEOMETRY)
                    batch["geo_done"].arrive()
                    if b >= 1:
                        yield batches[b - 1]["xchg_done"].event
                        yield from engines[gpu].run_draws(
                            batches[b - 1]["works"][gpu])
                yield batches[-1]["xchg_done"].event
                yield from engines[gpu].run_draws(batches[-1]["works"][gpu])
                yield engines[gpu].drain()
                yield barrier.wait()
                if seg_index < len(segment_batches) - 1 and num_gpus > 1:
                    yield interconnect.broadcast(
                        gpu, sync_bytes, TRAFFIC_SYNC)
                    yield barrier.wait()

        def exchanger():
            # Parallel all-to-all attribute exchange per batch (bandwidth-
            # bound; no sequential-source constraint unlike GPUpd).
            for batches in segment_batches:
                for batch in batches:
                    yield batch["geo_done"].event
                    start_time = sim.now
                    sends = []
                    for src in range(num_gpus):
                        for dst in range(num_gpus):
                            nbytes = float(batch["xchg_bytes"][src, dst])
                            if src == dst or nbytes == 0.0:
                                continue
                            sends.append(interconnect.transfer(
                                src, dst, nbytes, TRAFFIC_PRIMITIVES))
                    if sends:
                        yield sim.all_of(sends)
                        elapsed = sim.now - start_time
                        for gpu in range(num_gpus):
                            stats.add_cycles(gpu, STAGE_DISTRIBUTION,
                                             elapsed / num_gpus)
                    batch["xchg_done"].arrive()

        processes = [sim.process(gpu_process(gpu), name=f"sm-gpu{gpu}")
                     for gpu in range(num_gpus)]
        processes.append(sim.process(exchanger(), name="sm-exchanger"))
        stats.frame_cycles = self._run_sim_checked(sim, processes,
                                                   stats=stats)

        fill_fragment_stats_by_owner(stats, prep)
        return SchemeResult(scheme=self.name, trace_name=trace.name,
                            num_gpus=num_gpus, stats=stats,
                            image=prep.image.copy(),
                            draw_metrics=list(prep.metrics))

    def _prepare_batch(self, frame, prep, projections, b_start, b_end, sim):
        num_gpus = self.config.num_gpus
        geo_cycles = np.zeros(num_gpus)
        works: List[List[DrawWork]] = [[] for _ in range(num_gpus)]
        xchg_bytes = np.zeros((num_gpus, num_gpus))
        for i in range(b_start, b_end):
            draw = frame.draws[i]
            proj = projections[i]
            metrics = prep.metrics[i]
            # geometry: each GPU shades 1/N of the draw's vertices, fully
            geo_cycles += self.costs.geometry_cycles(
                draw.num_triangles / num_gpus, draw.vertex_cost)
            xchg_bytes += proj.dist_counts * self.attribute_bytes
            for gpu in range(num_gpus):
                shaded = int(metrics.shaded_by_owner[gpu])
                works[gpu].append(DrawWork(
                    draw_id=draw.draw_id,
                    triangles=int(proj.owned_counts[gpu]),
                    geometry_cycles=0.0,   # geometry already charged above
                    fragment_cycles=self.costs.fragment_cycles(
                        int(proj.owned_counts[gpu]), shaded,
                        draw.pixel_cost),
                    fragments=shaded,
                    geometry_stage=STAGE_GEOMETRY,
                    fragment_stage=STAGE_FRAGMENT,
                ))
        return {
            "geo_cycles": geo_cycles,
            "works": works,
            "xchg_bytes": xchg_bytes,
            "geo_done": Countdown(sim, num_gpus),
            "xchg_done": Countdown(sim, 1),
        }
