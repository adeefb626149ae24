"""Baseline SFR: primitive duplication (paper §III-A, the Fig 13 baseline).

Every GPU runs geometry processing for *every* primitive of every draw
command, then keeps only the fragments that fall into its own screen tiles.
Redundant geometry makes the scheme simple (no primitive redistribution) but
unscalable: with N GPUs the geometry work per GPU is constant while fragment
work shrinks, so geometry dominates as N grows (Fig 2).

Inter-GPU communication happens only at render-target/depth-buffer switches,
where each GPU broadcasts its owned region of the current surfaces (§V).
"""

from __future__ import annotations

from typing import List

from ..sim import Barrier, Simulator
from ..stats import (RunStats, STAGE_FRAGMENT, STAGE_GEOMETRY, TRAFFIC_SYNC)
from ..timing.gpu import DrawWork, GPUEngine
from ..timing.interconnect import Interconnect
from ..traces.trace import Trace
from .base import ReferencePass, SchemeResult, SFRScheme, reference_pass


def fill_fragment_stats_by_owner(stats: RunStats,
                                 prep: ReferencePass) -> None:
    """Copy the reference pass's per-owner fragment counts into RunStats."""
    frame = prep.trace.frame
    for draw, metrics in zip(frame.draws, prep.metrics):
        early = draw.state.early_z
        for gpu in range(stats.num_gpus):
            gstats = stats.gpus[gpu]
            generated = int(metrics.generated_by_owner[gpu])
            shaded = int(metrics.shaded_by_owner[gpu])
            passed = int(metrics.passed_by_owner[gpu])
            gstats.fragments_generated += generated
            gstats.fragments_shaded += shaded
            if early:
                gstats.fragments_early_z_tested += generated
                gstats.fragments_passed_early_z += passed
            else:
                gstats.fragments_passed_late += passed


class PrimitiveDuplication(SFRScheme):
    """The conventional GPU-assisted sort-first baseline."""

    name = "duplication"

    def run(self, trace: Trace) -> SchemeResult:
        prep = reference_pass(trace, self.config)
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

        def gpu_process(gpu: int):
            for seg_index, (start, end) in enumerate(segments):
                works: List[DrawWork] = []
                for i in range(start, end):
                    draw = frame.draws[i]
                    metrics = prep.metrics[i]
                    works.append(DrawWork(
                        draw_id=draw.draw_id,
                        triangles=draw.num_triangles,
                        geometry_cycles=self.costs.geometry_cycles(
                            draw.num_triangles, draw.vertex_cost),
                        fragment_cycles=self.costs.fragment_cycles(
                            metrics.triangles_rasterized,
                            int(metrics.shaded_by_owner[gpu]),
                            draw.pixel_cost),
                        fragments=int(metrics.shaded_by_owner[gpu]),
                        geometry_stage=STAGE_GEOMETRY,
                        fragment_stage=STAGE_FRAGMENT,
                    ))
                yield from engines[gpu].run_draws(works)
                yield engines[gpu].drain()
                yield barrier.wait()
                if seg_index < len(segments) - 1 and num_gpus > 1:
                    # Render-target switch: broadcast owned surface regions.
                    yield interconnect.broadcast(
                        gpu, sync_bytes, TRAFFIC_SYNC)
                    yield barrier.wait()

        processes = [sim.process(gpu_process(gpu), name=f"dup-gpu{gpu}")
                     for gpu in range(num_gpus)]
        stats.frame_cycles = self._run_sim_checked(sim, processes,
                                                   stats=stats)

        fill_fragment_stats_by_owner(stats, prep)
        return SchemeResult(scheme=self.name, trace_name=trace.name,
                            num_gpus=num_gpus, stats=stats,
                            image=prep.image.copy(),
                            draw_metrics=list(prep.metrics))
