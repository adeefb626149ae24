"""CHOPIN: sort-last SFR with parallel image composition (paper §III-B/IV).

Execution model per composition group (Fig 7):

- **duplicate** groups (below the primitive threshold) run as conventional
  SFR: every GPU processes the group's geometry, fragments stay in each
  GPU's own tiles, and no composition is needed;
- **opaque** groups distribute whole draw commands across GPUs via the draw
  command scheduler; each GPU renders its draws over the *full* screen into
  its local surfaces, and at the group boundary the sub-images are
  depth-composited out-of-order;
- **transparent** groups split the group's primitives into equal contiguous
  chunks, render each into a fresh layer (cleared to the blend operator's
  identity), and reduce *adjacent* layers as soon as both are available
  (associativity), finally blending the composed layer over the background
  exactly once.

The scheme runs in three passes:

1. an **assignment pass** — an analytic replay of the driver issuing draws
   (one per ``draw_issue_cost`` cycles) to the GPU with the fewest remaining
   geometry-stage triangles, with progress reported at the configured
   update interval (Fig 18's knob). Assignment depends only on
   geometry-side timing, so it is identical across link configurations;
2. a **functional pass** — per-GPU rendering with *local* surfaces (each
   GPU's depth buffer knows only its own draws plus composed results for
   its owned tiles — the source of CHOPIN's extra shaded fragments,
   §VI-B/Fig 15), followed by exact sub-image composition, producing the
   final image, fragment counts, and per-pair composition traffic;
3. a **timing pass** — the cycle-level DES: pipelined GPU engines, the
   interconnect with port contention, and either naive direct-send
   (transfers gated on busy receivers congest the fabric) or the image
   composition scheduler (only ready+idle pairs exchange).

Correctness invariant (tested): the final image equals single-GPU rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..composition.compositor import (SubImage, blend_merge, composite_opaque,
                                      resolve_to_background)
from ..composition.dfb import plan_group_tiles, tree_edge_tile_sizes
from ..composition.operators import identity_for
from ..config import SystemConfig
from ..core.composition_scheduler import ImageCompositionScheduler
from ..core.draw_scheduler import (DrawScheduler,
                                   LeastRemainingTrianglesScheduler,
                                   OracleLPTScheduler, RoundRobinScheduler,
                                   SampledRateScheduler)
from ..core.workflow import (GroupMode, GroupPlan, PipelineWindow,
                             plan_trace_frame, summarize_plan)
from ..errors import FaultError, SchedulingError
from ..faults.degraded import (first_unfinished_group, merge_chunks,
                               nearest_survivor, rebuild_reduction,
                               redistribute_draw_works, repair_region_matrix,
                               repair_tile_owner, repair_tile_sources,
                               scatter_sizes, tile_owner_matrix,
                               tile_pixel_counts)
from ..faults.plan import FaultPlan
from ..framebuffer.depth import DEPTH_CLEAR
from ..framebuffer.framebuffer import Framebuffer, SurfacePool
from ..raster.tiles import TileGrid
from ..render import render_service
from ..sim import Barrier, Countdown, Event, Simulator
from ..stats import (RunStats, STAGE_COMPOSITION, TRAFFIC_COMPOSITION,
                     TRAFFIC_SYNC)
from ..timing.gpu import DrawWork, GPUEngine
from ..timing.interconnect import Interconnect
from ..traces.trace import Trace
from .base import SchemeResult, SFRScheme

#: bytes per depth-buffer pixel broadcast during transparent-group sync
DEPTH_BYTES = 4


@dataclass
class _FragTally:
    """Per-GPU functional fragment counters accumulated by the prep pass."""

    generated: int = 0
    shaded: int = 0
    early_tested: int = 0
    early_passed: int = 0
    late_passed: int = 0


@dataclass
class _GroupPrep:
    """Everything the timing pass needs for one composition group."""

    plan: GroupPlan
    mode: GroupMode
    #: [gpu] -> DrawWork list (all modes)
    works: List[List[DrawWork]] = field(default_factory=list)
    #: [gpu] -> issue time (cycles after group start) per work (opaque only)
    issue_times: List[List[float]] = field(default_factory=list)
    #: composition message pixels, src -> dst (opaque only)
    region_pixels: Optional[np.ndarray] = None
    #: adjacent-pair reduction levels: [[(sender, receiver, pixels)]]
    tree_levels: List[List[Tuple[int, int, int]]] = field(default_factory=list)
    #: final scatter pixels root -> gpu (transparent only; index 0 = root)
    scatter_pixels: Optional[List[int]] = None
    #: [gpu] -> touched-tile bitmap of its layer (transparent only); lets
    #: degraded mode rebuild the reduction tree over any survivor set
    layer_tiles: List[np.ndarray] = field(default_factory=list)
    #: [gpu] -> touched-tile bitmap of its sub-image (opaque only); the
    #: DFB scheme streams exactly these tiles to their owners
    touched_tiles: List[np.ndarray] = field(default_factory=list)


@dataclass
class _ChopinPrep:
    """Cached functional-pass output for one (trace, config, variant)."""

    groups: List[_GroupPrep]
    image: Framebuffer
    tallies: List[_FragTally]
    total_groups: int
    accelerated_groups: int
    #: (tiles_y, tiles_x) pixel area / owning GPU of every tile, for
    #: degraded-mode tree rebuild and tile inheritance
    tile_pixels: Optional[np.ndarray] = None
    tile_owner: Optional[np.ndarray] = None


@dataclass
class _GroupRepair:
    """Recovery actions for one composition group after fail-stop(s)."""

    #: GPUs still running when this group executes / GPUs dead by then
    alive: List[int]
    dead: List[int]
    #: survivor -> [(work, issue_offset, not_before_cycle)] — draws adopted
    #: from dead GPUs; ``not_before`` is the failure (detection) cycle
    adopted: Dict[int, List[Tuple[DrawWork, float, float]]] = field(
        default_factory=dict)
    #: repaired src->dst composition matrix (opaque groups)
    region_pixels: Optional[np.ndarray] = None
    #: repaired tile-source bitmaps and tile ownership (opaque groups, DFB:
    #: survivors stream the dead GPUs' tiles, inheritors own their regions)
    touched_tiles: Optional[List[np.ndarray]] = None
    tile_owner: Optional[np.ndarray] = None
    #: rebuilt reduction tree + scatter over survivors (transparent groups)
    tree_levels: Optional[List[List[Tuple[int, int, int]]]] = None
    scatter_sizes: Optional[Dict[int, int]] = None
    root: int = 0
    #: merged per-survivor layer bitmaps (transparent groups, DFB streams)
    layer_bitmaps: Optional[Dict[int, np.ndarray]] = None


@dataclass
class _DegradedPlan:
    """Frame-level recovery plan derived from the fault-free baseline.

    ``failure_group[gpu]`` is the first group the dead GPU cannot complete
    (groups before it ran normally); ``repairs[gi]`` exists for every group
    at which at least one GPU is dead.
    """

    failure_group: Dict[int, int]
    repairs: Dict[int, _GroupRepair]
    redistributed_draws: int = 0
    recovery_cycles: float = 0.0


class Chopin(SFRScheme):
    """CHOPIN with naive direct-send composition (no composition scheduler)."""

    name = "chopin"
    use_composition_scheduler = False
    #: how opaque sub-images travel: ``"subimage"`` exchanges whole
    #: per-region messages at the group boundary; ``"tiles"`` (the DFB
    #: scheme) streams fixed-size tiles to their owners with no receiver
    #: gating, and transparent tree edges stream per tile too
    composition_style = "subimage"
    #: CHOPIN can finish a frame after a GPU fail-stops (degraded mode)
    supports_fail_stop = True

    def __init__(self, config: SystemConfig, costs=None,
                 draw_scheduler: str = "least-remaining") -> None:
        super().__init__(config, costs)
        if draw_scheduler not in ("least-remaining", "round-robin",
                                  "oracle", "sampled"):
            raise SchedulingError(
                f"unknown draw scheduler {draw_scheduler!r}")
        self.draw_scheduler_kind = draw_scheduler

    # ------------------------------------------------------------------ API

    def run(self, trace: Trace) -> SchemeResult:
        prep = self._functional_pass(trace)
        plan = self.config.faults
        if plan is None or not plan.gpu_failures:
            result, _ = self._timing_pass(trace, prep)
            return result

        # Fail-stop recovery (static-partition degraded mode): run the
        # fault-free baseline to learn each GPU's per-group involvement
        # timeline, map every failure cycle onto the first group that GPU
        # cannot complete, then re-run timing with survivors adopting the
        # dead GPUs' work from that group on. The composed image is
        # assignment-independent — every draw is still rendered by some
        # survivor — so the functional image stays exact; the cost of
        # recovery shows up as extra frame cycles vs. the baseline.
        baseline, ends = self._timing_pass(trace, prep, link_faults=False)
        degraded = self._plan_degradation(prep, plan, ends)
        if degraded is None:
            # Every failure lands after the frame already completed.
            result, _ = self._timing_pass(trace, prep)
            return result
        result, _ = self._timing_pass(trace, prep, degraded=degraded)
        stats = result.stats
        stats.failed_gpus = sorted(degraded.failure_group)
        stats.redistributed_draws = degraded.redistributed_draws
        stats.recovery_cycles = degraded.recovery_cycles
        stats.baseline_frame_cycles = baseline.stats.frame_cycles
        return result

    def _plan_degradation(self, prep: _ChopinPrep, plan: FaultPlan,
                          ends: List[List[float]],
                          ) -> Optional[_DegradedPlan]:
        """Build per-group repairs from baseline involvement timelines."""
        n = self.config.num_gpus
        num_groups = len(prep.groups)
        failure_group: Dict[int, int] = {}
        for failure in plan.gpu_failures:
            fg = first_unfinished_group(ends[failure.gpu], failure.cycle)
            if fg < num_groups:
                failure_group[failure.gpu] = fg
        if not failure_group:
            return None
        fail_cycle = {f: plan.failure_cycle(f) for f in failure_group}
        dplan = _DegradedPlan(failure_group=failure_group, repairs={})

        for gi, gp in enumerate(prep.groups):
            dead = sorted(f for f, fg in failure_group.items() if fg <= gi)
            if not dead:
                continue
            alive = [g for g in range(n) if g not in dead]
            if not alive:
                raise FaultError(
                    f"no GPU survives to execute composition group {gi}")
            inherit = {f: nearest_survivor(f, alive) for f in dead}
            repair = _GroupRepair(alive=alive, dead=dead)

            def adopt(survivor: int, work: DrawWork, offset: float,
                      source: int) -> None:
                repair.adopted.setdefault(survivor, []).append(
                    (work, offset, fail_cycle[source]))
                dplan.redistributed_draws += 1
                dplan.recovery_cycles += (work.geometry_cycles
                                          + work.fragment_cycles)

            if gp.mode is GroupMode.DUPLICATE:
                # SFR tiles: the inheritor re-renders the group to cover
                # the dead GPU's owned tiles.
                for f in dead:
                    for work in gp.works[f]:
                        adopt(inherit[f], work, 0.0, f)
            elif gp.mode is GroupMode.OPAQUE_PARALLEL:
                # Re-issue the dead GPUs' draws across all survivors via
                # the paper's own least-remaining-triangles scheduler,
                # seeded with the survivors' existing loads.
                lost = []
                for f in dead:
                    lost.extend(
                        (work, when, f)
                        for work, when in zip(gp.works[f],
                                              gp.issue_times[f]))
                lost.sort(key=lambda item: item[1])
                base = {g: sum(w.triangles for w in gp.works[g])
                        for g in alive}
                targets = redistribute_draw_works(
                    [work for work, _, _ in lost], alive, base, n)
                for (work, when, f), survivor in zip(lost, targets):
                    adopt(survivor, work, when, f)
                repair.region_pixels = repair_region_matrix(
                    gp.region_pixels, dead, inherit)
                repair.touched_tiles = repair_tile_sources(
                    gp.touched_tiles, dead, inherit)
                repair.tile_owner = repair_tile_owner(
                    prep.tile_owner, dead, inherit)
            else:  # transparent: merge chunks into adjacent survivors
                merged = merge_chunks(list(range(n)), dead, inherit)
                bitmaps: Dict[int, np.ndarray] = {}
                for survivor, chunk_ids in sorted(merged.items()):
                    bitmap = np.zeros_like(gp.layer_tiles[survivor])
                    for chunk in chunk_ids:
                        bitmap |= gp.layer_tiles[chunk]
                        if chunk != survivor:
                            for work in gp.works[chunk]:
                                adopt(survivor, work, 0.0, chunk)
                    bitmaps[survivor] = bitmap
                levels, root, root_bitmap = rebuild_reduction(
                    sorted(merged), bitmaps, prep.tile_pixels)
                repair.tree_levels = levels
                repair.root = root
                repair.scatter_sizes = scatter_sizes(
                    root_bitmap, prep.tile_pixels, prep.tile_owner,
                    dead, inherit)
                repair.layer_bitmaps = bitmaps
            dplan.repairs[gi] = repair
        return dplan

    # -------------------------------------------------------- assignment

    def _make_scheduler(self, draws=()) -> DrawScheduler:
        if self.draw_scheduler_kind == "round-robin":
            return RoundRobinScheduler(self.config.num_gpus)
        if self.draw_scheduler_kind == "oracle":
            # Unrealistic upper bound (§IV-D: exact runtimes are unknown
            # before execution): least-loaded by estimated *total* cycles.
            return OracleLPTScheduler(
                self.config.num_gpus,
                costs=[self._estimate_draw_cycles(d) for d in draws])
        if self.draw_scheduler_kind == "sampled":
            # OO-VR-style: rates sampled from the first draws, reused for
            # the frame (the §IV-D strawman the paper rejects).
            return SampledRateScheduler(
                self.config.num_gpus, self._sampled_estimates(draws))
        return LeastRemainingTrianglesScheduler(self.config.num_gpus)

    def _sampled_estimates(self, draws, sample_size: int = 8):
        """Wimmer-Wonka ``c1*#tv + c2*#pix`` with rates frozen from the
        first ``sample_size`` draws."""
        sample = list(draws)[:sample_size] or list(draws)
        if not sample:
            return []
        c1 = float(np.mean([d.vertex_cost for d in sample])) \
            / self.config.gpu.num_sms
        c2 = float(np.mean([d.pixel_cost for d in sample])) \
            / self.config.gpu.num_rops
        estimates = []
        for draw in draws:
            pixels = self._estimate_draw_pixels(draw)
            estimates.append(c1 * draw.num_triangles + c2 * pixels)
        return estimates

    def _estimate_draw_pixels(self, draw) -> float:
        """Area-based pixel estimate against a nominal 10k-pixel screen."""
        edges_a = draw.positions[:, 1, :2] - draw.positions[:, 0, :2]
        edges_b = draw.positions[:, 2, :2] - draw.positions[:, 0, :2]
        area_ndc = 0.5 * np.abs(edges_a[:, 0] * edges_b[:, 1]
                                - edges_a[:, 1] * edges_b[:, 0]).sum()
        return float(area_ndc) / 4.0 * 0.5 * 10_000

    def _estimate_draw_cycles(self, draw) -> float:
        """Geometry plus area-based fragment estimate for one draw."""
        geometry = self.costs.geometry_cycles(draw.num_triangles,
                                              draw.vertex_cost)
        edges_a = draw.positions[:, 1, :2] - draw.positions[:, 0, :2]
        edges_b = draw.positions[:, 2, :2] - draw.positions[:, 0, :2]
        area_ndc = 0.5 * np.abs(edges_a[:, 0] * edges_b[:, 1]
                                - edges_a[:, 1] * edges_b[:, 0]).sum()
        # NDC covers 4 units^2; assume ~half the coverage survives early-Z
        # and price it against a nominal 10k-pixel screen — LPT only needs
        # *relative* costs, so the nominal size cancels out.
        screen_fraction = float(area_ndc) / 4.0 * 0.5
        fragments = int(screen_fraction * 10_000)
        return geometry + self.costs.fragment_cycles(
            draw.num_triangles, fragments, draw.pixel_cost)

    def _assign_group(self, draws) -> Tuple[List[int], List[float]]:
        """Analytic driver replay: per-draw GPU assignment + issue times."""
        n = self.config.num_gpus
        scheduler = self._make_scheduler(draws)
        issue_cost = self.costs.draw_issue_cost
        interval = max(1, self.config.scheduler_update_interval)
        free_at = [0.0] * n
        pending: List[List[Tuple[float, int]]] = [[] for _ in range(n)]
        pointers = [0] * n
        assignment: List[int] = []
        issue_times: List[float] = []
        for k, draw in enumerate(draws):
            now = k * issue_cost
            for gpu in range(n):
                chunks = pending[gpu]
                while (pointers[gpu] < len(chunks)
                       and chunks[pointers[gpu]][0] <= now):
                    scheduler.report_processed(
                        gpu, chunks[pointers[gpu]][1])
                    pointers[gpu] += 1
            gpu = scheduler.pick(draw.num_triangles)
            assignment.append(gpu)
            issue_times.append(now)
            triangles = draw.num_triangles
            if triangles:
                cycles = self.costs.geometry_cycles(
                    triangles, draw.vertex_cost)
                start = max(free_at[gpu], now)
                per_tri = cycles / triangles
                done = 0
                while done < triangles:
                    chunk = min(interval, triangles - done)
                    done += chunk
                    pending[gpu].append((start + done * per_tri, chunk))
                free_at[gpu] = start + cycles
        return assignment, issue_times

    # -------------------------------------------------------- functional

    def _prep_fields(self, trace: Trace) -> dict:
        """Identifying fields of this variant's functional prep artifact."""
        cfg = self.config
        return {
            # bumped when the prep *content* changes shape: rev 2 added the
            # per-GPU touched-tile bitmaps of opaque groups (DFB streaming)
            "prep_rev": 2,
            "trace": trace.fingerprint, "num_gpus": cfg.num_gpus,
            "tile_size": cfg.tile_size,
            "composition_threshold": cfg.composition_threshold,
            "scheduler_update_interval": cfg.scheduler_update_interval,
            "retained_cull_fraction": cfg.retained_cull_fraction,
            "draw_scheduler": self.draw_scheduler_kind,
            "draw_issue_cost": self.costs.draw_issue_cost,
            "model_memory": self.costs.model_memory,
            "fragment_memory_bytes": self.costs.fragment_memory_bytes,
            "l2_hit_rate": self.costs.l2_hit_rate,
            "dram_bandwidth_bytes_per_s":
                self.costs.gpu.dram_bandwidth_bytes_per_s,
        }

    def _functional_pass(self, trace: Trace) -> _ChopinPrep:
        return render_service().cached(
            "chopin-prep", self._prep_fields(trace),
            lambda: self._compute_functional_pass(trace))

    def _compute_functional_pass(self, trace: Trace) -> _ChopinPrep:
        cfg = self.config
        n = cfg.num_gpus
        width, height = trace.width, trace.height
        grid = TileGrid(width, height, cfg.tile_size)
        own_masks = [grid.gpu_pixel_mask(g, n) for g in range(n)]
        owner_map = grid.owner_map(n)
        session = render_service().session(trace)
        global_pool = SurfacePool(width, height)
        local_pools = [SurfacePool(width, height) for _ in range(n)]
        rng = np.random.default_rng(0xC40F1)
        tallies = [_FragTally() for _ in range(n)]

        plans = plan_trace_frame(trace, cfg)
        group_preps: List[_GroupPrep] = []
        for plan in plans:
            if plan.mode is GroupMode.DUPLICATE:
                group_preps.append(self._prep_duplicate(
                    plan, session, global_pool, local_pools, own_masks,
                    owner_map, tallies))
            elif plan.mode is GroupMode.OPAQUE_PARALLEL:
                group_preps.append(self._prep_opaque(
                    plan, session, global_pool, local_pools, own_masks,
                    grid, tallies, rng))
            else:
                group_preps.append(self._prep_transparent(
                    plan, session, global_pool, local_pools, own_masks,
                    grid, tallies))

        summary = summarize_plan(plans)
        return _ChopinPrep(groups=group_preps,
                           image=global_pool.render_target(0).copy(),
                           tallies=tallies,
                           total_groups=summary.total_groups,
                           accelerated_groups=summary.accelerated_groups,
                           tile_pixels=tile_pixel_counts(grid),
                           tile_owner=tile_owner_matrix(grid, n))

    def _tally(self, tallies, gpu: int, metrics, early_z: bool) -> None:
        tally = tallies[gpu]
        tally.generated += metrics.fragments_generated
        tally.shaded += metrics.fragments_shaded
        if early_z:
            tally.early_tested += metrics.early_z_tested
            tally.early_passed += metrics.early_z_passed
        tally.late_passed += metrics.late_passed

    def _refresh_own_regions(self, plan, global_pool, local_pools,
                             own_masks) -> None:
        """Composed results land at region owners: each GPU's local surfaces
        become authoritative (= global) inside its own tiles."""
        rt, db = plan.group.render_target, plan.group.depth_buffer
        global_color = global_pool.render_target(rt).color
        global_depth = global_pool.depth_buffer(db)
        for gpu, mask in enumerate(own_masks):
            local_pools[gpu].render_target(rt).color[mask] = global_color[mask]
            local_pools[gpu].depth_buffer(db)[mask] = global_depth[mask]

    def _prep_duplicate(self, plan, session, global_pool, local_pools,
                        own_masks, owner_map, tallies) -> _GroupPrep:
        """Below-threshold group: conventional SFR, no composition."""
        n = self.config.num_gpus
        works: List[List[DrawWork]] = [[] for _ in range(n)]
        for draw in plan.group.draws:
            metrics = session.execute_draw(
                draw, global_pool, owner_map=owner_map, num_owners=n)
            for gpu in range(n):
                generated = int(metrics.generated_by_owner[gpu])
                shaded = int(metrics.shaded_by_owner[gpu])
                passed = int(metrics.passed_by_owner[gpu])
                tally = tallies[gpu]
                tally.generated += generated
                tally.shaded += shaded
                if draw.state.early_z:
                    tally.early_tested += generated
                    tally.early_passed += passed
                else:
                    tally.late_passed += passed
                works[gpu].append(DrawWork(
                    draw_id=draw.draw_id,
                    triangles=draw.num_triangles,
                    geometry_cycles=self.costs.geometry_cycles(
                        draw.num_triangles, draw.vertex_cost),
                    fragment_cycles=self.costs.fragment_cycles(
                        metrics.triangles_rasterized, shaded,
                        draw.pixel_cost),
                    fragments=shaded))
        self._refresh_own_regions(plan, global_pool, local_pools, own_masks)
        return _GroupPrep(plan=plan, mode=plan.mode, works=works)

    def _prep_opaque(self, plan, session, global_pool, local_pools,
                     own_masks, grid, tallies, rng) -> _GroupPrep:
        """Scheduled draws, full-screen local rendering, depth composition."""
        cfg = self.config
        n = cfg.num_gpus
        draws = plan.group.draws
        assignment, issue_times = self._assign_group(draws)
        touched = [np.zeros((grid.height, grid.width), dtype=bool)
                   for _ in range(n)]
        works: List[List[DrawWork]] = [[] for _ in range(n)]
        issues: List[List[float]] = [[] for _ in range(n)]
        for draw, gpu, when in zip(draws, assignment, issue_times):
            metrics = session.execute_draw(
                draw, local_pools[gpu], touched=touched[gpu],
                retained_cull_fraction=cfg.retained_cull_fraction, rng=rng)
            self._tally(tallies, gpu, metrics, draw.state.early_z)
            works[gpu].append(DrawWork(
                draw_id=draw.draw_id,
                triangles=draw.num_triangles,
                geometry_cycles=self.costs.geometry_cycles(
                    draw.num_triangles, draw.vertex_cost),
                fragment_cycles=self.costs.fragment_cycles(
                    metrics.triangles_rasterized, metrics.fragments_shaded,
                    draw.pixel_cost),
                fragments=metrics.fragments_shaded))
            issues[gpu].append(when)

        rt, db = plan.group.render_target, plan.group.depth_buffer
        subimages = [SubImage(color=local_pools[g].render_target(rt).color,
                              depth=local_pools[g].depth_buffer(db),
                              touched=touched[g]) for g in range(n)]
        composed = composite_opaque(subimages)
        resolve_to_background(global_pool.render_target(rt).color,
                              global_pool.depth_buffer(db), composed,
                              plan.group.blend_op)

        region_pixels = np.zeros((n, n), dtype=np.int64)
        for src in range(n):
            sizes = grid.region_sizes_to_gpus(touched[src], n)
            for dst, pixels in sizes.items():
                if dst != src:
                    region_pixels[src, dst] = pixels
        self._refresh_own_regions(plan, global_pool, local_pools, own_masks)
        return _GroupPrep(plan=plan, mode=plan.mode, works=works,
                          issue_times=issues, region_pixels=region_pixels,
                          touched_tiles=[grid.touched_tiles(touched[g])
                                         for g in range(n)])

    def _prep_transparent(self, plan, session, global_pool, local_pools,
                          own_masks, grid, tallies) -> _GroupPrep:
        """Even contiguous split, adjacent-pair associative reduction."""
        cfg = self.config
        n = cfg.num_gpus
        rt, db = plan.group.render_target, plan.group.depth_buffer
        op = plan.group.blend_op
        global_depth = global_pool.depth_buffer(db)
        # Depth sync: transparent fragments must occlusion-test against the
        # full composed depth, which lives distributed at region owners.
        for gpu in range(n):
            local_pools[gpu].depth_buffer(db)[:] = global_depth

        works: List[List[DrawWork]] = [[] for _ in range(n)]
        layers: List[SubImage] = []
        layer_tiles: List[np.ndarray] = []
        clear_depth = np.full((grid.height, grid.width), DEPTH_CLEAR,
                              dtype=np.float32)
        for gpu, chunk in enumerate(plan.chunks):
            layer_fb = Framebuffer(grid.width, grid.height)
            layer_fb.color[:] = identity_for(op)
            temp_pool = SurfacePool(grid.width, grid.height)
            temp_pool.install_render_target(rt, layer_fb)
            temp_pool.install_depth_buffer(
                db, local_pools[gpu].depth_buffer(db))
            touched = np.zeros((grid.height, grid.width), dtype=bool)
            for draw in chunk:
                metrics = session.execute_draw(draw, temp_pool,
                                               touched=touched)
                self._tally(tallies, gpu, metrics, draw.state.early_z)
                works[gpu].append(DrawWork(
                    draw_id=draw.draw_id,
                    triangles=draw.num_triangles,
                    geometry_cycles=self.costs.geometry_cycles(
                        draw.num_triangles, draw.vertex_cost),
                    fragment_cycles=self.costs.fragment_cycles(
                        metrics.triangles_rasterized,
                        metrics.fragments_shaded, draw.pixel_cost),
                    fragments=metrics.fragments_shaded))
            layers.append(SubImage(color=layer_fb.color,
                                   depth=clear_depth.copy(),
                                   touched=touched))
            layer_tiles.append(grid.touched_tiles(touched))

        # Adjacent-pair reduction tree (receiver = lower/earlier side).
        tree_levels: List[List[Tuple[int, int, int]]] = []
        current = dict(enumerate(layers))
        survivors = list(range(n))
        while len(survivors) > 1:
            level: List[Tuple[int, int, int]] = []
            nxt = []
            for i in range(0, len(survivors) - 1, 2):
                receiver, sender = survivors[i], survivors[i + 1]
                pixels = _tile_covered_pixels(current[sender].touched, grid)
                current[receiver] = blend_merge(
                    current[receiver], current[sender], op)
                level.append((sender, receiver, pixels))
                nxt.append(receiver)
            if len(survivors) % 2 == 1:
                nxt.append(survivors[-1])
            survivors = nxt
            tree_levels.append(level)

        root_layer = current[0]
        scatter_map = grid.region_sizes_to_gpus(root_layer.touched, n)
        scatter_pixels = [scatter_map.get(g, 0) for g in range(n)]
        resolve_to_background(global_pool.render_target(rt).color,
                              global_pool.depth_buffer(db), root_layer, op,
                              depth_write=False)
        self._refresh_own_regions(plan, global_pool, local_pools, own_masks)
        return _GroupPrep(plan=plan, mode=plan.mode, works=works,
                          tree_levels=tree_levels,
                          scatter_pixels=scatter_pixels,
                          layer_tiles=layer_tiles)

    # ------------------------------------------------------------ timing

    def _timing_pass(self, trace: Trace, prep: _ChopinPrep,
                     degraded: Optional[_DegradedPlan] = None,
                     link_faults: bool = True,
                     ) -> Tuple[SchemeResult, List[List[float]]]:
        """Run the DES; returns the result plus each GPU's per-group
        involvement-end timeline (used to place fail-stops).

        With ``degraded`` set, repaired groups run over the survivor set:
        adopted draws execute on survivors (gated on the failure cycle),
        composition excludes the dead GPUs, and transparent groups use the
        rebuilt reduction trees and per-group barriers. ``link_faults=False``
        forces perfect links (the fault-free baseline pass).
        """
        cfg = self.config
        n = cfg.num_gpus
        stats = RunStats(num_gpus=n)
        stats.composition_groups = prep.total_groups
        stats.accelerated_groups = prep.accelerated_groups
        sim = self._make_sim()
        engines = [GPUEngine(sim, g, self.costs, stats.gpus[g],
                             update_interval=1 << 30)
                   for g in range(n)]
        interconnect = Interconnect(
            sim, cfg, stats,
            fault_plan=cfg.faults if link_faults else None)
        barrier = Barrier(sim, n)
        pixel_bytes = cfg.pixel_bytes
        samples = cfg.msaa_samples
        num_groups = len(prep.groups)
        ends = [[0.0] * num_groups for _ in range(n)]

        def note_end(gpu: int, gi: int) -> None:
            if sim.now > ends[gpu][gi]:
                ends[gpu][gi] = sim.now

        def repair_of(gi: int) -> Optional[_GroupRepair]:
            if degraded is None:
                return None
            return degraded.repairs.get(gi)

        # Per-GPU cross-group pipeline window: bounds how many rendered
        # groups may await their own composition (``None`` = unbounded).
        windows = [PipelineWindow(cfg.pipeline_depth) for _ in range(n)]
        stall_cycles = [0.0] * n
        overlap_cycles = [0.0] * n
        last_render_end = [0.0] * n

        # Pre-build per-group synchronization objects (no intra-sim races).
        # One scheduler table spans the whole frame: every opaque group is
        # admitted into its in-flight window up front (admission = CGID
        # order) and each GPU's row advances through the groups as its own
        # composition chain progresses; a group retires once every alive
        # participant finished composing it.
        sched: Optional[ImageCompositionScheduler] = None
        comp_remaining: Dict[int, int] = {}
        ready_events: List[List[Event]] = []
        receive_latches: List[List[Optional[Countdown]]] = []
        tile_sends: List[Optional[List[list]]] = []
        chunk_events: List[List[Event]] = []
        scatter_events: List[List[Event]] = []
        region_matrices: List[Optional[np.ndarray]] = []
        group_barriers: Dict[int, Barrier] = {}
        for gi, gp in enumerate(prep.groups):
            repair = repair_of(gi)
            alive = repair.alive if repair is not None else list(range(n))
            ready_events.append([Event(sim) for _ in range(n)])
            if gp.mode is GroupMode.OPAQUE_PARALLEL:
                matrix = gp.region_pixels
                if repair is not None and repair.region_pixels is not None:
                    matrix = repair.region_pixels
                region_matrices.append(matrix)
                if self.composition_style == "tiles":
                    bitmaps = (gp.touched_tiles if repair is None
                               else repair.touched_tiles)
                    owner = (prep.tile_owner if repair is None
                             else repair.tile_owner)
                    sends, recv_counts = plan_group_tiles(
                        bitmaps, prep.tile_pixels, owner)
                    tile_sends.append(sends)
                    latches = [Countdown(sim, recv_counts[dst])
                               for dst in range(n)]
                else:
                    tile_sends.append(None)
                    latches = []
                    for dst in range(n):
                        senders = int((matrix[:, dst] > 0).sum())
                        latches.append(Countdown(sim, senders))
                receive_latches.append(latches)
                if self.use_composition_scheduler and len(alive) > 1:
                    if sched is None:
                        sched = ImageCompositionScheduler(n, sim)
                    cgid = gp.plan.group.index
                    if repair is not None:
                        allowed = [set(alive) - {g} if g in alive else set()
                                   for g in range(n)]
                        sched.open_group(cgid, allowed_partners=allowed)
                    else:
                        sched.open_group(cgid)
                    comp_remaining[cgid] = len(alive)
            else:
                region_matrices.append(None)
                receive_latches.append([None] * n)
                tile_sends.append(None)
            chunk_events.append([Event(sim) for _ in range(n)])
            scatter_events.append([Event(sim) for _ in range(n)])
            if (repair is not None
                    and gp.mode is GroupMode.TRANSPARENT_PARALLEL):
                group_barriers[gi] = Barrier(sim, len(alive))

        # Wire up transparent reduction trees + scatters.
        for gi, gp in enumerate(prep.groups):
            if gp.mode is not GroupMode.TRANSPARENT_PARALLEL:
                continue
            self._wire_transparent(sim, interconnect, stats, gp,
                                   chunk_events[gi], scatter_events[gi],
                                   repair=repair_of(gi),
                                   tile_pixels=prep.tile_pixels)

        def compose_naive(gpu: int, gi: int):
            matrix = region_matrices[gi]
            ready_events[gi][gpu].succeed()
            sends = []
            for offset in range(1, n):
                dst = (gpu + offset) % n
                pixels = int(matrix[gpu, dst]) * samples
                if pixels == 0:
                    continue
                sends.append(sim.process(self._send_subimage(
                    interconnect, stats, gpu, dst, pixels, pixel_bytes,
                    gate=ready_events[gi][dst],
                    latch=receive_latches[gi][dst])))
            if sends:
                yield sim.all_of(sends)
            yield receive_latches[gi][gpu].event

        def compose_tiles(gpu: int, gi: int):
            # DFB: stream every touched tile straight to its owner, no
            # receiver gating — the owner folds tiles in arrival order
            # (any-order argmin reduction, bit-identical by construction).
            # Messages serialize on the sender's egress port, each paying
            # its own head latency: the per-tile message cost model.
            sends = []
            for message in tile_sends[gi][gpu]:
                pixels = message.pixels * samples
                if pixels == 0:
                    continue
                sends.append(sim.process(self._send_subimage(
                    interconnect, stats, gpu, message.dst, pixels,
                    pixel_bytes, gate=None,
                    latch=receive_latches[gi][message.dst])))
            if sends:
                yield sim.all_of(sends)
            yield receive_latches[gi][gpu].event

        def opaque_comp_proc(gpu: int, gi: int,
                             prev_done: Event, done: Event):
            # One composition at a time per GPU, in group (CGID) order; the
            # GPU's engines meanwhile render the next group (Fig 3's
            # overlapped Comp stage).
            if not prev_done.processed:
                yield prev_done
            comp_start = sim.now
            if self.use_composition_scheduler:
                yield from compose_scheduled(gpu, gi)
            elif self.composition_style == "tiles":
                yield from compose_tiles(gpu, gi)
            else:
                yield from compose_naive(gpu, gi)
            # Cycles this composition spent under later groups' rendering:
            # the overlap the cross-group pipeline exists to create.
            overlap = min(sim.now, last_render_end[gpu]) - comp_start
            if overlap > 0:
                overlap_cycles[gpu] += overlap
            note_end(gpu, gi)
            done.succeed()
            cgid = prep.groups[gi].plan.group.index
            if sched is not None and cgid in comp_remaining:
                comp_remaining[cgid] -= 1
                if comp_remaining[cgid] == 0:
                    sched.retire_group(cgid)

        def compose_scheduled(gpu: int, gi: int):
            matrix = region_matrices[gi]
            sched.advance(gpu, prep.groups[gi].plan.group.index)
            sched.mark_ready(gpu)
            in_flight = []
            while not sched.gpu_done(gpu):
                sender = sched.find_sender_for(gpu)
                if sender is None:
                    yield sched.wait_change()
                    continue
                sched.begin(sender, gpu)
                pixels = int(matrix[sender, gpu]) * samples
                if pixels:
                    # Pull the sub-image; free the pair for new matches as
                    # soon as the ports drain (the message tail — latency +
                    # ROP composition — pipelines with the next pull).
                    released = Event(sim)
                    compose_cycles = self.costs.compose_cycles(pixels)
                    in_flight.append(sim.process(interconnect.transfer(
                        sender, gpu, pixels * pixel_bytes,
                        TRAFFIC_COMPOSITION, receive_cycles=compose_cycles,
                        ports_released=released)))
                    stats.add_cycles(gpu, STAGE_COMPOSITION, compose_cycles)
                    yield released
                sched.complete(sender, gpu)
            if in_flight:
                yield sim.all_of(in_flight)

        def run_adopted(gpu: int, repair: _GroupRepair, group_start: float):
            # Draws adopted from dead GPUs: the driver re-issues them after
            # the failure is detected, so none starts before the failure
            # cycle (and opaque re-issues keep their original issue pacing).
            for work, offset, not_before in repair.adopted.get(gpu, ()):
                resume = max(group_start + offset, not_before)
                if resume > sim.now:
                    yield sim.timeout(resume - sim.now)
                yield from engines[gpu].geometry(work)

        def gpu_process(gpu: int):
            # `comp_tail` is this GPU's composition-chain tail: groups
            # compose in CGID order while rendering runs ahead (no global
            # barrier between opaque groups).
            comp_tail = Event(sim)
            comp_tail.succeed()
            for gi, gp in enumerate(prep.groups):
                repair = repair_of(gi)
                if repair is not None and gpu in repair.dead:
                    break  # fail-stop: this GPU leaves the frame here
                # Pipeline-window admission: with a bounded depth, wait for
                # this GPU's own oldest pending composition before starting
                # another group's rendering (sub-image buffers are full).
                gate = windows[gpu].admit_gate()
                while gate is not None:
                    stall_start = sim.now
                    yield gate
                    stall_cycles[gpu] += sim.now - stall_start
                    gate = windows[gpu].admit_gate()
                group_start = sim.now
                alive_count = len(repair.alive) if repair is not None else n
                if gp.mode is GroupMode.DUPLICATE:
                    yield from engines[gpu].run_draws(gp.works[gpu])
                    if repair is not None:
                        yield from run_adopted(gpu, repair, group_start)
                    yield engines[gpu].drain()
                    last_render_end[gpu] = sim.now
                    note_end(gpu, gi)
                elif gp.mode is GroupMode.OPAQUE_PARALLEL:
                    for work, when in zip(gp.works[gpu],
                                          gp.issue_times[gpu]):
                        wait = group_start + when - sim.now
                        if wait > 0:
                            yield sim.timeout(wait)
                        yield from engines[gpu].geometry(work)
                    if repair is not None:
                        yield from run_adopted(gpu, repair, group_start)
                    yield engines[gpu].drain()
                    last_render_end[gpu] = sim.now
                    note_end(gpu, gi)
                    if alive_count > 1:
                        done = Event(sim)
                        sim.process(
                            opaque_comp_proc(gpu, gi, comp_tail, done),
                            name=f"{self.name}-comp-g{gi}-gpu{gpu}")
                        comp_tail = done
                        windows[gpu].push(done)
                else:  # transparent: needs globally composed depth -> sync
                    if not comp_tail.processed:
                        yield comp_tail
                    group_barrier = group_barriers.get(gi, barrier)
                    yield group_barrier.wait()
                    if alive_count > 1:
                        own_pixels = (trace.width * trace.height
                                      / alive_count)
                        yield from interconnect.broadcast(
                            gpu, own_pixels * DEPTH_BYTES, TRAFFIC_SYNC,
                            targets=(repair.alive if repair is not None
                                     else None))
                        yield group_barrier.wait()
                    yield from engines[gpu].run_draws(gp.works[gpu])
                    if repair is not None:
                        yield from run_adopted(gpu, repair, group_start)
                    yield engines[gpu].drain()
                    last_render_end[gpu] = sim.now
                    chunk_events[gi][gpu].succeed()
                    yield scatter_events[gi][gpu]
                    yield group_barrier.wait()
                    note_end(gpu, gi)
            if not comp_tail.processed:
                yield comp_tail

        processes = [sim.process(gpu_process(gpu),
                                 name=f"{self.name}-gpu{gpu}")
                     for gpu in range(n)]
        stats.frame_cycles = self._run_sim_checked(sim, processes,
                                                   stats=stats)

        stats.pipeline_depth = (0 if cfg.pipeline_depth is None
                                else cfg.pipeline_depth)
        stats.pipeline_stall_cycles = sum(stall_cycles)
        stats.comp_overlap_cycles = sum(overlap_cycles)
        busy = sum(g.total_cycles for g in stats.gpus)
        stats.idle_cycles = max(0.0, n * stats.frame_cycles - busy)
        if sched is not None:
            stats.scheduler_groups_peak = sched.groups_peak

        for gpu, tally in enumerate(prep.tallies):
            gstats = stats.gpus[gpu]
            gstats.fragments_generated = tally.generated
            gstats.fragments_shaded = tally.shaded
            gstats.fragments_early_z_tested = tally.early_tested
            gstats.fragments_passed_early_z = tally.early_passed
            gstats.fragments_passed_late = tally.late_passed
        result = SchemeResult(scheme=self.name, trace_name=trace.name,
                              num_gpus=n, stats=stats,
                              image=prep.image.copy())
        return result, ends

    def _send_subimage(self, interconnect, stats, src, dst, pixels,
                       pixel_bytes, gate, latch):
        compose_cycles = self.costs.compose_cycles(pixels)
        yield from interconnect.transfer(
            src, dst, pixels * pixel_bytes, TRAFFIC_COMPOSITION,
            gate=gate, receive_cycles=compose_cycles)
        stats.add_cycles(dst, STAGE_COMPOSITION, compose_cycles)
        latch.arrive()

    def _wire_transparent(self, sim, interconnect, stats, gp,
                          chunk_done, scatter_done,
                          repair: Optional[_GroupRepair] = None,
                          tile_pixels: Optional[np.ndarray] = None) -> None:
        """Spawn the pair-reduction and scatter processes for one group.

        With ``repair`` set, the rebuilt tree (over survivors, merged-chunk
        bitmaps) replaces the fault-free one and the final scatter covers
        only surviving GPUs (dead GPUs' tiles went to their inheritors).

        Under the DFB scheme (``composition_style == "tiles"``) every tree
        edge streams its payload one tile at a time in raster order — the
        receiver folds each tile as it lands (tree-adjacent tile reduction),
        at the cost of one head latency per tile message.
        """
        n = self.config.num_gpus
        pixel_bytes = self.config.pixel_bytes
        samples = self.config.msaa_samples
        if repair is not None and repair.tree_levels is not None:
            tree_levels = repair.tree_levels
            root = repair.root
            scatter_plan = [(dst, repair.scatter_sizes.get(dst, 0))
                            for dst in repair.alive]
            ready: Dict[int, Event] = {m: chunk_done[m]
                                       for m in repair.alive}
            leaf_bitmaps = repair.layer_bitmaps
        else:
            tree_levels = gp.tree_levels
            root = 0
            scatter_plan = [(dst,
                             gp.scatter_pixels[dst] if gp.scatter_pixels
                             else 0)
                            for dst in range(n)]
            ready = dict(enumerate(chunk_done))
            leaf_bitmaps = dict(enumerate(gp.layer_tiles))
        tile_streams = None
        if self.composition_style == "tiles" and tile_pixels is not None:
            tile_streams = tree_edge_tile_sizes(tree_levels, leaf_bitmaps,
                                                tile_pixels)

        def pair_proc(sender, receiver, pixels, ready_s, ready_r, out,
                      tiles=None):
            # Adjacent pairs start only when both sides are available.
            # (Gating a tree transfer on a *previous* transfer's completion
            # would pin the receiver's ingress port against the very message
            # that must complete first — so no naive gating here; this is
            # exactly the readiness handshake §IV-E prescribes.)
            yield sim.all_of([ready_s, ready_r])
            if tiles is not None:
                for tile_px in tiles:
                    tile_px *= samples
                    if tile_px == 0:
                        continue
                    compose_cycles = self.costs.compose_cycles(tile_px)
                    yield from interconnect.transfer(
                        sender, receiver, tile_px * pixel_bytes,
                        TRAFFIC_COMPOSITION, receive_cycles=compose_cycles)
                    stats.add_cycles(receiver, STAGE_COMPOSITION,
                                     compose_cycles)
            elif pixels:
                compose_cycles = self.costs.compose_cycles(pixels)
                yield from interconnect.transfer(
                    sender, receiver, pixels * pixel_bytes,
                    TRAFFIC_COMPOSITION, receive_cycles=compose_cycles)
                stats.add_cycles(receiver, STAGE_COMPOSITION, compose_cycles)
            out.succeed()

        for li, level in enumerate(tree_levels):
            for ei, (sender, receiver, pixels) in enumerate(level):
                pixels *= samples
                out = Event(sim)
                tiles = tile_streams[li][ei] if tile_streams else None
                sim.process(
                    pair_proc(sender, receiver, pixels,
                              ready[sender], ready[receiver], out,
                              tiles=tiles),
                    name=f"pair-{sender}->{receiver}")
                ready[receiver] = out
        root_ready = ready[root]

        def scatter_proc(dst, pixels):
            yield root_ready
            if dst == root:
                # The root blends its own region with the background locally.
                compose_cycles = self.costs.compose_cycles(pixels)
                if compose_cycles:
                    yield sim.timeout(compose_cycles)
                stats.add_cycles(root, STAGE_COMPOSITION, compose_cycles)
            elif pixels:
                compose_cycles = self.costs.compose_cycles(pixels)
                yield from interconnect.transfer(
                    root, dst, pixels * pixel_bytes, TRAFFIC_COMPOSITION,
                    receive_cycles=compose_cycles)
                stats.add_cycles(dst, STAGE_COMPOSITION, compose_cycles)
            scatter_done[dst].succeed()

        for dst, pixels in scatter_plan:
            sim.process(scatter_proc(dst, pixels * samples),
                        name=f"scatter-{dst}")


def _tile_covered_pixels(touched: np.ndarray, grid: TileGrid) -> int:
    """Pixels transferred for a touched mask at tile granularity."""
    tiles = grid.touched_tiles(touched)
    total = 0
    for ty in range(grid.tiles_y):
        for tx in range(grid.tiles_x):
            if tiles[ty, tx]:
                x0, y0, x1, y1 = grid.tile_bounds(tx, ty)
                total += (x1 - x0) * (y1 - y0)
    return total


class ChopinWithScheduler(Chopin):
    """CHOPIN + the image composition scheduler (the paper's CHOPIN+)."""

    name = "chopin+sched"
    use_composition_scheduler = True


class IdealChopin(ChopinWithScheduler):
    """Upper bound: free links, unlimited buffering (the paper's
    IdealCHOPIN)."""

    name = "chopin-ideal"

    def __init__(self, config: SystemConfig, costs=None,
                 draw_scheduler: str = "least-remaining") -> None:
        super().__init__(config.idealized(), costs, draw_scheduler)


class ChopinRoundRobin(Chopin):
    """CHOPIN with naive round-robin draw scheduling (Fig 8's strawman)."""

    name = "chopin-rr"

    def __init__(self, config: SystemConfig, costs=None) -> None:
        super().__init__(config, costs, draw_scheduler="round-robin")


class ChopinSampled(ChopinWithScheduler):
    """§IV-D strawman: OO-VR-style static rate sampling for scheduling."""

    name = "chopin-sampled"

    def __init__(self, config: SystemConfig, costs=None) -> None:
        super().__init__(config, costs, draw_scheduler="sampled")


class ChopinOracle(ChopinWithScheduler):
    """Ablation upper bound: offline LPT scheduling by estimated total draw
    cost. Unrealistic in hardware (per-draw runtimes are unknown before
    execution, §IV-D) — bounds the headroom left above the remaining-
    triangles heuristic."""

    name = "chopin-oracle"

    def __init__(self, config: SystemConfig, costs=None) -> None:
        super().__init__(config, costs, draw_scheduler="oracle")
