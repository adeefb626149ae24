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
   interconnect with port contention, and the scheme's composition
   ``transport`` (:mod:`repro.sfr.transport`): naive direct-send
   (transfers gated on busy receivers congest the fabric), the image
   composition scheduler (only ready+idle pairs exchange) or DFB tile
   streaming (ungated per-tile messages to tile owners).

Correctness invariant (tested): the final image equals single-GPU rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from ..composition.compositor import (SubImage, blend_merge, composite_opaque,
                                      resolve_to_background)
from ..composition.operators import identity_for
from ..config import SystemConfig
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
from ..sim import Barrier, Event
from ..stats import RunStats, STAGE_COMPOSITION, TRAFFIC_SYNC
from ..timing.costs import CostModel
from ..timing.gpu import DrawWork, GPUEngine
from ..timing.interconnect import Interconnect
from ..traces.trace import Trace
from .base import SchemeResult, SFRScheme
from .transport import GatedDirectSend, ReadyIdlePairing, Transport

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
    #: reduction trees, tile streaming and tile inheritance
    tile_pixels: np.ndarray
    tile_owner: np.ndarray


@dataclass
class _GroupView:
    """One group's composition inputs, with any fail-stop repair resolved.

    A fault-free group's view is its prep plan over every GPU (nobody
    dead); a repaired group's runs over the survivors, who adopt the dead
    GPUs' draws, composition traffic and framebuffer tiles.
    """

    #: GPUs executing this group / GPUs dead by then
    alive: List[int]
    dead: List[int] = field(default_factory=list)
    #: survivor -> [(work, issue_offset, not_before_cycle)] — draws adopted
    #: from dead GPUs; ``not_before`` is the failure (detection) cycle
    adopted: Dict[int, List[Tuple[DrawWork, float, float]]] = field(
        default_factory=dict)
    #: src->dst composition pixels, per-GPU touched-tile bitmaps and tile
    #: ownership (opaque groups)
    region_pixels: Optional[np.ndarray] = None
    touched_tiles: Optional[List[np.ndarray]] = None
    tile_owner: Optional[np.ndarray] = None
    #: reduction tree over the layer holders, its root, the root's scatter
    #: pixels per GPU and each holder's layer bitmap (transparent groups)
    tree_levels: List[List[Tuple[int, int, int]]] = field(
        default_factory=list)
    root: int = 0
    scatter_sizes: Dict[int, int] = field(default_factory=dict)
    leaf_bitmaps: Dict[int, np.ndarray] = field(default_factory=dict)
    #: rendezvous of the live GPUs, made fresh for every timing pass
    barrier: Optional[Barrier] = None


@dataclass
class _DegradedPlan:
    """Frame-level recovery plan derived from the fault-free baseline.

    ``failure_group[gpu]`` is the first group the dead GPU cannot complete
    (groups before it ran normally); ``repairs[gi]`` exists for every group
    at which at least one GPU is dead.
    """

    failure_group: Dict[int, int]
    repairs: Dict[int, _GroupView]
    redistributed_draws: int = 0
    recovery_cycles: float = 0.0


class Chopin(SFRScheme):
    """CHOPIN with naive direct-send composition (no composition scheduler)."""

    name = "chopin"
    #: how sub-images travel between GPUs (:mod:`repro.sfr.transport`)
    transport: Type[Transport] = GatedDirectSend
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
            repair = _GroupView(alive=alive, dead=dead)

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
                repair.leaf_bitmaps = bitmaps
            dplan.repairs[gi] = repair
        return dplan

    # -------------------------------------------------------- assignment

    # -------------------------------------------------------- functional

    def _prep_inputs(self) -> _PrepInputs:
        cfg = self.config
        return _PrepInputs(
            prep_rev=2, num_gpus=cfg.num_gpus, tile_size=cfg.tile_size,
            composition_threshold=cfg.composition_threshold,
            scheduler_update_interval=cfg.scheduler_update_interval,
            retained_cull_fraction=cfg.retained_cull_fraction,
            draw_scheduler=self.draw_scheduler_kind, costs=self.costs)

    def _functional_pass(self, trace: Trace) -> _ChopinPrep:
        return render_service().memo("chopin-prep", _functional_pass,
                                     trace=trace, prep=self._prep_inputs())

    def _assign_group(self, draws) -> Tuple[List[int], List[float]]:
        """Analytic driver replay: per-draw GPU assignment + issue times."""
        return _FunctionalPass(self._prep_inputs()).assign_group(draws)

    # ------------------------------------------------------------ timing

    def _timing_pass(self, trace: Trace, prep: _ChopinPrep,
                     degraded: Optional[_DegradedPlan] = None,
                     link_faults: bool = True,
                     ) -> Tuple[SchemeResult, List[List[float]]]:
        """Run the DES; returns the result plus each GPU's per-group
        involvement-end timeline (used to place fail-stops). With
        ``degraded`` set, repaired groups run over their survivors;
        ``link_faults=False`` forces perfect links (the baseline pass).
        """
        cfg = self.config
        n = cfg.num_gpus
        stats = RunStats(num_gpus=n)
        sim = self._make_sim()
        engines = [GPUEngine(sim, g, self.costs, stats.gpus[g],
                             update_interval=1 << 30)
                   for g in range(n)]
        interconnect = Interconnect(
            sim, cfg, stats,
            fault_plan=cfg.faults if link_faults else None)
        transport = self.transport(sim, interconnect, stats, self.costs,
                                   prep.tile_pixels)
        views = self._group_views(sim, prep, degraded)
        ends = [[0.0] * len(views) for _ in range(n)]
        # Per-GPU cross-group pipeline window: bounds how many rendered
        # groups may await their own composition (``None`` = unbounded).
        windows = [PipelineWindow(cfg.pipeline_depth) for _ in range(n)]
        stall_cycles = [0.0] * n
        overlap_cycles = [0.0] * n
        last_render_end = [0.0] * n

        # Open every group's composition before the DES starts; a
        # transparent group's tree yields per-GPU (chunk, scatter) events.
        for gi, (gp, view) in enumerate(zip(prep.groups, views)):
            if gp.mode is GroupMode.OPAQUE_PARALLEL and len(view.alive) > 1:
                transport.open_group(gi, gp.plan.group.index, view)
        tree_events = {gi: self._wire_transparent(sim, transport, view)
                       for gi, (gp, view) in enumerate(zip(prep.groups, views))
                       if gp.mode is GroupMode.TRANSPARENT_PARALLEL}

        def note_end(gpu: int, gi: int) -> None:
            if sim.now > ends[gpu][gi]:
                ends[gpu][gi] = sim.now

        def opaque_comp_proc(gpu: int, gi: int,
                             prev_done: Event, done: Event):
            # One composition at a time per GPU, in group (CGID) order; the
            # GPU's engines meanwhile render the next group (Fig 3's
            # overlapped Comp stage).
            if not prev_done.processed:
                yield prev_done
            comp_start = sim.now
            yield from transport.compose(gpu, gi)
            # Cycles this composition spent under later groups' rendering:
            # the overlap the cross-group pipeline exists to create.
            overlap = min(sim.now, last_render_end[gpu]) - comp_start
            if overlap > 0:
                overlap_cycles[gpu] += overlap
            note_end(gpu, gi)
            done.succeed()

        def gpu_process(gpu: int):
            # `comp_tail` is this GPU's composition-chain tail: groups
            # compose in CGID order while rendering runs ahead (no global
            # barrier between opaque groups).
            comp_tail = Event(sim)
            comp_tail.succeed()
            for gi, (gp, view) in enumerate(zip(prep.groups, views)):
                if gpu in view.dead:
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
                transparent = gp.mode is GroupMode.TRANSPARENT_PARALLEL
                if transparent:  # needs globally composed depth -> sync
                    if not comp_tail.processed:
                        yield comp_tail
                    yield view.barrier.wait()
                    if len(view.alive) > 1:
                        own_pixels = trace.width * trace.height / len(
                            view.alive)
                        yield interconnect.broadcast(
                            gpu, own_pixels * DEPTH_BYTES, TRAFFIC_SYNC,
                            targets=view.alive)
                        yield view.barrier.wait()
                yield from self._render(sim, engines[gpu], gp, view, gpu,
                                        group_start)
                last_render_end[gpu] = sim.now
                note_end(gpu, gi)
                if transparent:
                    chunk_done, scatter_done = tree_events[gi]
                    chunk_done[gpu].succeed()
                    yield scatter_done[gpu]
                    yield view.barrier.wait()
                    note_end(gpu, gi)
                elif (gp.mode is GroupMode.OPAQUE_PARALLEL
                      and len(view.alive) > 1):
                    done = Event(sim)
                    sim.process(
                        opaque_comp_proc(gpu, gi, comp_tail, done),
                        name=f"{self.name}-comp-g{gi}-gpu{gpu}")
                    comp_tail = done
                    windows[gpu].push(done)
            if not comp_tail.processed:
                yield comp_tail

        processes = [sim.process(gpu_process(gpu),
                                 name=f"{self.name}-gpu{gpu}")
                     for gpu in range(n)]
        stats.frame_cycles = self._run_sim_checked(sim, processes,
                                                   stats=stats)
        stats.pipeline_stall_cycles = sum(stall_cycles)
        stats.comp_overlap_cycles = sum(overlap_cycles)
        return self._frame_result(trace, prep, stats), ends

    @staticmethod
    def _render(sim, engine: GPUEngine, gp: _GroupPrep, view: _GroupView,
                gpu: int, group_start: float):
        """Process fragment: one GPU renders its share of a group.

        Its own draws issue at their recorded offsets (only opaque groups
        pace the driver); draws adopted from dead GPUs follow, re-issued
        once the failure is detected and never before its cycle.
        """
        offsets = (gp.issue_times[gpu]
                   if gp.mode is GroupMode.OPAQUE_PARALLEL else repeat(0.0))
        issues = [(work, group_start + offset)
                  for work, offset in zip(gp.works[gpu], offsets)]
        issues += [(work, max(group_start + offset, not_before))
                   for work, offset, not_before in view.adopted.get(gpu, ())]
        for work, at in issues:
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            yield from engine.geometry(work)
        yield engine.drain()

    def _frame_result(self, trace: Trace, prep: _ChopinPrep,
                      stats: RunStats) -> SchemeResult:
        """Stamp the frame-level and functional counters onto ``stats``."""
        cfg = self.config
        stats.composition_groups = prep.total_groups
        stats.accelerated_groups = prep.accelerated_groups
        stats.pipeline_depth = (0 if cfg.pipeline_depth is None
                                else cfg.pipeline_depth)
        busy = sum(g.total_cycles for g in stats.gpus)
        stats.idle_cycles = max(0.0, cfg.num_gpus * stats.frame_cycles - busy)
        for gstats, tally in zip(stats.gpus, prep.tallies):
            gstats.fragments_generated = tally.generated
            gstats.fragments_shaded = tally.shaded
            gstats.fragments_early_z_tested = tally.early_tested
            gstats.fragments_passed_early_z = tally.early_passed
            gstats.fragments_passed_late = tally.late_passed
        return SchemeResult(scheme=self.name, trace_name=trace.name,
                            num_gpus=cfg.num_gpus, stats=stats,
                            image=prep.image.copy())

    def _group_views(self, sim, prep: _ChopinPrep,
                     degraded: Optional[_DegradedPlan]) -> List[_GroupView]:
        """Resolve every group's view once: its fail-stop repair, if it has
        one, else its fault-free plan; each with a fresh barrier."""
        repairs = degraded.repairs if degraded is not None else {}
        views = []
        for gi, gp in enumerate(prep.groups):
            view = repairs.get(gi) or _GroupView(
                alive=list(range(self.config.num_gpus)),
                region_pixels=gp.region_pixels,
                touched_tiles=gp.touched_tiles, tile_owner=prep.tile_owner,
                tree_levels=gp.tree_levels,
                scatter_sizes=dict(enumerate(gp.scatter_pixels or ())),
                leaf_bitmaps=dict(enumerate(gp.layer_tiles)))
            views.append(replace(view, barrier=Barrier(sim, len(view.alive))))
        return views

    def _wire_transparent(self, sim, transport: Transport, view: _GroupView,
                          ) -> Tuple[List[Event], List[Event]]:
        """Spawn the pair-reduction and scatter processes for one group.

        The adjacent-pair tree runs over the view's layer holders, every
        edge sending the transport's message sizes; the root then scatters
        the composed layer to the live GPUs (after a fail-stop, dead GPUs'
        tiles belong to their inheritors). Returns the per-GPU events the
        GPUs fire when their layer is rendered and wait on for the scatter.
        """
        n = self.config.num_gpus
        samples = self.config.msaa_samples
        chunk_done = [Event(sim) for _ in range(n)]
        scatter_done = [Event(sim) for _ in range(n)]

        def pair_proc(sender, receiver, messages, ready_s, ready_r, out):
            # Adjacent pairs start only when both sides are available.
            # (Gating a tree transfer on a *previous* transfer's completion
            # would pin the receiver's ingress port against the very message
            # that must complete first — so no naive gating here; this is
            # exactly the readiness handshake §IV-E prescribes.)
            yield sim.all_of([ready_s, ready_r])
            for pixels in messages:
                if pixels:
                    yield transport.deliver(sender, receiver,
                                            pixels * samples)
            out.succeed()

        ready: Dict[int, Event] = {m: chunk_done[m] for m in view.alive}
        for level, sizes in zip(view.tree_levels,
                                transport.edge_messages(view)):
            for (sender, receiver, _), messages in zip(level, sizes):
                out = Event(sim)
                sim.process(
                    pair_proc(sender, receiver, messages,
                              ready[sender], ready[receiver], out),
                    name=f"pair-{sender}->{receiver}")
                ready[receiver] = out
        root, root_ready = view.root, ready[view.root]

        def scatter_proc(dst, pixels):
            yield root_ready
            if dst == root:
                # The root blends its own region with the background locally.
                compose_cycles = self.costs.compose_cycles(pixels)
                if compose_cycles:
                    yield sim.timeout(compose_cycles)
                transport.stats.add_cycles(root, STAGE_COMPOSITION,
                                           compose_cycles)
            elif pixels:
                yield transport.deliver(root, dst, pixels)
            scatter_done[dst].succeed()

        for dst in view.alive:
            sim.process(scatter_proc(dst, view.scatter_sizes.get(dst, 0)
                                     * samples),
                        name=f"scatter-{dst}")
        return chunk_done, scatter_done


class ChopinWithScheduler(Chopin):
    """CHOPIN + the image composition scheduler (the paper's CHOPIN+)."""

    name = "chopin+sched"
    transport = ReadyIdlePairing


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


@dataclass(frozen=True)
class _PrepInputs:
    """Everything CHOPIN's functional pass reads besides the trace.

    The artifact store keys the prep on these fields (the cost model's
    fields, its GPU's included), so the prep cannot read an unkeyed
    input. Link fields stay out: one prep serves a whole link sweep.
    """

    #: bumped when the prep *content* changes shape: rev 2 added the
    #: per-GPU touched-tile bitmaps of opaque groups (DFB streaming)
    prep_rev: int
    num_gpus: int
    tile_size: int
    composition_threshold: int
    scheduler_update_interval: int
    retained_cull_fraction: float
    draw_scheduler: str
    costs: CostModel


def _functional_pass(trace: Trace, prep: _PrepInputs) -> _ChopinPrep:
    return _FunctionalPass(prep).run(trace)


class _FunctionalPass:
    """CHOPIN's functional pass: draw assignment, sub-images, composition.

    Renders the frame once the way the GPUs would split it, recording
    each group's per-GPU work and composition traffic for the timing
    pass. It sees only its :class:`_PrepInputs`.
    """

    def __init__(self, inputs: _PrepInputs) -> None:
        self.inputs = inputs
        self.costs = inputs.costs

    def _make_scheduler(self, draws=()) -> DrawScheduler:
        if self.inputs.draw_scheduler == "round-robin":
            return RoundRobinScheduler(self.inputs.num_gpus)
        if self.inputs.draw_scheduler == "oracle":
            # Unrealistic upper bound (§IV-D: exact runtimes are unknown
            # before execution): least-loaded by estimated *total* cycles.
            return OracleLPTScheduler(
                self.inputs.num_gpus,
                costs=[self._estimate_draw_cycles(d) for d in draws])
        if self.inputs.draw_scheduler == "sampled":
            # OO-VR-style: rates sampled from the first draws, reused for
            # the frame (the §IV-D strawman the paper rejects).
            return SampledRateScheduler(
                self.inputs.num_gpus, self._sampled_estimates(draws))
        return LeastRemainingTrianglesScheduler(self.inputs.num_gpus)

    def _sampled_estimates(self, draws, sample_size: int = 8):
        """Wimmer-Wonka ``c1*#tv + c2*#pix`` with rates frozen from the
        first ``sample_size`` draws."""
        sample = list(draws)[:sample_size] or list(draws)
        if not sample:
            return []
        c1 = float(np.mean([d.vertex_cost for d in sample])) \
            / self.costs.gpu.num_sms
        c2 = float(np.mean([d.pixel_cost for d in sample])) \
            / self.costs.gpu.num_rops
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

    def assign_group(self, draws) -> Tuple[List[int], List[float]]:
        """Analytic driver replay: per-draw GPU assignment + issue times."""
        n = self.inputs.num_gpus
        scheduler = self._make_scheduler(draws)
        issue_cost = self.costs.draw_issue_cost
        interval = max(1, self.inputs.scheduler_update_interval)
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

    def run(self, trace: Trace) -> _ChopinPrep:
        inputs = self.inputs
        n = inputs.num_gpus
        width, height = trace.width, trace.height
        grid = TileGrid(width, height, inputs.tile_size)
        own_masks = [grid.gpu_pixel_mask(g, n) for g in range(n)]
        owner_map = grid.owner_map(n)
        session = render_service().session(trace)
        global_pool = SurfacePool(width, height)
        local_pools = [SurfacePool(width, height) for _ in range(n)]
        rng = np.random.default_rng(0xC40F1)
        tallies = [_FragTally() for _ in range(n)]
        tile_pixels = tile_pixel_counts(grid)
        tile_owner = tile_owner_matrix(grid, n)

        plans = plan_trace_frame(trace, inputs)
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
                    grid, tallies, tile_pixels, tile_owner))

        summary = summarize_plan(plans)
        return _ChopinPrep(groups=group_preps,
                           image=global_pool.render_target(0).copy(),
                           tallies=tallies,
                           total_groups=summary.total_groups,
                           accelerated_groups=summary.accelerated_groups,
                           tile_pixels=tile_pixels, tile_owner=tile_owner)

    def _tally(self, tallies, gpu: int, metrics, early_z: bool) -> None:
        tally = tallies[gpu]
        tally.generated += metrics.fragments_generated
        tally.shaded += metrics.fragments_shaded
        if early_z:
            tally.early_tested += metrics.early_z_tested
            tally.early_passed += metrics.early_z_passed
        tally.late_passed += metrics.late_passed

    def _draw_work(self, draw, rasterized: int, shaded: int) -> DrawWork:
        """Timing-pass work of one functionally executed draw."""
        return DrawWork(
            draw_id=draw.draw_id, triangles=draw.num_triangles,
            geometry_cycles=self.costs.geometry_cycles(draw.num_triangles,
                                                       draw.vertex_cost),
            fragment_cycles=self.costs.fragment_cycles(rasterized, shaded,
                                                       draw.pixel_cost),
            fragments=shaded)

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
        n = self.inputs.num_gpus
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
                works[gpu].append(self._draw_work(
                    draw, metrics.triangles_rasterized, shaded))
        self._refresh_own_regions(plan, global_pool, local_pools, own_masks)
        return _GroupPrep(plan=plan, mode=plan.mode, works=works)

    def _prep_opaque(self, plan, session, global_pool, local_pools,
                     own_masks, grid, tallies, rng) -> _GroupPrep:
        """Scheduled draws, full-screen local rendering, depth composition."""
        n = self.inputs.num_gpus
        draws = plan.group.draws
        assignment, issue_times = self.assign_group(draws)
        touched = [np.zeros((grid.height, grid.width), dtype=bool)
                   for _ in range(n)]
        works: List[List[DrawWork]] = [[] for _ in range(n)]
        issues: List[List[float]] = [[] for _ in range(n)]
        for draw, gpu, when in zip(draws, assignment, issue_times):
            metrics = session.execute_draw(
                draw, local_pools[gpu], touched=touched[gpu],
                retained_cull_fraction=self.inputs.retained_cull_fraction, rng=rng)
            self._tally(tallies, gpu, metrics, draw.state.early_z)
            works[gpu].append(self._draw_work(
                draw, metrics.triangles_rasterized, metrics.fragments_shaded))
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
                          own_masks, grid, tallies, tile_pixels,
                          tile_owner) -> _GroupPrep:
        """Even contiguous split, adjacent-pair associative reduction."""
        n = self.inputs.num_gpus
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
                works[gpu].append(self._draw_work(
                    draw, metrics.triangles_rasterized,
                    metrics.fragments_shaded))
            layers.append(SubImage(color=layer_fb.color,
                                   depth=clear_depth.copy(),
                                   touched=touched))
            layer_tiles.append(grid.touched_tiles(touched))

        # Adjacent-pair reduction tree (receiver = lower/earlier side): the
        # same tree fail-stop repair rebuilds over survivors, here over all.
        tree_levels, root, root_bitmap = rebuild_reduction(
            range(n), dict(enumerate(layer_tiles)), tile_pixels)
        for level in tree_levels:
            for sender, receiver, _ in level:
                layers[receiver] = blend_merge(layers[receiver],
                                               layers[sender], op)
        scatter_map = scatter_sizes(root_bitmap, tile_pixels, tile_owner,
                                    dead=(), inherit={})
        scatter_pixels = [scatter_map.get(g, 0) for g in range(n)]
        resolve_to_background(global_pool.render_target(rt).color,
                              global_pool.depth_buffer(db), layers[root], op,
                              depth_write=False)
        self._refresh_own_regions(plan, global_pool, local_pools, own_masks)
        return _GroupPrep(plan=plan, mode=plan.mode, works=works,
                          tree_levels=tree_levels,
                          scatter_pixels=scatter_pixels,
                          layer_tiles=layer_tiles)
