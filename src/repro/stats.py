"""Per-run statistics: cycle accounting by pipeline stage and traffic counters.

The paper's figures slice execution time along two axes:

- by pipeline *stage* (Fig 2, Fig 4, Fig 14): geometry processing,
  rasterization + fragment processing, primitive projection, primitive
  distribution, image composition, and synchronization stalls;
- by *traffic* (Fig 17, section VI-D): bytes moved for composition, primitive
  distribution, buffer synchronization, and scheduler updates.

:class:`RunStats` accumulates both, per GPU, and provides the aggregations the
report layer prints.

Every scalar counter :class:`RunStats` carries beyond those breakdowns is
declared once, with :func:`counter`; the run journal (``to_dict`` /
``from_dict``), the export groups (:meth:`RunStats.summary`) and the CSV
columns built on them are all derived from those declarations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, Iterable, List, Mapping, Optional, Union

# Canonical stage names, in the order the paper's breakdown figures stack them.
STAGE_GEOMETRY = "geometry"
STAGE_FRAGMENT = "fragment"
STAGE_PROJECTION = "projection"          # GPUpd phase 1
STAGE_DISTRIBUTION = "distribution"      # GPUpd phase 2
STAGE_COMPOSITION = "composition"        # CHOPIN parallel composition
STAGE_SYNC = "sync"                      # RT/depth-buffer broadcasts, barriers

ALL_STAGES = (
    STAGE_GEOMETRY,
    STAGE_FRAGMENT,
    STAGE_PROJECTION,
    STAGE_DISTRIBUTION,
    STAGE_COMPOSITION,
    STAGE_SYNC,
)

# Traffic categories.
TRAFFIC_COMPOSITION = "composition"
TRAFFIC_PRIMITIVES = "primitives"
TRAFFIC_SYNC = "sync"
TRAFFIC_SCHEDULER = "scheduler"

#: export groups, in the order their columns follow a result row's
#: measurement columns
SUMMARY_GROUPS = ("fault", "engine", "artifact", "serve", "pipeline")


def counter(group: Optional[str] = None, default: object = 0, *,
            journal: bool = True, export: Union[bool, str] = True,
            required: bool = False):
    """Declare one :class:`RunStats` counter field.

    - ``group``: the export group (one of :data:`SUMMARY_GROUPS`) whose
      summary and CSV columns carry the counter; ``None`` keeps it out of
      every summary.
    - ``default``: the zero value; its type is the coercion applied when
      a journal is read back. Pass ``list`` for a list-valued counter,
      which summaries export as its length.
    - ``journal``: ``False`` for counters that are stamped after a
      journaled run is replayed, so the journal never stores them.
    - ``export``: ``False`` for journaled-only counters; a property name
      exports that derived value in the counter's column slot instead.
    - ``required``: the counter is in every journal ever written; others
      default when an older journal lacks them.
    """
    metadata = {"group": group, "journal": journal,
                "export": export if group is not None else False,
                "required": required}
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class GPUStats:
    """Counters for a single GPU."""

    stage_cycles: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    traffic_bytes: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    triangles_processed: int = 0
    fragments_generated: int = 0
    fragments_early_z_tested: int = 0
    fragments_passed_early_z: int = 0
    fragments_passed_late: int = 0
    fragments_shaded: int = 0
    draws_executed: int = 0
    busy_until: float = 0.0

    @property
    def total_cycles(self) -> float:
        return sum(self.stage_cycles.values())

    @property
    def fragments_passed(self) -> int:
        """Fragments that survived any depth/stencil test (Fig 15)."""
        return self.fragments_passed_early_z + self.fragments_passed_late

    def to_dict(self) -> Dict[str, object]:
        # the instance dict holds exactly the dataclass fields
        data = dict(vars(self))
        for name in _GPU_DICTS:
            data[name] = dict(data[name])
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "GPUStats":
        gpu = cls()
        for name, kind in _GPU_SCALARS:
            setattr(gpu, name, kind(data[name]))
        for name in _GPU_DICTS:
            getattr(gpu, name).update(data[name])
        return gpu


@dataclass
class RunStats:
    """Statistics for a full simulated run on an N-GPU system.

    A new scalar counter is one :func:`counter` declaration below; the
    journal, its export group's summary and the CSV columns follow.
    """

    num_gpus: int
    gpus: List[GPUStats] = field(default_factory=list)
    #: end-to-end frame time in cycles (the critical path, not the sum)
    frame_cycles: float = counter(default=0.0, required=True)
    composition_groups: int = counter(required=True)
    accelerated_groups: int = counter(required=True)
    #: per-draw (draw_index, triangles, geometry_cycles, total_cycles) samples,
    #: recorded when tracing is on (Fig 9)
    draw_samples: List[tuple] = field(default_factory=list)

    # -- fault injection / degraded mode (see repro.faults) ----------------
    #: link-level retransmissions caused by injected drop/corrupt errors
    link_retries: int = counter("fault", required=True)
    dropped_transfers: int = counter("fault", required=True)
    corrupted_transfers: int = counter("fault", required=True)
    #: payload bytes streamed again due to retries (not counted as traffic)
    retransmitted_bytes: float = counter("fault", 0.0, required=True)
    #: cycles links spent in error detection + exponential backoff
    backoff_cycles: float = counter("fault", 0.0, required=True)
    #: GPUs that fail-stopped during this run (exported as a count)
    failed_gpus: List[int] = counter("fault", list, required=True)
    #: draw commands re-rendered on survivors after a fail-stop
    redistributed_draws: int = counter("fault", required=True)
    #: engine cycles of re-rendered (recovery) work across survivors
    recovery_cycles: float = counter("fault", 0.0, required=True)
    #: fault-free frame time, recorded when a degraded run was compared;
    #: its column carries the derived recovery overhead instead
    baseline_frame_cycles: float = counter(
        "fault", 0.0, export="recovery_overhead_cycles", required=True)
    #: position of this frame in a multi-frame soak run (0 outside soak)
    frame_index: int = counter("fault")
    #: failure-trace events that fell inside this frame's window (soak runs)
    fault_events: int = counter("fault")

    # -- harness supervision (see repro.harness.engine) --------------------
    # the engine stamps these after a journal replay, so none is journaled
    #: attempts the job that produced this run consumed (1 = first try)
    job_attempts: int = counter("engine", journal=False)
    #: attempts that were retried after a transient failure
    job_retries: int = counter("engine", journal=False)
    #: attempts killed for exceeding the wall-clock budget
    job_timeouts: int = counter("engine", journal=False)
    #: True when this result was replayed from a run journal, not simulated
    job_resumed: bool = counter("engine", False, journal=False)

    # -- race-sanitizer coverage (see repro.analysis.sanitizer) ------------
    #: shared-state accesses the race sanitizer recorded during this run
    #: (0 when the run was not sanitized — coverage, not a conflict count)
    sanitizer_accesses: int = counter("engine")

    # -- artifact store usage (see repro.render.store) ---------------------
    # each ``artifact_<x>`` mirrors ``StoreCounters.<x>`` (stamp_store)
    #: store lookups this run served from cache (geometry artifacts,
    #: reference passes, functional preps) / recomputed / evicted / read
    #: back from the disk tier; all 0 when the result itself was a hit
    artifact_hits: int = counter("artifact")
    artifact_misses: int = counter("artifact")
    artifact_evictions: int = counter("artifact")
    artifact_disk_loads: int = counter("artifact")
    #: disk-spill files rejected by the integrity check during this run
    #: (each one turned a would-be disk hit into a recompute)
    artifact_disk_corrupt: int = counter("artifact")

    # -- frame serving (see repro.serve) ------------------------------------
    #: request accounting for a serve run: submissions, admissions, refusals
    #: at the door (queue-full rejects, budget throttles), post-admission
    #: drops (sheds), and requests that were re-queued after a GPU failure.
    #: All 0 for ordinary batch runs.
    serve_requests: int = counter("serve")
    serve_admitted: int = counter("serve")
    serve_completed: int = counter("serve")
    serve_rejected: int = counter("serve")
    serve_throttled: int = counter("serve")
    serve_shed: int = counter("serve")
    serve_requeued: int = counter("serve")
    #: batches dispatched to render groups
    serve_batches: int = counter("serve")
    #: peak admission-queue depth observed
    serve_queue_peak: int = counter("serve")
    #: completed requests that finished after their deadline
    serve_deadline_misses: int = counter("serve")
    #: degraded-mode events (watchdog trips, post-run stalled sweeps)
    serve_degraded_events: int = counter("serve")
    #: request latency percentiles over completed requests (virtual cycles)
    serve_latency_p50_cycles: float = counter("serve", 0.0)
    serve_latency_p95_cycles: float = counter("serve", 0.0)
    serve_latency_p99_cycles: float = counter("serve", 0.0)
    #: composition cycles a serve batch overlapped with the next request's
    #: geometry (cross-request group pipelining) / batches that overlapped
    serve_overlap_cycles: float = counter("serve", 0.0)
    serve_overlapped_batches: int = counter("serve")

    # -- cross-group pipelining (see repro.sfr.chopin / repro.sfr.dfb) ------
    #: configured in-flight group window (0 = unbounded)
    pipeline_depth: int = counter("pipeline")
    #: cycles GPUs spent stalled at a full pipeline window before they
    #: could start rendering the next group
    pipeline_stall_cycles: float = counter("pipeline", 0.0)
    #: composition cycles that ran concurrently with later groups'
    #: rendering on the same GPU (the overlap pipelining buys)
    comp_overlap_cycles: float = counter("pipeline", 0.0)
    #: total GPU-idle cycles over the frame: num_gpus * frame_cycles minus
    #: busy cycles across all stages
    idle_cycles: float = counter("pipeline", 0.0)
    #: high-water mark of concurrently in-flight composition groups in the
    #: (windowed) image composition scheduler table
    scheduler_groups_peak: int = counter("pipeline")

    def __post_init__(self) -> None:
        if not self.gpus:
            self.gpus = [GPUStats() for _ in range(self.num_gpus)]

    # -- accumulation ------------------------------------------------------

    def add_cycles(self, gpu: int, stage: str, cycles: float) -> None:
        self.gpus[gpu].stage_cycles[stage] += cycles

    def add_traffic(self, gpu: int, category: str, num_bytes: float) -> None:
        self.gpus[gpu].traffic_bytes[category] += num_bytes

    # -- aggregation -------------------------------------------------------

    def stage_cycle_totals(self) -> Dict[str, float]:
        """Sum of cycles spent in each stage across all GPUs."""
        totals: Dict[str, float] = defaultdict(float)
        for gpu in self.gpus:
            for stage, cycles in gpu.stage_cycles.items():
                totals[stage] += cycles
        return dict(totals)

    def stage_fraction(self, stage: str) -> float:
        """Fraction of all busy cycles spent in ``stage`` (Fig 2, Fig 4)."""
        totals = self.stage_cycle_totals()
        busy = sum(totals.values())
        if busy == 0:
            return 0.0
        return totals.get(stage, 0.0) / busy

    def traffic_total(self, category: str | None = None) -> float:
        """Total bytes moved, optionally restricted to one category."""
        total = 0.0
        for gpu in self.gpus:
            if category is None:
                total += sum(gpu.traffic_bytes.values())
            else:
                total += gpu.traffic_bytes.get(category, 0.0)
        return total

    @property
    def recovery_overhead_cycles(self) -> float:
        """Extra frame cycles paid for fail-stop recovery (vs. fault-free)."""
        if self.baseline_frame_cycles <= 0:
            return 0.0
        return self.frame_cycles - self.baseline_frame_cycles

    @property
    def had_faults(self) -> bool:
        return bool(self.link_retries or self.failed_gpus
                    or self.redistributed_draws)

    def summary(self, group: str) -> Dict[str, object]:
        """Flat counters of one export group, keyed by CSV column.

        Zero when the group's subsystem took no part in the run;
        list-valued counters export their length (see
        :data:`SUMMARY_COLUMNS`).
        """
        row: Dict[str, object] = {}
        for column in SUMMARY_COLUMNS[group]:
            value = getattr(self, column)
            row[column] = len(value) if isinstance(value, list) else value
        return row

    def stamp_store(self, delta) -> None:
        """Stamp a :class:`~repro.render.store.StoreCounters` delta onto
        the artifact group (``artifact_<x>`` takes the delta's ``<x>``)."""
        for name, store_field in _STORE_COUNTERS:
            setattr(self, name, getattr(delta, store_field))

    # -- serialization (run journal, see repro.harness.engine) -------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every journaled counter and the
        per-GPU breakdowns (draw samples are not kept).

        Floats survive a ``json`` round trip bit-exactly, so a journaled
        run replays with identical cycle counts.
        """
        state = vars(self)
        data: Dict[str, object] = {"num_gpus": self.num_gpus}
        data.update({name: state[name] for name in _JOURNAL_NAMES})
        for name in _JOURNALED_LISTS:
            data[name] = list(data[name])
        data["gpus"] = [gpu.to_dict() for gpu in self.gpus]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunStats":
        """Rebuild a :meth:`to_dict` snapshot (draw samples are not kept).

        Counters added after the original journal format take their
        default when an older journal lacks them.
        """
        return cls(
            num_gpus=int(data["num_gpus"]),
            gpus=[GPUStats.from_dict(entry) for entry in data["gpus"]],
            **{name: kind(data[name] if required
                          else data.get(name, default))
               for name, kind, default, required in _JOURNALED})

    @property
    def total_fragments_passed(self) -> int:
        return sum(g.fragments_passed for g in self.gpus)

    @property
    def total_fragments_shaded(self) -> int:
        return sum(g.fragments_shaded for g in self.gpus)

    @property
    def total_triangles(self) -> int:
        return sum(g.triangles_processed for g in self.gpus)


def _default(spec) -> object:
    return spec.default_factory() if spec.default is MISSING else spec.default


#: the per-GPU breakdown dicts, journaled as plain copies
_GPU_DICTS = tuple(spec.name for spec in fields(GPUStats)
                   if isinstance(_default(spec), dict))
#: (name, coercion) of every other GPUStats field
_GPU_SCALARS = tuple((spec.name, type(_default(spec)))
                     for spec in fields(GPUStats)
                     if spec.name not in _GPU_DICTS)

_COUNTERS = tuple(spec for spec in fields(RunStats)
                  if "journal" in spec.metadata)

#: (name, coercion, default, required) of every journaled counter
_JOURNALED = tuple((spec.name, type(_default(spec)), _default(spec),
                    spec.metadata["required"])
                   for spec in _COUNTERS if spec.metadata["journal"])
_JOURNAL_NAMES = tuple(entry[0] for entry in _JOURNALED)
#: list-valued journaled counters, copied so a snapshot never aliases
_JOURNALED_LISTS = tuple(name for name, kind, _, _ in _JOURNALED
                         if kind is list)

#: export group -> the columns its summary carries, in declaration order
SUMMARY_COLUMNS: Dict[str, tuple] = {
    group: tuple(spec.name if spec.metadata["export"] is True
                 else spec.metadata["export"]
                 for spec in _COUNTERS
                 if spec.metadata["group"] == group
                 and spec.metadata["export"])
    for group in SUMMARY_GROUPS}

#: (RunStats counter, StoreCounters field) pairs stamp_store copies
_STORE_COUNTERS = tuple((name, name.removeprefix("artifact_"))
                        for name in SUMMARY_COLUMNS["artifact"])


def speedup(baseline: RunStats, candidate: RunStats) -> float:
    """Performance of ``candidate`` relative to ``baseline`` (higher=faster)."""
    if candidate.frame_cycles == 0:
        raise ZeroDivisionError("candidate run has zero frame cycles")
    return baseline.frame_cycles / candidate.frame_cycles


def gmean(values: Iterable[float]) -> float:
    """Geometric mean, as used by the paper's summary columns."""
    vals = list(values)
    if not vals:
        raise ValueError("gmean of empty sequence")
    product = 1.0
    for v in vals:
        if v <= 0:
            raise ValueError("gmean requires positive values")
        product *= v
    return product ** (1.0 / len(vals))


def normalize(results: Mapping[str, float], baseline_key: str) -> Dict[str, float]:
    """Normalize a {name: cycles} mapping to speedups over ``baseline_key``."""
    base = results[baseline_key]
    return {name: base / cycles for name, cycles in results.items()}
