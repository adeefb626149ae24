"""The frame-serving daemon: admission control, batching, fault survival.

:class:`FrameServer` runs a pool of *render groups* (each an independent
``group_gpus``-GPU CHOPIN system) against an open-loop request workload,
entirely in virtual time on the repo's discrete-event kernel:

- an **arrival process** replays the workload's time-sorted requests
  through admission control: a bounded queue with a pluggable shedding
  policy (``drop-newest`` rejects arrivals when full, ``drop-oldest``
  evicts the head to admit the newcomer, ``deadline-expired`` evicts
  already-hopeless requests first) and optional per-session token-bucket
  budgets that throttle any one client to its fair share;
- one **group process** per render group pulls batches off the queue
  (consecutive same-benchmark requests coalesce, amortizing the render),
  renders them through the shared
  :class:`~repro.render.service.RenderService` artifact store — so a
  served frame is *by construction* bit-identical to the batch harness's
  render of the same benchmark — and occupies the group for the frame's
  simulated cycle count;
- a **fault process** replays injected GPU fail/repair events: a failed
  GPU takes its whole group down, the group's in-flight batch re-queues
  against survivors under bounded retry + deadline semantics, and a
  repaired group rejoins the pool. With no survivors and no repair in
  sight, queued work sheds with a typed reason instead of waiting
  forever.

The daemon drains cleanly: once arrivals end and the queue and every
in-flight batch are empty, a stop event releases all processes. A
configured virtual-time watchdog (``--watchdog-cycles``) converts a
livelocked run into *degraded mode* — remaining work sheds with reason
``watchdog``, the report flags it, and the CLI maps it to its own exit
code — rather than a crash.

Every count of requests is deterministic: same workload + faults + pool
in, byte-identical report out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, WatchdogError
from ..faults.plan import FaultPlan
from ..faults.traces import EVENT_GPU_FAIL, EVENT_GPU_REPAIR, FailureTrace
from ..sim import Simulator
from ..stats import STAGE_COMPOSITION, STAGE_GEOMETRY, RunStats
from .loadgen import WorkloadSpec
from .slo import SloSummary

#: admission-queue shedding policies
POLICY_DROP_NEWEST = "drop-newest"
POLICY_DROP_OLDEST = "drop-oldest"
POLICY_DEADLINE = "deadline-expired"
POLICIES = (POLICY_DROP_NEWEST, POLICY_DROP_OLDEST, POLICY_DEADLINE)

#: typed shed/reject reasons (every non-served request carries exactly one)
SHED_QUEUE_FULL = "queue-full"      # rejected at the door, queue at limit
SHED_BUDGET = "budget"              # throttled by the session token bucket
SHED_EVICTED = "evicted"            # admitted, later pushed out by policy
SHED_DEADLINE = "deadline"          # expired before it could be served
SHED_RETRIES = "retries"            # re-queued past the retry limit
SHED_NO_SURVIVORS = "no-survivors"  # every group dead, no repair scheduled
SHED_WATCHDOG = "watchdog"          # virtual-time watchdog tripped
SHED_STALLED = "stalled"            # left over after the run (degraded)


@dataclass
class Request:
    """One admitted (or refused) frame-render request's lifecycle state."""

    index: int
    session: int
    benchmark: str
    arrival_cycles: float
    deadline_at_cycles: Optional[float] = None
    attempts: int = 0


class TokenBucket:
    """Per-session budget in units of service cycles.

    A session accrues ``rate`` service-cycles of credit per virtual
    cycle (its fair share of pool capacity times the configured
    multiplier) up to a burst cap; each admission spends the workload's
    mean service time. Refill is lazy — credited on each ``take`` from
    the cycles elapsed since the previous one.
    """

    def __init__(self, rate: float, capacity_cycles: float) -> None:
        if rate <= 0 or capacity_cycles <= 0:
            raise ConfigError("token bucket needs positive rate and "
                              "capacity")
        self.rate = rate                        # service-cycles per cycle
        self.capacity_cycles = capacity_cycles
        self.tokens_cycles = capacity_cycles
        self.last_refill_cycles = 0.0

    def take(self, cost_cycles: float, now_cycles: float) -> bool:
        elapsed_cycles = now_cycles - self.last_refill_cycles
        self.last_refill_cycles = now_cycles
        self.tokens_cycles = min(self.capacity_cycles,
                                 self.tokens_cycles
                                 + elapsed_cycles * self.rate)
        if self.tokens_cycles >= cost_cycles:
            self.tokens_cycles -= cost_cycles
            return True
        return False


@dataclass
class SessionReport:
    """One client session's ledger."""

    session: int
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    throttled: int = 0
    shed: int = 0
    completed: int = 0
    requeues: int = 0
    deadline_misses: int = 0
    #: completed requests whose frame came out of the shared artifact
    #: store rather than a fresh render
    artifact_hits: int = 0
    latency_sum_cycles: float = 0.0
    latency_max_cycles: float = 0.0

    @property
    def hit_rate(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.artifact_hits / self.completed

    @property
    def latency_mean_cycles(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.latency_sum_cycles / self.completed

    def to_dict(self) -> Dict[str, object]:
        return {
            "session": self.session, "submitted": self.submitted,
            "admitted": self.admitted, "rejected": self.rejected,
            "throttled": self.throttled, "shed": self.shed,
            "completed": self.completed, "requeues": self.requeues,
            "deadline_misses": self.deadline_misses,
            "artifact_hits": self.artifact_hits,
            "hit_rate": self.hit_rate,
            "latency_mean_cycles": self.latency_mean_cycles,
            "latency_max_cycles": self.latency_max_cycles,
        }


@dataclass(frozen=True)
class ServeEvent:
    """One notable daemon-lifecycle event (for the report's event log)."""

    time: float  # unit: cycles
    kind: str    # "group-fail" | "group-revive" | "watchdog-trip" | ...
    detail: str


@dataclass
class ServeReport:
    """Everything one serve run produced, ready for report/export layers."""

    scheme: str
    scale: str
    benchmarks: Tuple[str, ...]
    groups: int
    group_gpus: int
    policy: str
    queue_limit: int
    mean_service_cycles: float
    drained_at_cycles: float
    degraded: bool
    shed_reasons: Dict[str, int]
    slo: SloSummary
    sessions: List[SessionReport]
    events: List[ServeEvent]
    stats: RunStats
    #: per-benchmark calibrated frame time on one render group
    service_cycles: Dict[str, float] = field(default_factory=dict)
    #: completion timestamps in completion order (nondecreasing)
    completion_times_cycles: List[float] = field(default_factory=list)

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests that were not served."""
        if self.stats.serve_requests == 0:
            return 0.0
        return 1.0 - (self.stats.serve_completed
                      / self.stats.serve_requests)

    @property
    def artifact_hit_rate(self) -> float:
        hits = sum(s.artifact_hits for s in self.sessions)
        if self.stats.serve_completed == 0:
            return 0.0
        return hits / self.stats.serve_completed

    def to_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme, "scale": self.scale,
            "benchmarks": list(self.benchmarks),
            "groups": self.groups, "group_gpus": self.group_gpus,
            "policy": self.policy, "queue_limit": self.queue_limit,
            "mean_service_cycles": self.mean_service_cycles,
            "drained_at_cycles": self.drained_at_cycles,
            "degraded": self.degraded,
            "shed_rate": self.shed_rate,
            "artifact_hit_rate": self.artifact_hit_rate,
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "slo": self.slo.to_dict(),
            "sessions": [s.to_dict() for s in self.sessions],
            "events": [{"time": e.time, "kind": e.kind,
                        "detail": e.detail} for e in self.events],
            "service_cycles": dict(sorted(self.service_cycles.items())),
            "stats": self.stats.to_dict(),
        }


def gpu_events_from_trace(trace: FailureTrace
                          ) -> List[Tuple[float, int, str]]:
    """Project an MTTF failure trace onto the daemon's fault schedule.

    Only GPU fail/repair events matter to serving (link episodes already
    shape the calibrated frame time); they are replayed at their absolute
    trace times against the *pool* — GPU index N belongs to render group
    ``N // group_gpus``.
    """
    return [(e.time, int(e.element[len("gpu"):]), e.event)
            for e in trace.events
            if e.event in (EVENT_GPU_FAIL, EVENT_GPU_REPAIR)]


def gpu_events_from_plan(plan: FaultPlan) -> List[Tuple[float, int, str]]:
    """Fault schedule from a one-shot ``key=value`` fault plan (no repairs)."""
    return [(f.cycle, f.gpu, EVENT_GPU_FAIL)
            for f in sorted(plan.gpu_failures,
                            key=lambda f: (f.cycle, f.gpu))]


class FrameServer:
    """A virtual-time frame-serving daemon over a pool of render groups.

    ``setup`` describes ONE render group (``setup.config.num_gpus`` GPUs);
    the pool is ``groups`` of them. The group setup's
    ``watchdog_cycles`` carries onto the daemon's simulator, so one
    ``--watchdog-cycles`` flag bounds both batch frames and serve runs.
    """

    def __init__(self, scheme: str, setup, workload: WorkloadSpec,
                 groups: int = 2,
                 queue_limit: int = 32,
                 policy: str = POLICY_DROP_NEWEST,
                 batch_limit: int = 4,
                 retry_limit: int = 3,
                 deadline_x: Optional[float] = None,
                 budget_x: Optional[float] = None,
                 budget_burst_x: float = 4.0,
                 batch_overhead_x: float = 0.1,
                 pipeline_overlap: bool = False,
                 fault_events: Sequence[Tuple[float, int, str]] = ()
                 ) -> None:
        if groups <= 0:
            raise ConfigError("need at least one render group")
        if queue_limit <= 0:
            raise ConfigError("admission queue limit must be positive")
        if policy not in POLICIES:
            raise ConfigError(f"unknown shedding policy {policy!r} "
                              f"(known: {', '.join(POLICIES)})")
        if batch_limit <= 0:
            raise ConfigError("batch limit must be positive")
        if retry_limit < 0:
            raise ConfigError("retry limit cannot be negative")
        if deadline_x is not None and deadline_x <= 0:
            raise ConfigError("deadline_x must be positive (or None)")
        if budget_x is not None and budget_x <= 0:
            raise ConfigError("budget_x must be positive (or None)")
        if budget_burst_x <= 0:
            raise ConfigError("budget_burst_x must be positive")
        if batch_overhead_x < 0:
            raise ConfigError("batch overhead cannot be negative")
        for time_cycles, gpu, kind in fault_events:
            if kind not in (EVENT_GPU_FAIL, EVENT_GPU_REPAIR):
                raise ConfigError(
                    f"serve fault schedule only understands "
                    f"{EVENT_GPU_FAIL}/{EVENT_GPU_REPAIR} (got {kind!r})")
            if not 0 <= gpu < groups * setup.config.num_gpus:
                raise ConfigError(
                    f"fault event names gpu{gpu}, but the pool has "
                    f"{groups * setup.config.num_gpus} GPUs")
        self.scheme = scheme
        self.setup = setup
        self.workload = workload
        self.groups = groups
        self.group_gpus = setup.config.num_gpus
        self.queue_limit = queue_limit
        self.policy = policy
        self.batch_limit = batch_limit
        self.retry_limit = retry_limit
        self.deadline_cycles = (
            None if deadline_x is None
            else deadline_x * workload.mean_service_cycles)
        self.budget_x = budget_x
        self.budget_burst_x = budget_burst_x
        self.batch_overhead_x = batch_overhead_x
        #: opt-in cross-request pipelining: when a group takes its next
        #: batch back-to-back (no idle gap), the previous frame's tail
        #: composition overlaps the next frame's geometry phase and the
        #: new batch's service time shrinks by the overlappable cycles.
        #: Off by default — it changes timing, never results.
        self.pipeline_overlap = pipeline_overlap
        self._fault_schedule = sorted(
            (float(t), int(g), str(k)) for t, g, k in fault_events)
        # results of the batch-identical renders, keyed by benchmark;
        # tests compare these against plain harness runs bit-for-bit
        self.rendered_results: Dict[str, object] = {}
        self._fresh_render: Dict[str, bool] = {}
        self._served_count: Dict[str, int] = {}

    # -- the run ------------------------------------------------------------

    def serve(self) -> ServeReport:
        """Run the daemon to completion and return its report."""
        from ..render import render_service
        sim = Simulator(
            sanitize=False,
            watchdog_cycles=self.setup.config.watchdog_cycles)
        self.sim = sim
        self.queue: Deque[Request] = deque()
        self.in_flight: List[List[Request]] = [[] for _ in
                                               range(self.groups)]
        self.alive = [True] * self.groups
        self.gpu_up = [True] * (self.groups * self.group_gpus)
        self._stop_event = sim.event()
        self._work_event = sim.event()
        self._fail_events = [sim.event() for _ in range(self.groups)]
        self._fault_index = 0
        self._arrivals_done = False
        self._next_index = 0
        self.total_requests = 0
        self.total_admitted = 0
        self.total_completed = 0
        self.total_rejected = 0
        self.total_throttled = 0
        self.total_shed = 0
        self.total_requeued = 0
        self.total_batches = 0
        self.total_overlap_cycles = 0.0
        self.total_overlapped_batches = 0
        #: per group: (completion cycle, benchmark) of the last batch it
        #: finished cleanly — the overlap window for a back-to-back next one
        self._group_last_done: List[Optional[Tuple[float, str]]] = \
            [None] * self.groups
        self.queue_peak = 0
        self.total_deadline_misses = 0
        self.degraded_events = 0
        self.shed_reasons: Dict[str, int] = {}
        self.latencies_cycles: List[float] = []
        self.completion_times_cycles: List[float] = []
        self.events: List[ServeEvent] = []
        self.sessions = [SessionReport(session=s)
                         for s in range(self.workload.profile.sessions)]
        self._buckets: List[Optional[TokenBucket]] = [None] * len(
            self.sessions)
        if self.budget_x is not None:
            rate = self.budget_x * self.groups / len(self.sessions)
            capacity_cycles = (self.budget_burst_x
                               * self.workload.mean_service_cycles)
            self._buckets = [TokenBucket(rate, capacity_cycles)
                             for _ in self.sessions]
        self._service = render_service()
        store_before = self._service.counters()

        sim.process(self._arrival_proc(), name="serve-arrivals")
        for group in range(self.groups):
            sim.process(self._group_proc(group, self._fail_events[group]),
                        name=f"serve-group{group}")
        if self._fault_schedule:
            sim.process(self._fault_proc(), name="serve-faults")

        degraded = False
        self.drained_at_cycles = 0.0
        try:
            sim.run()
        except WatchdogError as exc:
            degraded = True
            self.degraded_events += 1
            self._event("watchdog-trip", str(exc))
            self._shed_everything(SHED_WATCHDOG)
            self.drained_at_cycles = sim.now
        else:
            if self.queue or any(self.in_flight):
                # should be unreachable; a clean drain always empties both
                degraded = True
                self.degraded_events += 1
                self._event("stalled", "run ended with unserved requests "
                            "still queued or in flight")
                self._shed_everything(SHED_STALLED)
            if not self._stop_event.triggered:
                self.drained_at_cycles = sim.now

        store_delta = self._service.counters().delta(store_before)
        return self._build_report(degraded, store_delta)

    # -- processes ----------------------------------------------------------

    def _arrival_proc(self):
        sim = self.sim
        for arrival in self.workload.arrivals:
            delay_cycles = arrival.time - sim.now
            if delay_cycles > 0:
                yield sim.timeout(delay_cycles)
            self._submit(arrival)
        self._arrivals_done = True
        self._maybe_finish()
        # a process body must yield at least once to be a generator; this
        # zero-cycle tick also covers the empty-workload case
        yield sim.timeout(0.0)

    def _group_proc(self, group: int, fail_event):
        sim = self.sim
        while True:
            if not self.alive[group] or self._stop_event.triggered:
                return
            batch = self._take_batch()
            if batch is None:
                self._maybe_finish()
                fired = yield sim.any_of([self._work_event,
                                          self._stop_event, fail_event])
                if (fired is fail_event or not self.alive[group]
                        or self._stop_event.triggered):
                    return
                continue
            self.in_flight[group] = batch
            self.total_batches += 1
            service_cycles = self._batch_service_cycles(batch)
            if self.pipeline_overlap:
                service_cycles -= self._overlap_credit(group, batch,
                                                       service_cycles)
            timer = sim.timeout(service_cycles)
            fired = yield sim.any_of([timer, fail_event])
            self.in_flight[group] = []
            if fired is fail_event:
                self._group_last_done[group] = None
                self._requeue_or_shed(batch)
                return
            self._group_last_done[group] = (sim.now, batch[0].benchmark)
            for request in batch:
                self._complete(request)
            self._maybe_finish()

    def _fault_proc(self):
        sim = self.sim
        for index, (time_cycles, gpu, kind) in enumerate(
                self._fault_schedule):
            delay_cycles = time_cycles - sim.now
            if delay_cycles > 0:
                fired = yield sim.any_of([sim.timeout(delay_cycles),
                                          self._stop_event])
                if fired is self._stop_event \
                        or self._stop_event.triggered:
                    return
            self._fault_index = index + 1
            self._apply_fault(gpu, kind)
        yield sim.timeout(0.0)

    # -- admission ----------------------------------------------------------

    def _submit(self, arrival) -> None:
        session = self.sessions[arrival.session]
        session.submitted += 1
        self.total_requests += 1
        request = Request(index=self._next_index,
                          session=arrival.session,
                          benchmark=arrival.benchmark,
                          arrival_cycles=self.sim.now)
        self._next_index += 1
        if not any(self.alive) and not self._repairs_pending():
            self._refuse(request, SHED_NO_SURVIVORS, throttle=False)
            return
        bucket = self._buckets[arrival.session]
        if bucket is not None and not bucket.take(
                self.workload.mean_service_cycles, self.sim.now):
            self._refuse(request, SHED_BUDGET, throttle=True)
            return
        if len(self.queue) >= self.queue_limit:
            if self.policy == POLICY_DEADLINE:
                self._evict_expired()
            if len(self.queue) >= self.queue_limit:
                if self.policy == POLICY_DROP_OLDEST:
                    self._shed(self.queue.popleft(), SHED_EVICTED)
                else:
                    self._refuse(request, SHED_QUEUE_FULL, throttle=False)
                    return
        if self.deadline_cycles is not None:
            request.deadline_at_cycles = (request.arrival_cycles
                                          + self.deadline_cycles)
        self.queue.append(request)
        session.admitted += 1
        self.total_admitted += 1
        self.queue_peak = max(self.queue_peak, len(self.queue))
        self._signal_work()

    def _refuse(self, request: Request, reason: str,
                throttle: bool) -> None:
        """Refuse a request at the door (never admitted)."""
        session = self.sessions[request.session]
        if throttle:
            session.throttled += 1
            self.total_throttled += 1
        else:
            session.rejected += 1
            self.total_rejected += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def _shed(self, request: Request, reason: str) -> None:
        """Drop an already-admitted request with a typed reason."""
        session = self.sessions[request.session]
        session.shed += 1
        self.total_shed += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def _evict_expired(self) -> None:
        """Shed every queued request that is already past its deadline."""
        if self.deadline_cycles is None:
            return
        survivors = deque()
        while self.queue:
            request = self.queue.popleft()
            if self._expired(request):
                self._shed(request, SHED_DEADLINE)
            else:
                survivors.append(request)
        self.queue = survivors

    def _expired(self, request: Request) -> bool:
        return (request.deadline_at_cycles is not None
                and self.sim.now > request.deadline_at_cycles)

    def _signal_work(self) -> None:
        """Broadcast "queue is non-empty" to idle groups and re-arm."""
        previous, self._work_event = self._work_event, self.sim.event()
        if not previous.triggered:
            previous.succeed()

    # -- dispatch and completion --------------------------------------------

    def _take_batch(self) -> Optional[List[Request]]:
        while self.queue and self.policy == POLICY_DEADLINE \
                and self._expired(self.queue[0]):
            self._shed(self.queue.popleft(), SHED_DEADLINE)
        if not self.queue:
            return None
        head = self.queue.popleft()
        batch = [head]
        if self.batch_limit > 1:
            keep: Deque[Request] = deque()
            while self.queue and len(batch) < self.batch_limit:
                request = self.queue.popleft()
                if request.benchmark == head.benchmark:
                    batch.append(request)
                else:
                    keep.append(request)
            while keep:
                self.queue.appendleft(keep.pop())
        return batch

    def _render(self, benchmark: str):
        """Render (or fetch) one benchmark's frame on a render group."""
        result = self.rendered_results.get(benchmark)
        if result is None:
            from ..harness.runner import run
            from ..traces import load_benchmark
            with self._service.scoped_counters() as scope:
                result = run(self.scheme,
                             load_benchmark(benchmark, self.setup.scale),
                             self.setup)
            self.rendered_results[benchmark] = result
            # a stored-result hit means the frame was cached work; a miss
            # means this daemon paid for the render itself
            self._fresh_render[benchmark] = scope.misses > 0
            self._served_count.setdefault(benchmark, 0)
        return result

    def _overlap_credit(self, group: int, batch: List[Request],
                        service_cycles: float) -> float:
        """Cycles a back-to-back batch saves by cross-request pipelining.

        Only when the group takes this batch the same cycle it finished
        the previous one (it never went idle): the prior frame's
        composition tail — still draining through ROPs and interconnect —
        overlaps the new frame's geometry phase, which touches neither.
        The credit is the smaller of the two phases' per-GPU busy cycles,
        capped at half the new batch's service time so overlap can trim a
        frame but never swallow it.
        """
        last = self._group_last_done[group]
        if last is None or last[0] != self.sim.now:
            return 0.0
        prev = self._render(last[1]).stats.stage_cycle_totals()
        head = self._render(batch[0].benchmark).stats.stage_cycle_totals()
        comp_tail = prev.get(STAGE_COMPOSITION, 0.0) / self.group_gpus
        geom_head = head.get(STAGE_GEOMETRY, 0.0) / self.group_gpus
        credit = min(comp_tail, geom_head, 0.5 * service_cycles)
        if credit > 0.0:
            self.total_overlap_cycles += credit
            self.total_overlapped_batches += 1
        return credit

    def _batch_service_cycles(self, batch: List[Request]) -> float:
        result = self._render(batch[0].benchmark)
        frame_cycles = result.frame_cycles
        return frame_cycles * (1.0
                               + self.batch_overhead_x * (len(batch) - 1))

    def _complete(self, request: Request) -> None:
        session = self.sessions[request.session]
        latency_cycles = self.sim.now - request.arrival_cycles
        session.completed += 1
        self.total_completed += 1
        session.latency_sum_cycles += latency_cycles
        session.latency_max_cycles = max(session.latency_max_cycles,
                                         latency_cycles)
        self.latencies_cycles.append(latency_cycles)
        self.completion_times_cycles.append(self.sim.now)
        if request.deadline_at_cycles is not None \
                and self.sim.now > request.deadline_at_cycles:
            session.deadline_misses += 1
            self.total_deadline_misses += 1
        served_before = self._served_count.get(request.benchmark, 0)
        self._served_count[request.benchmark] = served_before + 1
        if not (served_before == 0
                and self._fresh_render.get(request.benchmark, False)):
            session.artifact_hits += 1

    def _requeue_or_shed(self, batch: List[Request]) -> None:
        """A group died with this batch in flight; salvage what we can."""
        survivors = any(self.alive)
        repairs = self._repairs_pending()
        for request in reversed(batch):
            request.attempts += 1
            if request.attempts > self.retry_limit:
                self._shed(request, SHED_RETRIES)
            elif self._expired(request):
                self._shed(request, SHED_DEADLINE)
            elif not survivors and not repairs:
                self._shed(request, SHED_NO_SURVIVORS)
            else:
                self.total_requeued += 1
                self.sessions[request.session].requeues += 1
                self.queue.appendleft(request)
        while len(self.queue) > self.queue_limit:
            self._shed(self.queue.pop(), SHED_EVICTED)
        self.queue_peak = max(self.queue_peak, len(self.queue))
        self._signal_work()
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (self._arrivals_done and not self.queue
                and not any(self.in_flight)
                and not self._stop_event.triggered):
            self.drained_at_cycles = self.sim.now
            self._stop_event.succeed()

    # -- faults -------------------------------------------------------------

    def _apply_fault(self, gpu: int, kind: str) -> None:
        group = gpu // self.group_gpus
        if kind == EVENT_GPU_FAIL:
            if not self.gpu_up[gpu]:
                return
            self.gpu_up[gpu] = False
            if self.alive[group]:
                self.alive[group] = False
                self._event("group-fail",
                            f"gpu{gpu} fail-stopped; render group {group} "
                            f"out of the pool")
                self._fail_events[group].succeed()
        else:
            if self.gpu_up[gpu]:
                return
            self.gpu_up[gpu] = True
            lo = group * self.group_gpus
            whole = all(self.gpu_up[lo:lo + self.group_gpus])
            if whole and not self.alive[group]:
                self.alive[group] = True
                fail_event = self.sim.event()
                self._fail_events[group] = fail_event
                self.sim.process(self._group_proc(group, fail_event),
                                 name=f"serve-group{group}-revived")
                self._event("group-revive",
                            f"gpu{gpu} repaired; render group {group} "
                            f"rejoins the pool")
                self._signal_work()
        self._flush_if_stranded()

    def _flush_if_stranded(self) -> None:
        """No group alive and none coming back: shed all queued work."""
        if any(self.alive) or self._repairs_pending():
            return
        while self.queue:
            self._shed(self.queue.popleft(), SHED_NO_SURVIVORS)
        self._maybe_finish()

    def _repairs_pending(self) -> bool:
        for _, gpu, kind in self._fault_schedule[self._fault_index:]:
            if kind == EVENT_GPU_REPAIR and not self.gpu_up[gpu]:
                return True
        return False

    # -- bookkeeping --------------------------------------------------------

    def _event(self, kind: str, detail: str) -> None:
        self.events.append(ServeEvent(time=self.sim.now, kind=kind,
                                      detail=detail))

    def _shed_everything(self, reason: str) -> None:
        while self.queue:
            self._shed(self.queue.popleft(), reason)
        for group in range(self.groups):
            batch, self.in_flight[group] = self.in_flight[group], []
            for request in batch:
                self._shed(request, reason)

    def _build_report(self, degraded: bool, store_delta) -> ServeReport:
        slo = SloSummary.from_latencies(self.latencies_cycles,
                                        self.drained_at_cycles)
        stats = RunStats(num_gpus=self.groups * self.group_gpus)
        stats.frame_cycles = self.drained_at_cycles
        stats.serve_requests = self.total_requests
        stats.serve_admitted = self.total_admitted
        stats.serve_completed = self.total_completed
        stats.serve_rejected = self.total_rejected
        stats.serve_throttled = self.total_throttled
        stats.serve_shed = self.total_shed
        stats.serve_requeued = self.total_requeued
        stats.serve_batches = self.total_batches
        stats.serve_overlap_cycles = self.total_overlap_cycles
        stats.serve_overlapped_batches = self.total_overlapped_batches
        stats.serve_queue_peak = self.queue_peak
        stats.serve_deadline_misses = self.total_deadline_misses
        stats.serve_degraded_events = self.degraded_events
        stats.serve_latency_p50_cycles = slo.p50_cycles
        stats.serve_latency_p95_cycles = slo.p95_cycles
        stats.serve_latency_p99_cycles = slo.p99_cycles
        stats.stamp_store(store_delta)
        service_cycles = {bench: result.frame_cycles for bench, result
                          in sorted(self.rendered_results.items())}
        return ServeReport(
            scheme=self.scheme, scale=self.setup.scale,
            benchmarks=self.workload.benchmarks,
            groups=self.groups, group_gpus=self.group_gpus,
            policy=self.policy, queue_limit=self.queue_limit,
            mean_service_cycles=self.workload.mean_service_cycles,
            drained_at_cycles=self.drained_at_cycles,
            degraded=degraded, shed_reasons=self.shed_reasons,
            slo=slo, sessions=self.sessions, events=self.events,
            stats=stats, service_cycles=service_cycles,
            completion_times_cycles=self.completion_times_cycles)
