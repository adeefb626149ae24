"""A small discrete-event simulation kernel.

This is the substrate underneath the cycle-level timing model: a priority
queue of timestamped events with a FIFO lane for zero-delay ones,
generator-based processes, and combinators for waiting on several events.
The API is intentionally close to SimPy's, which keeps the timing models
readable:

    def worker(sim):
        yield sim.timeout(10)          # advance 10 cycles
        done = sim.event()
        ...
        yield done                     # wait on an event

    sim = Simulator()
    sim.process(worker(sim))
    sim.run()

Time is measured in GPU cycles (floats, since transfers divide bytes by
bandwidth).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (Any, Callable, Deque, Generator, Iterable, List,
                    Optional)

from ..analysis.sanitizer import ACCESS_WRITE, RaceSanitizer
from ..errors import SimulationError, WatchdogError


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* once :meth:`succeed` is
    called, and then runs its callbacks exactly once when the simulator
    processes it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_triggered", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event; its callbacks run at the current sim time."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        # due now: straight onto the zero-delay lane (see Simulator)
        self.sim._lane.append(self)
        return self

    def succeed_now(self, value: Any = None) -> None:
        """Trigger the event and run its callbacks at once, off the queue.

        Exact only where a zero-delay entry for this event would have
        been processed next anyway: the caller runs inside an event
        callback that stands in for a run of contiguous zero-delay
        entries (the composition scheduler's batched re-check).
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._run_callbacks()

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that triggers automatically after ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined: one Timeout per DES step is common
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        sim._schedule(self, delay)


class AllOf(Event):
    """Triggers when every child event has triggered; value is their values."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._pending = 0
        self._events = list(events)
        for event in self._events:
            if event.processed:
                continue
            self._pending += 1
            event.callbacks.append(self._on_child)
        if self._pending == 0:
            self.succeed([e.value for e in self._events])

    def _on_child(self, _: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Triggers as soon as any child event triggers; value is that event."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        for event in self._events:
            if event.processed:
                self.succeed(event)
                return
            event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if not self.triggered:
            self.succeed(event)


def _describe_wait(event: Optional[Event]) -> str:
    """Human-readable description of what a process is suspended on."""
    if event is None:
        return "nothing (not yet started or already resuming)"
    describe = getattr(event, "describe", None)
    if describe is not None:  # e.g. an interconnect transfer
        return describe()
    if isinstance(event, AllOf):
        pending = [e for e in event._events if not e.processed]
        return (f"all of {len(event._events)} events, {len(pending)} "
                f"pending: " + ", ".join(_describe_wait(e) for e in pending))
    resource = getattr(event, "resource", None)
    if resource is not None:
        label = resource.name or type(resource).__name__
        return f"a {type(event).__name__} on resource {label!r}"
    if isinstance(event, Process):
        return f"process {event.name!r}"
    if isinstance(event, Timeout):
        return f"a timeout of {event.delay}"
    return f"a pending {type(event).__name__}"


def _attach_process_name(exc: BaseException, name: str) -> None:
    """Prefix an in-process exception with the owning process's name, so a
    failure surfaces as e.g. ``[process 'chopin-gpu3'] ...`` instead of a
    bare callback traceback."""
    prefix = f"[process {name!r}]"
    if exc.args and isinstance(exc.args[0], str):
        if not exc.args[0].startswith("[process "):
            exc.args = (f"{prefix} {exc.args[0]}",) + exc.args[1:]
    else:
        exc.args = (prefix,) + exc.args


class Process(Event):
    """Wraps a generator; the process is itself an event that fires on return.

    The generator yields :class:`Event` instances; each time a yielded event
    is processed, the generator resumes with that event's value.

    ``daemon`` processes are service loops that legitimately outlive the
    event queue (e.g., a GPU engine's fragment loop); the deadlock watchdog
    in :meth:`Simulator.run` ignores them and only flags stuck non-daemon
    processes.
    """

    __slots__ = ("generator", "name", "daemon", "_waiting_on")

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, Any],
                 name: str = "", daemon: bool = False) -> None:
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.daemon = daemon
        self._waiting_on: Optional[Event] = None
        sim._register_process(self)
        # Bootstrap: resume once the simulator starts (or immediately if
        # already running).
        Timeout(sim, 0.0).callbacks.append(self._resume)

    def _resume(self, event: Optional[Event]) -> None:
        value = event.value if event is not None else None
        self._waiting_on = None
        # Attribute any sanitizer-visible accesses made while the generator
        # body runs to this process.
        previous = self.sim._active_process
        self.sim._active_process = self
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            _attach_process_name(exc, self.name)
            raise
        finally:
            self.sim._active_process = previous
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event")
        self._waiting_on = target
        if target.processed:
            # Already happened; resume on the next tick at the same time.
            tick = Timeout(self.sim, 0.0)
            tick._value = target.value
            tick.callbacks.append(self._resume)
        else:
            target.callbacks.append(self._resume)

    def describe_wait(self) -> str:
        return _describe_wait(self._waiting_on)


class Simulator:
    """The event loop: schedules events in (time, insertion-order) order.

    Events due later wait in a heap of ``(time, sequence, event)``
    entries. An event due *now* (``now + delay == now``, zero delays and
    delays that round away alike) goes to a FIFO lane instead, a deque
    that skips the heap. :meth:`step` drains heap entries due at ``now``
    before the lane: they were scheduled before the clock reached
    ``now``, so they precede every lane entry in insertion order, and no
    new heap entry can fall due at ``now`` once the clock is there. The
    lane is empty whenever the clock moves, so the combined order is
    exactly the heap's ``(time, sequence)`` order.

    With ``sanitize=True`` the kernel carries a
    :class:`~repro.analysis.sanitizer.RaceSanitizer`; instrumented shared
    state (framebuffer regions, resources, scheduler tables) reports its
    accesses through :meth:`record_access`, attributed to whichever process
    is currently executing.
    """

    def __init__(self, sanitize: bool = False,
                 watchdog_cycles: Optional[float] = None) -> None:
        if watchdog_cycles is not None and watchdog_cycles <= 0:
            raise SimulationError(
                f"watchdog_cycles must be positive (got {watchdog_cycles})")
        self.now: float = 0.0
        self._queue: List[tuple] = []
        #: events due at ``now``, in insertion order (see the class doc)
        self._lane: Deque[Event] = deque()
        self._sequence = 0
        self._running = False
        self._processes: List[Process] = []
        self._active_process: Optional[Process] = None
        #: virtual-cycle budget for one run() call (None = unbounded); a
        #: run that would advance past it raises WatchdogError
        self.watchdog_cycles: Optional[float] = watchdog_cycles
        self.sanitizer: Optional[RaceSanitizer] = (
            RaceSanitizer() if sanitize else None)

    def record_access(self, resource: str, kind: str = ACCESS_WRITE,
                      process: Optional[str] = None) -> None:
        """Report an access on shared state to the sanitizer (no-op when
        the sanitizer is off, so call sites need no guards)."""
        if self.sanitizer is None:
            return
        if process is None:
            active = self._active_process
            process = active.name if active is not None else "<main>"
        self.sanitizer.record(resource, kind, process, self.now)

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "", daemon: bool = False) -> Process:
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        time = self.now + delay
        if time == self.now:
            self._lane.append(event)
            return
        heapq.heappush(self._queue, (time, self._sequence, event))
        self._sequence += 1

    def _register_process(self, process: Process) -> None:
        self._processes.append(process)

    def step(self) -> None:
        """Process the single next event."""
        queue = self._queue
        if self._lane and not (queue and queue[0][0] <= self.now):
            event = self._lane.popleft()
        else:
            if not queue:
                raise SimulationError("no scheduled events")
            time, _, event = heapq.heappop(queue)
            if time < self.now:
                raise SimulationError("event scheduled in the past")
            self.now = time
        # Event._run_callbacks inlined: this runs once per event
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float] = None,
            watchdog: bool = True) -> float:
        """Run until the queue drains (or until the given time); returns now.

        When the queue drains *naturally* (not via ``until``) while
        non-daemon processes are still unfinished, the protocol has wedged:
        silently returning would report a too-small, wrong cycle count. The
        watchdog instead raises :class:`SimulationError` naming every stuck
        process and what it is waiting on. Pass ``watchdog=False`` to get
        the old drain-and-return behaviour.

        When ``watchdog_cycles`` is configured on the simulator, a second
        guard covers *livelock*: if this run would advance more than that
        many cycles past its starting time, it raises
        :class:`~repro.errors.WatchdogError` naming the still-unfinished
        processes. The queue never drains in a livelock, so the drain
        check alone cannot catch it.

        The clock never runs backwards: ``until`` earlier than ``now``
        raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until cycle {until}: the clock is already at "
                f"{self.now}")
        budget: Optional[float] = None
        if self.watchdog_cycles is not None:
            budget = self.now + self.watchdog_cycles
        self._running = True
        try:
            lane, queue = self._lane, self._queue
            while lane or queue:
                due = self.now if lane else queue[0][0]
                if until is not None and due > until:
                    self.now = until
                    break
                if budget is not None and due > budget:
                    stuck = self.stuck_processes()
                    details = "; ".join(
                        f"{p.name!r} waiting on {p.describe_wait()}"
                        for p in stuck) or "only daemon processes remain"
                    raise WatchdogError(
                        f"virtual-time watchdog tripped at cycle "
                        f"{self.now:,.0f}: next event at cycle "
                        f"{due:,.0f} exceeds the "
                        f"{self.watchdog_cycles:,.0f}-cycle budget; "
                        f"{details}")
                self.step()
        finally:
            self._running = False
        if watchdog and not self._lane and not self._queue:
            self._check_deadlock()
        return self.now

    def stuck_processes(self) -> List[Process]:
        """Non-daemon processes that have not finished."""
        return [p for p in self._processes
                if not p.triggered and not p.daemon]

    def _check_deadlock(self) -> None:
        stuck = self.stuck_processes()
        if not stuck:
            return
        details = "; ".join(
            f"{p.name!r} waiting on {p.describe_wait()}" for p in stuck)
        raise SimulationError(
            f"deadlock at cycle {self.now}: event queue drained with "
            f"{len(stuck)} unfinished process(es): {details}")
