"""The heap-only DES kernel, kept as the oracle for the FIFO lane.

``HeapSimulator`` is :class:`repro.sim.Simulator` with scheduling, stepping
and running as they were before zero-delay events got their own lane:
every event, due now or later, goes through one ``(time, sequence)``
heap. Events, processes, combinators and resources are the production
ones; only the queue differs, so tests that run the same program on
both kernels compare the lane against plain heap order.

Production code reaches the queue two ways: ``Simulator._schedule`` (a
``Timeout``) and a straight append to ``Simulator._lane`` (``Event.succeed``
puts an event due now there without a call). The oracle replaces both:
its ``_schedule`` pushes onto the heap, and its ``_lane`` is a
:class:`HeapLane` whose ``append`` does the same at delay 0.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.errors import SimulationError, WatchdogError
from repro.sim import Event, Simulator


class HeapLane:
    """Stands in for the lane: an event due now goes onto the heap."""

    def __init__(self, sim: "HeapSimulator") -> None:
        self.sim = sim

    def append(self, event: Event) -> None:
        self.sim._schedule(event, 0.0)

    def __len__(self) -> int:
        return 0


class HeapSimulator(Simulator):
    """Every event in one heap of ``(time, sequence, event)`` entries."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._lane = HeapLane(self)

    def _schedule(self, event: Event, delay: float) -> None:
        heapq.heappush(self._queue, (self.now + delay, self._sequence, event))
        self._sequence += 1

    def step(self) -> None:
        if not self._queue:
            raise SimulationError("no scheduled events")
        time, _, event = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = time
        event._run_callbacks()

    def run(self, until: Optional[float] = None,
            watchdog: bool = True) -> float:
        if self._running:
            raise SimulationError("simulator is already running")
        budget: Optional[float] = None
        if self.watchdog_cycles is not None:
            budget = self.now + self.watchdog_cycles
        self._running = True
        try:
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    self.now = until
                    break
                if budget is not None and self._queue[0][0] > budget:
                    stuck = self.stuck_processes()
                    details = "; ".join(
                        f"{p.name!r} waiting on {p.describe_wait()}"
                        for p in stuck) or "only daemon processes remain"
                    raise WatchdogError(
                        f"virtual-time watchdog tripped at cycle "
                        f"{self.now:,.0f}: next event at cycle "
                        f"{self._queue[0][0]:,.0f} exceeds the "
                        f"{self.watchdog_cycles:,.0f}-cycle budget; "
                        f"{details}")
                self.step()
        finally:
            self._running = False
        if watchdog and not self._queue:
            self._check_deadlock()
        return self.now
