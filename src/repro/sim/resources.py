"""Shared-resource primitives for the simulation kernel.

- :class:`Resource` — a FIFO-granted capacity (e.g., a link direction or a
  GPU ingress port). Processes ``yield resource.request()`` and must
  ``resource.release(req)`` when done.
- :class:`Store` — an unbounded FIFO of items, for message queues between
  processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from ..analysis.sanitizer import ACCESS_ARBITRATED
from ..errors import SimulationError
from .core import Event, Simulator


def _arbitrated(obj: Any) -> None:
    """Report an access through a FIFO-arbitrated primitive.

    Arbitrated accesses are recorded for the sanitizer's census but exempt
    from conflict detection: grant order here is deterministic by
    construction (FIFO / priority + insertion order), so same-cycle
    contention is the intended case, not a race.
    """
    sim = obj.sim
    if sim.sanitizer is None:
        return
    label = f"{type(obj).__name__.lower()}:{obj.name or '<anon>'}"
    sim.record_access(label, ACCESS_ARBITRATED)


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Event.__init__ inlined: one Request per port claim
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._triggered = False
        self._processed = False
        self.resource = resource


class Resource:
    """A capacity-limited resource with FIFO grant order."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of currently granted requests."""
        return len(self._users)

    def request(self) -> Request:
        """Claim one unit; the returned event triggers once granted."""
        if self.sim.sanitizer is not None:
            _arbitrated(self)
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed(self)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit."""
        if self.sim.sanitizer is not None:
            _arbitrated(self)
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that was never granted")
        if self._waiting:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed(self)


class PriorityRequest(Request):
    """A claim with a priority (lower value = more urgent)."""

    __slots__ = ("priority", "order")

    def __init__(self, resource: "Resource", priority: int,
                 order: int) -> None:
        super().__init__(resource)
        self.priority = priority
        self.order = order


class PriorityResource(Resource):
    """A :class:`Resource` whose waiters are granted by priority.

    Ties break FIFO (by request order), preserving determinism. Useful for
    quality-of-service experiments — e.g., letting composition traffic
    pre-empt bulk synchronization at a port.
    """

    def __init__(self, sim: Simulator, capacity: int = 1,
                 name: str = "") -> None:
        super().__init__(sim, capacity, name)
        self._sequence = 0

    def request(self, priority: int = 0) -> PriorityRequest:
        _arbitrated(self)
        req = PriorityRequest(self, priority, self._sequence)
        self._sequence += 1
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed(self)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        _arbitrated(self)
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that was never granted")
        if self._waiting:
            nxt = min(self._waiting,
                      key=lambda r: (r.priority, r.order))
            self._waiting.remove(nxt)
            self._users.append(nxt)
            nxt.succeed(self)


class Barrier:
    """A reusable rendezvous for a fixed party count.

    Each participant yields ``barrier.wait()``; once the last arrives, all
    waiters release together and the barrier resets for the next cycle.
    """

    def __init__(self, sim: Simulator, parties: int, name: str = "") -> None:
        if parties <= 0:
            raise SimulationError("barrier needs at least one party")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._waiting: List[Event] = []

    def wait(self) -> Event:
        _arbitrated(self)
        event = Event(self.sim)
        self._waiting.append(event)
        if len(self._waiting) == self.parties:
            waiting, self._waiting = self._waiting, []
            for waiter in waiting:
                waiter.succeed()
        elif len(self._waiting) > self.parties:
            raise SimulationError("more waiters than barrier parties")
        return event


class Countdown:
    """A one-shot latch: fires its event after ``count`` arrivals."""

    def __init__(self, sim: Simulator, count: int, name: str = "") -> None:
        if count < 0:
            raise SimulationError("countdown count cannot be negative")
        self.sim = sim
        self.name = name
        self._remaining = count
        self.event = Event(sim)
        if count == 0:
            self.event.succeed()

    def arrive(self) -> None:
        _arbitrated(self)
        if self._remaining <= 0:
            raise SimulationError("countdown already completed")
        self._remaining -= 1
        if self._remaining == 0:
            self.event.succeed()


class Store:
    """An unbounded FIFO message queue between processes."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking one waiting getter if any."""
        _arbitrated(self)
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next item (immediately if available)."""
        _arbitrated(self)
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
