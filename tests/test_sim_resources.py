"""Simulation resources: FIFO resources, stores, barriers, countdowns."""

import pytest

from repro.errors import SimulationError
from repro.sim import Barrier, Countdown, Resource, Store


class TestResource:
    def test_grants_up_to_capacity(self, sim):
        res = Resource(sim, capacity=2)
        first, second, third = res.request(), res.request(), res.request()
        assert first.triggered and second.triggered
        assert not third.triggered

    def test_release_grants_next_in_fifo_order(self, sim):
        res = Resource(sim, capacity=1)
        held = res.request()
        waiters = [res.request() for _ in range(3)]
        res.release(held)
        assert waiters[0].triggered
        assert not waiters[1].triggered

    def test_release_unknown_request_raises(self, sim):
        res = Resource(sim)
        stranger = Resource(sim).request()
        with pytest.raises(SimulationError):
            res.release(stranger)

    def test_serializes_critical_section(self, sim):
        res = Resource(sim)
        spans = []

        def worker(duration):
            req = res.request()
            yield req
            start = sim.now
            yield sim.timeout(duration)
            spans.append((start, sim.now))
            res.release(req)

        for duration in (5, 3, 2):
            sim.process(worker(duration))
        sim.run()
        # no overlap: each starts when the previous finished
        assert spans == [(0.0, 5.0), (5.0, 8.0), (8.0, 10.0)]

    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = store.get()
        assert got.triggered and got.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        received = []

        def consumer():
            item = yield store.get()
            received.append((sim.now, item))

        def producer():
            yield sim.timeout(6)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert received == [(6.0, "late")]

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)
        values = [store.get().value for _ in range(3)]
        assert values == [0, 1, 2]
        assert len(store) == 0


class TestBarrier:
    def test_releases_all_when_full(self, sim):
        barrier = Barrier(sim, parties=3)
        times = []

        def party(delay):
            yield sim.timeout(delay)
            yield barrier.wait()
            times.append(sim.now)

        for delay in (1, 5, 9):
            sim.process(party(delay))
        sim.run()
        assert times == [9.0, 9.0, 9.0]

    def test_reusable_across_cycles(self, sim):
        barrier = Barrier(sim, parties=2)
        log = []

        def party(name):
            for round_index in range(2):
                yield sim.timeout(1)
                yield barrier.wait()
                log.append((round_index, name))

        sim.process(party("a"))
        sim.process(party("b"))
        sim.run()
        assert sorted(log) == [(0, "a"), (0, "b"), (1, "a"), (1, "b")]

    def test_rejects_zero_parties(self, sim):
        with pytest.raises(SimulationError):
            Barrier(sim, parties=0)


class TestCountdown:
    def test_fires_after_count_arrivals(self, sim):
        latch = Countdown(sim, 3)
        latch.arrive()
        latch.arrive()
        assert not latch.event.triggered
        latch.arrive()
        assert latch.event.triggered

    def test_zero_count_fires_immediately(self, sim):
        latch = Countdown(sim, 0)
        assert latch.event.triggered

    def test_extra_arrival_raises(self, sim):
        latch = Countdown(sim, 1)
        latch.arrive()
        with pytest.raises(SimulationError):
            latch.arrive()


class TestPriorityResource:
    def test_high_priority_granted_first(self, sim):
        from repro.sim import PriorityResource
        res = PriorityResource(sim)
        held = res.request()
        low = res.request(priority=5)
        high = res.request(priority=1)
        res.release(held)
        assert high.triggered
        assert not low.triggered

    def test_ties_break_fifo(self, sim):
        from repro.sim import PriorityResource
        res = PriorityResource(sim)
        held = res.request()
        first = res.request(priority=2)
        second = res.request(priority=2)
        res.release(held)
        assert first.triggered and not second.triggered

    def test_immediate_grant_below_capacity(self, sim):
        from repro.sim import PriorityResource
        res = PriorityResource(sim, capacity=2)
        assert res.request(priority=9).triggered
        assert res.request(priority=9).triggered

    def test_release_unknown_rejected(self, sim):
        from repro.sim import PriorityResource
        from repro.errors import SimulationError
        a, b = PriorityResource(sim), PriorityResource(sim)
        stranger = b.request()
        with pytest.raises(SimulationError):
            a.release(stranger)

    def test_preempts_bulk_traffic_pattern(self, sim):
        """Usage sketch: urgent messages overtake queued bulk messages."""
        from repro.sim import PriorityResource
        res = PriorityResource(sim)
        order = []

        def sender(name, priority, delay):
            yield sim.timeout(delay)
            request = res.request(priority=priority)
            yield request
            yield sim.timeout(10)
            order.append(name)
            res.release(request)

        sim.process(sender("bulk-a", 5, 0))
        sim.process(sender("bulk-b", 5, 1))
        sim.process(sender("urgent", 0, 2))
        sim.run()
        assert order == ["bulk-a", "urgent", "bulk-b"]

    def test_release_out_of_order_grants_by_priority(self, sim):
        from repro.sim import PriorityResource
        res = PriorityResource(sim, capacity=2)
        first = res.request(priority=0)
        second = res.request(priority=0)
        bulk = res.request(priority=5)
        urgent = res.request(priority=1)
        # releasing the *later* grant first: the freed unit must go to
        # the most urgent waiter, not follow arrival or release order
        res.release(second)
        assert urgent.triggered
        assert not bulk.triggered
        res.release(first)
        assert bulk.triggered
        assert res.count == 2
        res.release(urgent)
        res.release(bulk)
        assert res.count == 0


class TestFailStopCleanup:
    """Fail-stop interactions with resource state: a failed GPU's process
    leaves the frame early instead of reaching its next rendezvous."""

    def test_wait_after_party_killed_deadlocks_with_names(self, sim):
        barrier = Barrier(sim, parties=2, name="frame")

        def waiter():
            yield barrier.wait()

        def doomed():
            yield sim.timeout(5)
            return  # fail-stop: this party never arrives

        sim.process(waiter(), name="survivor")
        sim.process(doomed(), name="victim")
        # the failed party never arrives, so the barrier can never fill:
        # the drain watchdog must name the stranded waiter
        with pytest.raises(SimulationError, match="survivor"):
            sim.run()
