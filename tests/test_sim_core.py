"""Discrete-event kernel: events, timeouts, processes, combinators."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestEventBasics:
    def test_event_starts_untriggered(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        sim.run()
        assert event.processed
        assert event.value == 42

    def test_double_succeed_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)


class TestProcesses:
    def test_timeout_advances_clock(self, sim):
        log = []

        def proc():
            yield sim.timeout(5.0)
            log.append(sim.now)
            yield sim.timeout(2.5)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [5.0, 7.5]

    def test_processes_interleave_by_time(self, sim):
        order = []

        def proc(name, delay):
            yield sim.timeout(delay)
            order.append(name)

        sim.process(proc("late", 10))
        sim.process(proc("early", 1))
        sim.process(proc("mid", 5))
        sim.run()
        assert order == ["early", "mid", "late"]

    def test_same_time_fifo_order(self, sim):
        order = []

        def proc(name):
            yield sim.timeout(3)
            order.append(name)

        for name in "abc":
            sim.process(proc(name))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_process_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_waiting_on_event_resumes_with_value(self, sim):
        event = sim.event()
        seen = []

        def waiter():
            value = yield event
            seen.append(value)

        def firer():
            yield sim.timeout(4)
            event.succeed("payload")

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert seen == ["payload"]

    def test_waiting_on_processed_event_still_resumes(self, sim):
        event = sim.event()
        event.succeed("early")
        seen = []

        def waiter():
            yield sim.timeout(10)  # event processed long before this
            value = yield event
            seen.append((sim.now, value))

        sim.process(waiter())
        sim.run()
        assert seen == [(10.0, "early")]

    def test_yielding_non_event_raises(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_chaining(self, sim):
        def inner():
            yield sim.timeout(3)
            return 7

        result = []

        def outer():
            value = yield sim.process(inner())
            result.append((sim.now, value))

        sim.process(outer())
        sim.run()
        assert result == [(3.0, 7)]


class TestCombinators:
    def test_all_of_waits_for_every_event(self, sim):
        times = []

        def proc():
            events = [sim.timeout(2), sim.timeout(9), sim.timeout(5)]
            yield sim.all_of(events)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [9.0]

    def test_all_of_empty_fires_immediately(self, sim):
        fired = []

        def proc():
            yield sim.all_of([])
            fired.append(sim.now)

        sim.process(proc())
        sim.run()
        assert fired == [0.0]

    def test_any_of_fires_on_first(self, sim):
        times = []

        def proc():
            yield sim.any_of([sim.timeout(8), sim.timeout(3)])
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [3.0]


class TestRunControl:
    def test_run_until_stops_clock(self, sim):
        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        now = sim.run(until=30)
        assert now == 30

    def test_step_without_events_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_run_returns_final_time(self, sim):
        def proc():
            yield sim.timeout(17)

        sim.process(proc())
        assert sim.run() == 17.0

    def test_run_until_never_moves_the_clock_back(self, sim):
        seen = []

        def proc():
            for _ in range(3):
                yield sim.timeout(25)
                seen.append(sim.now)

        sim.process(proc())
        assert sim.run(until=60) == 60
        with pytest.raises(SimulationError, match="already at 60"):
            sim.run(until=30)
        assert sim.now == 60
        # a timeout made now still lands after everything processed so far
        late = sim.timeout(5)
        assert sim.run() == 75
        assert late.processed and seen == [25, 50, 75]


class TestDeadlockWatchdog:
    def test_mutual_wait_names_both_processes(self, sim):
        gate_a, gate_b = sim.event(), sim.event()

        def alice():
            yield gate_b
            gate_a.succeed()

        def bob():
            yield gate_a
            gate_b.succeed()

        sim.process(alice(), name="alice")
        sim.process(bob(), name="bob")
        with pytest.raises(SimulationError) as info:
            sim.run()
        message = str(info.value)
        assert "deadlock" in message
        assert "'alice'" in message and "'bob'" in message
        assert "2 unfinished process(es)" in message

    def test_wait_description_mentions_resource(self, sim):
        from repro.sim import Resource
        port = Resource(sim, name="egress0")
        port.request()  # hold the only unit forever

        def stuck():
            yield port.request()

        sim.process(stuck(), name="sender")
        with pytest.raises(SimulationError, match="resource 'egress0'"):
            sim.run()

    def test_watchdog_can_be_disabled(self, sim):
        def stuck():
            yield sim.event()

        sim.process(stuck(), name="stuck")
        assert sim.run(watchdog=False) == 0.0

    def test_daemon_processes_are_exempt(self, sim):
        def service():
            while True:
                yield sim.event()  # waits forever by design

        def worker():
            yield sim.timeout(5)

        sim.process(service(), name="service", daemon=True)
        sim.process(worker(), name="worker")
        assert sim.run() == 5.0

    def test_run_until_does_not_trip_the_watchdog(self, sim):
        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        assert sim.run(until=30) == 30

    def test_clean_completion_passes(self, sim):
        def proc():
            yield sim.timeout(3)

        sim.process(proc())
        assert sim.run() == 3.0
        assert sim.stuck_processes() == []


class TestProcessFailureModes:
    def test_exception_is_prefixed_with_process_name(self, sim):
        def exploder():
            yield sim.timeout(1)
            raise ValueError("boom")

        sim.process(exploder(), name="gpu3-render")
        with pytest.raises(ValueError, match=r"\[process 'gpu3-render'\] boom"):
            sim.run()


class TestLivelockWatchdog:
    """The configurable virtual-time budget (``watchdog_cycles``)."""

    def test_livelock_trips_typed_error(self):
        from repro.errors import WatchdogError
        sim = Simulator(watchdog_cycles=100.0)

        def spinner():
            while True:
                yield sim.timeout(10.0)

        sim.process(spinner(), name="spinner")
        with pytest.raises(WatchdogError, match="'spinner'"):
            sim.run()
        # the clock never advances past the budget
        assert sim.now <= 100.0

    def test_budget_is_per_run_not_absolute(self):
        """Each run() call gets a fresh budget from its starting time."""
        sim = Simulator(watchdog_cycles=100.0)

        def step():
            yield sim.timeout(80.0)

        sim.process(step())
        assert sim.run() == 80.0
        sim.process(step())
        assert sim.run() == 160.0  # 80 cycles into the second budget

    def test_completing_run_never_trips(self):
        sim = Simulator(watchdog_cycles=1000.0)

        def proc():
            yield sim.timeout(999.0)

        sim.process(proc())
        assert sim.run() == 999.0

    def test_watchdog_error_is_a_simulation_error(self):
        from repro.errors import WatchdogError
        assert issubclass(WatchdogError, SimulationError)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(SimulationError, match="positive"):
            Simulator(watchdog_cycles=0.0)
        with pytest.raises(SimulationError, match="positive"):
            Simulator(watchdog_cycles=-5.0)

    def test_budget_threads_through_make_setup(self):
        from repro.harness import make_setup
        setup = make_setup("tiny", num_gpus=2, watchdog_cycles=123.0)
        assert setup.config.watchdog_cycles == 123.0
        # the budget must not perturb results: it is excluded from the
        # result-cache identity
        baseline = make_setup("tiny", num_gpus=2)
        assert setup.config.link == baseline.config.link
        assert setup.config.gpu == baseline.config.gpu
