"""The resource protocol, checked where it matters: in the DES kernel.

A port claim (``Resource.request``, an event the process yields until
granted) must be released on every path, including when the owning
process is killed mid-hold, and two processes must never take the same
pair of resources in opposite orders. The
kernel enforces both at runtime: a leaked hold or a lock-order cycle
leaves some process waiting forever, so the event queue drains with
unfinished processes and ``Simulator.run``'s drain watchdog raises a
``SimulationError`` naming them. A second release of the same claim
raises at once.

The scenarios below are small processes around one contended port; the
meta-tests at the bottom seed the interconnect itself with a dropped
port release and a reversed acquisition order and require a 4-GPU wolf
frame to trip the watchdog.
"""

import itertools

import pytest

from repro.errors import SimulationError
from repro.harness import make_setup, run
from repro.sim import Resource, Simulator
from repro.timing.interconnect import Interconnect
from repro.traces import load_benchmark


def _waiter(sim, port, start=2):
    """Claims the port after ``start`` cycles and releases it."""
    yield sim.timeout(start)
    req = port.request()
    yield req
    port.release(req)


def _killer(sim, victim, at=1):
    yield sim.timeout(at)
    victim.kill()


def contend(worker, capacity=1, kill_at=None, holder=False):
    """Run ``worker(sim, port)`` against a later waiter on the same port.

    Returns the drain watchdog's message, or None when every process
    finished. ``kill_at`` kills the worker at that cycle; ``holder``
    first lets another process hold the port for 3 cycles.
    """
    sim = Simulator()
    port = Resource(sim, capacity=capacity, name="port")
    if holder:
        sim.process(_holder(sim, port), name="holder")
    process = sim.process(worker(sim, port), name="worker")
    if kill_at is not None:
        sim.process(_killer(sim, process, kill_at), name="killer")
    sim.process(_waiter(sim, port), name="waiter")
    try:
        sim.run()
    except SimulationError as exc:
        if "deadlock" not in str(exc):
            raise
        return str(exc)
    return None


def _holder(sim, port):
    req = port.request()
    yield req
    yield sim.timeout(3)
    port.release(req)


# ------------------------------------------------------------ leaked-hold


class TestLeakedHold:
    def test_hold_never_released_leaks(self):
        def worker(sim, port):
            yield port.request()
            yield sim.timeout(1)

        message = contend(worker)
        assert message is not None and "'waiter'" in message

    def test_release_on_every_path_is_clean(self):
        def worker(sim, port):
            req = port.request()
            yield req
            port.release(req)

        assert contend(worker) is None

    def test_discarded_request_leaks(self):
        def worker(sim, port):
            port.request()
            yield sim.timeout(1)

        assert contend(worker) is not None

    def test_unbound_granted_request_leaks(self):
        def worker(sim, port):
            yield port.request()

        assert contend(worker) is not None

    def test_rebinding_last_reference_leaks(self):
        def worker(sim, port):
            req = port.request()
            yield req
            req = None
            yield sim.timeout(1)
            assert req is None

        assert contend(worker) is not None

    def test_yield_inside_try_without_finally_release_leaks(self):
        def worker(sim, port):
            req = port.request()
            yield req
            try:
                yield sim.timeout(3)
            except ValueError:
                pass
            port.release(req)

        assert contend(worker, kill_at=1) is not None

    def test_release_via_callee_is_clean(self):
        def done(port, req):
            port.release(req)

        def worker(sim, port):
            req = port.request()
            yield req
            done(port, req)

        assert contend(worker) is None


# ---------------------------------------------------- yield-while-holding


class TestYieldWhileHolding:
    def test_unprotected_yield_flags(self):
        def worker(sim, port):
            req = port.request()
            yield req
            yield sim.timeout(3)
            port.release(req)

        assert contend(worker, kill_at=1) is not None

    def test_finally_release_protects_the_hold(self):
        def worker(sim, port):
            req = port.request()
            yield req
            try:
                yield sim.timeout(3)
            finally:
                port.withdraw(req)

        assert contend(worker, kill_at=1) is None

    def test_finally_release_through_callee_protects(self):
        def cleanup(port, req):
            port.withdraw(req)

        def worker(sim, port):
            req = port.request()
            yield req
            try:
                yield sim.timeout(3)
            finally:
                cleanup(port, req)

        assert contend(worker, kill_at=1) is None

    def test_allowlisted_resource_may_span_yields(self):
        # holding across yields is fine when nothing kills the holder
        def worker(sim, port):
            req = port.request()
            yield req
            yield sim.timeout(3)
            port.release(req)

        assert contend(worker) is None

    def test_guarded_finally_release_protects(self):
        # the interconnect idiom: withdraw also cancels a still-queued
        # claim, so a worker killed while waiting leaves no phantom grant
        def worker(sim, port):
            req = None
            try:
                req = port.request()
                yield req
                yield sim.timeout(3)
            finally:
                if req is not None:
                    port.withdraw(req)

        def careless(sim, port):
            req = port.request()
            yield req
            port.release(req)

        assert contend(worker, kill_at=1, holder=True) is None
        assert contend(careless, kill_at=1, holder=True) is not None


# ----------------------------------------------------------- double-release


class TestDoubleRelease:
    def test_strict_release_twice_flags(self):
        def worker(sim, port):
            req = port.request()
            yield req
            port.release(req)
            port.release(req)

        with pytest.raises(SimulationError, match="never granted"):
            contend(worker)

    def test_withdraw_is_idempotent_safe(self):
        def worker(sim, port):
            req = port.request()
            yield req
            port.withdraw(req)
            port.withdraw(req)

        assert contend(worker) is None

    def test_release_in_branch_then_handler_is_not_double(self):
        def worker(sim, port):
            req = port.request()
            yield req
            try:
                port.release(req)
            except ValueError:
                port.release(req)

        assert contend(worker) is None


# --------------------------------------------------------- lock-order-cycle


def _forward(sim, p, q):
    a = p.request()
    yield a
    try:
        yield sim.timeout(1)
        b = q.request()
        yield b
        q.release(b)
    finally:
        p.withdraw(a)


def _backward(sim, p, q):
    b = q.request()
    yield b
    try:
        yield sim.timeout(1)
        a = p.request()
        yield a
        p.release(a)
    finally:
        q.withdraw(b)


class TestLockOrderCycle:
    def test_conflicting_orders_cycle(self):
        def scenario(order_b):
            sim = Simulator()
            p, q = Resource(sim, name="p"), Resource(sim, name="q")
            sim.process(_forward(sim, p, q), name="forward")
            sim.process(order_b(sim, p, q), name="second")
            try:
                sim.run()
            except SimulationError as exc:
                return str(exc)
            return None

        message = scenario(_backward)
        assert message is not None and "deadlock" in message
        assert "'forward'" in message and "'second'" in message

    def test_consistent_order_is_clean(self):
        sim = Simulator()
        p, q = Resource(sim, name="p"), Resource(sim, name="q")
        sim.process(_forward(sim, p, q), name="forward")
        sim.process(_forward(sim, p, q), name="also-forward")
        sim.run()
        assert p.count == q.count == 0

    def test_same_resource_reentry_is_not_a_cycle(self):
        # capacity > 1 makes nested holds of one resource legitimate
        def worker(sim, port):
            first = port.request()
            yield first
            try:
                second = port.request()
                yield second
                port.release(second)
            finally:
                port.withdraw(first)

        assert contend(worker, capacity=2) is None

    def test_edges_follow_calls(self):
        # caller holds `outer`, a callee it delegates to takes `inner`
        sim = Simulator()
        outer = Resource(sim, name="outer")
        inner = Resource(sim, name="inner")

        def inner_hop():
            req = inner.request()
            yield req
            inner.release(req)

        def forward():
            req = outer.request()
            yield req
            try:
                yield sim.timeout(1)
                yield from inner_hop()
            finally:
                outer.withdraw(req)

        sim.process(forward(), name="forward")
        sim.process(_backward(sim, outer, inner), name="backward")
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()


# ------------------------------------------------------- seeded mutations


def _reversed_transfer(self, src, dst, num_bytes, category, gate=None,
                       receive_cycles=0.0, ports_released=None):
    """``Interconnect.transfer`` taking the receiver's ingress first."""
    self.stats.add_traffic(src, category, num_bytes)
    ingress_req = self.ingress[dst].request()
    try:
        yield ingress_req
        egress_req = self.egress[src].request()
        try:
            yield egress_req
            if gate is not None and not gate.processed:
                yield gate
            yield from self._stream_with_retries(src, dst, num_bytes)
        finally:
            self.egress[src].withdraw(egress_req)
    finally:
        self.ingress[dst].withdraw(ingress_req)
    if ports_released is not None and not ports_released.triggered:
        ports_released.succeed()
    yield self.sim.timeout(self.head_latency_cycles(src, dst))
    if receive_cycles:
        yield self.sim.timeout(receive_cycles)


def _wolf_frame(scheme="chopin+sched"):
    return run(scheme, load_benchmark("wolf", "tiny"),
               make_setup("tiny", num_gpus=4), use_cache=False)


class TestProtocolMeta:
    def test_catches_seeded_release_drop(self, monkeypatch):
        init = Interconnect.__init__

        def leaky_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for port in self.egress:
                port.withdraw = lambda request: None  # dropped release

        _wolf_frame()  # the unmutated frame drains cleanly
        monkeypatch.setattr(Interconnect, "__init__", leaky_init)
        with pytest.raises(SimulationError, match="deadlock"):
            _wolf_frame()

    def test_catches_seeded_order_reversal(self, monkeypatch):
        transfer = Interconnect.transfer
        calls = itertools.count()

        def mixed_order(self, *args, **kwargs):
            # every other transfer claims ingress before egress
            if next(calls) % 2:
                return _reversed_transfer(self, *args, **kwargs)
            return transfer(self, *args, **kwargs)

        monkeypatch.setattr(Interconnect, "transfer", _reversed_transfer)
        _wolf_frame()  # one consistent order, even reversed, is fine
        monkeypatch.setattr(Interconnect, "transfer", mixed_order)
        with pytest.raises(SimulationError, match="deadlock"):
            _wolf_frame()
