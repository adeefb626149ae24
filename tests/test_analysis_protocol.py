"""The resource protocol, checked where it matters: in the DES kernel.

A port claim (``Resource.request``, an event the process yields until
granted) must be released on every path, including when an exception
the process catches skips the code after the claim, and two claimants
must never take the same pair of resources in opposite orders. The
kernel enforces both at runtime: a leaked hold or a lock-order cycle
leaves some process waiting forever, so the event queue drains with
unfinished processes and ``Simulator.run``'s drain watchdog raises a
``SimulationError`` naming them. A second release of the same claim
raises at once.

The scenarios below are small processes around one contended port; the
meta-tests at the bottom seed the interconnect's transfers themselves
with a dropped port release and a reversed acquisition order and
require a 4-GPU wolf frame to trip the watchdog, naming a stuck
transfer.
"""

import copy
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


class Abort(Exception):
    """An error a worker raises and catches itself, mid-hold."""


def _failing_step(sim):
    """Work that fails after a yield."""
    yield sim.timeout(3)
    raise Abort


def contend(worker, capacity=1):
    """Run ``worker(sim, port)`` against a later waiter on the same port.

    Returns the drain watchdog's message, or None when every process
    finished.
    """
    sim = Simulator()
    port = Resource(sim, capacity=capacity, name="port")
    sim.process(worker(sim, port), name="worker")
    sim.process(_waiter(sim, port), name="waiter")
    try:
        sim.run()
    except SimulationError as exc:
        if "deadlock" not in str(exc):
            raise
        return str(exc)
    return None


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
                yield from _failing_step(sim)
            except Abort:
                return  # the handler exits before the release
            port.release(req)

        assert contend(worker) is not None

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
            try:
                req = port.request()
                yield req
                yield from _failing_step(sim)
                port.release(req)
            except Abort:
                pass

        assert contend(worker) is not None

    def test_finally_release_protects_the_hold(self):
        def worker(sim, port):
            try:
                req = port.request()
                yield req
                try:
                    yield from _failing_step(sim)
                finally:
                    port.release(req)
            except Abort:
                pass

        assert contend(worker) is None

    def test_finally_release_through_callee_protects(self):
        def cleanup(port, req):
            port.release(req)

        def worker(sim, port):
            try:
                req = port.request()
                yield req
                try:
                    yield from _failing_step(sim)
                finally:
                    cleanup(port, req)
            except Abort:
                pass

        assert contend(worker) is None

    def test_allowlisted_resource_may_span_yields(self):
        # holding across yields is fine when every path releases
        def worker(sim, port):
            req = port.request()
            yield req
            yield sim.timeout(3)
            port.release(req)

        assert contend(worker) is None


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
        p.release(a)


def _backward(sim, p, q):
    b = q.request()
    yield b
    try:
        yield sim.timeout(1)
        a = p.request()
        yield a
        p.release(a)
    finally:
        q.release(b)


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
                port.release(first)

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
                outer.release(req)

        sim.process(forward(), name="forward")
        sim.process(_backward(sim, outer, inner), name="backward")
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()


# ------------------------------------------------------- seeded mutations


def _ingress_first(net, src, dst, *args, **kwargs):
    """``Interconnect.transfer`` taking the receiver's ingress first: the
    transfer runs over a view of ``net`` whose sender egress is the real
    receiver ingress and vice versa."""
    view = copy.copy(net)
    view.egress = {src: net.ingress[dst]}
    view.ingress = {dst: net.egress[src]}
    return TRANSFER(view, src, dst, *args, **kwargs)


TRANSFER = Interconnect.transfer
#: the drain watchdog names a transfer and the port it waits on
STUCK_TRANSFER = r"deadlock.*transfer \d+->\d+ waiting on (egress|ingress)\d+"


def _wolf_frame(scheme="chopin+sched"):
    return run(scheme, load_benchmark("wolf", "tiny"),
               make_setup("tiny", num_gpus=4), use_cache=False)


class TestProtocolMeta:
    def test_catches_seeded_release_drop(self, monkeypatch):
        init = Interconnect.__init__

        def leaky_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for port in self.egress:
                port.release = lambda request: None  # dropped release

        _wolf_frame()  # the unmutated frame drains cleanly
        monkeypatch.setattr(Interconnect, "__init__", leaky_init)
        with pytest.raises(SimulationError, match=STUCK_TRANSFER):
            _wolf_frame()

    def test_catches_seeded_order_reversal(self, monkeypatch):
        calls = itertools.count()

        def mixed_order(self, *args, **kwargs):
            # every other transfer claims ingress before egress
            if next(calls) % 2:
                return _ingress_first(self, *args, **kwargs)
            return TRANSFER(self, *args, **kwargs)

        monkeypatch.setattr(Interconnect, "transfer", _ingress_first)
        _wolf_frame()  # one consistent order, even reversed, is fine
        monkeypatch.setattr(Interconnect, "transfer", mixed_order)
        with pytest.raises(SimulationError, match=STUCK_TRANSFER):
            _wolf_frame()
