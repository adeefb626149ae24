"""Inter-GPU interconnect timing model.

The default fabric is point-to-point links between every GPU pair (the
NVLink/NVSwitch topology of NVIDIA DGX, §V), modeled with three contention
points:

- a per-GPU **egress port** — a GPU streams one outbound message at a time;
- a per-GPU **ingress port** — a GPU drains one inbound message at a time;
- the directed link itself (implicit: with single egress/ingress ports the
  pairwise links never contend beyond the ports).

``LinkConfig.topology`` swaps in three alternative fabrics (see
:mod:`repro.timing.topology` for the link namespace and routing):

- ``bus`` — every transfer serializes through one shared medium of
  ``bus_bandwidth_x`` links' worth of aggregate bandwidth;
- ``ring`` — messages hop store-and-forward along the shortest ring
  direction, claiming each directed hop link in turn (hop contention) and
  paying the head latency once per hop;
- ``switch`` — a single crossbar: the per-GPU egress/ingress ports are the
  switch ports, transfers pay two wire hops plus
  ``switch_latency_cycles`` of traversal, and a backplane resource admits
  ``num_gpus / switch_oversubscription`` simultaneous streams.

A transfer claims the sender's egress, propagates head latency, then queues
FIFO at the receiver's ingress. An optional ``gate`` event models the naive
direct-send failure mode (§IV-E): the receiver does not drain until it has
finished rendering, so queued messages pin their senders' egress ports —
exactly the congestion the image composition scheduler avoids.

With ``LinkConfig.ideal`` transfers are free (but traffic is still counted),
for the upper-bound variants of Fig 5.

Fault injection (``SystemConfig.faults``): each streamed message may be
dropped (detected by acknowledgement timeout) or corrupted (detected by CRC
at the receiver); the link retransmits with exponential backoff up to the
plan's retry budget, holding its ports while it does — link-level
retransmission occupies the channel, which is why transient errors hurt
more than their raw probability suggests. Degraded-bandwidth windows scale
the streaming rate of any transfer that starts inside them. All retry
counters land in :class:`~repro.stats.RunStats`.

A message in flight is a :class:`Transfer`: a small callback object, not
a DES process. It starts at the call, takes each step of its timeline as
a callback on the event that step waits for, and is itself the event
that fires on delivery.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..analysis.sanitizer import ACCESS_WRITE
from ..config import (TOPOLOGY_RING, TOPOLOGY_SHARED_BUS, TOPOLOGY_SWITCH,
                      SystemConfig)
from ..errors import FaultError, SimulationError
from ..faults.plan import OUTCOME_DROP, OUTCOME_OK, FaultInjector, FaultPlan
from ..sim import Event, Request, Resource, Simulator, Timeout
from ..stats import RunStats
from . import timeline
from .topology import ring_hops, ring_link_id

#: sentinel: take the fault plan from ``config.faults``
_FROM_CONFIG = object()


class Interconnect:
    """DES model of the all-to-all inter-GPU fabric."""

    def __init__(self, sim: Simulator, config: SystemConfig,
                 stats: RunStats,
                 fault_plan: Optional[FaultPlan] = _FROM_CONFIG) -> None:
        self.sim = sim
        self.config = config
        self.stats = stats
        n = config.num_gpus
        link = config.link
        self.egress = [Resource(sim, name=f"egress{g}") for g in range(n)]
        self.ingress = [Resource(sim, name=f"ingress{g}") for g in range(n)]
        self._bytes_per_cycle = link.bandwidth_bytes_per_cycle(
            config.gpu.frequency_hz)
        if fault_plan is _FROM_CONFIG:
            fault_plan = config.faults
        self.fault_plan: Optional[FaultPlan] = fault_plan
        self._injector: Optional[FaultInjector] = None
        if fault_plan is not None and fault_plan.affects_links:
            self._injector = FaultInjector(fault_plan)
        #: the one shared resource every stream also claims, if any: the
        #: bus (all transfers serialize through one medium of
        #: bus_bandwidth_x links' worth of aggregate bandwidth) or the
        #: oversubscribed switch backplane (bounds simultaneous streams;
        #: the egress/ingress ports are the crossbar ports)
        self._fabric: Optional[Resource] = None
        # Ring: one Resource per directed hop link; messages claim the hops
        # of their (shortest-direction) path one at a time.
        self._ring: Dict[Tuple[int, int], Resource] = {}
        if not link.ideal:
            if link.topology == TOPOLOGY_SHARED_BUS:
                self._fabric = Resource(sim, name="bus")
                self._bytes_per_cycle *= link.bus_bandwidth_x
            elif link.topology == TOPOLOGY_RING:
                for g in range(n):
                    for nb in ((g + 1) % n, (g - 1) % n):
                        self._ring[(g, nb)] = Resource(
                            sim, name=ring_link_id(g, nb))
            elif link.topology == TOPOLOGY_SWITCH:
                capacity = max(1, round(n / link.switch_oversubscription))
                if capacity < n:
                    self._fabric = Resource(sim, capacity=capacity,
                                            name="backplane")
        #: head_latency_cycles(src, dst) of every GPU pair
        self._head_latency: List[List[float]] = [
            [self.head_latency_cycles(src, dst) for dst in range(n)]
            for src in range(n)]

    def occupancy_cycles(self, num_bytes: float,
                         at: Optional[float] = None) -> float:
        """Cycles to stream ``num_bytes``; ``at`` applies any degraded-
        bandwidth window in effect at that start cycle."""
        if self.config.link.ideal:
            return 0.0
        rate = self._bytes_per_cycle
        if at is not None and self._injector is not None:
            rate *= self.fault_plan.bandwidth_factor_at(at)
        return num_bytes / rate

    def head_latency_cycles(self, src: int, dst: int) -> float:
        """Head (propagation) latency of one ``src`` -> ``dst`` message.

        p2p/bus pay the link latency once; the ring pays it per
        store-and-forward hop; the switch pays two wire hops plus the
        crossbar traversal.
        """
        link = self.config.link
        if link.ideal:
            return 0.0
        if link.topology == TOPOLOGY_RING:
            return link.latency_cycles * len(
                ring_hops(src, dst, self.config.num_gpus))
        if link.topology == TOPOLOGY_SWITCH:
            return 2.0 * link.latency_cycles + link.switch_latency_cycles
        return float(link.latency_cycles)

    def _ring_route(self, src: int, dst: int) -> List[Resource]:
        """The directed ring hop resources of a ``src`` -> ``dst`` message."""
        return [self._ring[hop]
                for hop in ring_hops(src, dst, self.config.num_gpus)]

    def transfer(self, src: int, dst: int, num_bytes: float, category: str,
                 gate: Optional[Event] = None,
                 receive_cycles: float = 0.0,
                 ports_released: Optional[Event] = None,
                 on_delivered: Optional[Callable[[], None]] = None,
                 ) -> "Transfer":
        """Move ``num_bytes`` from ``src`` to ``dst``; returns the delivery
        event.

        Timeline: claim the sender's egress and the receiver's ingress
        (FIFO), stream for ``num_bytes / bandwidth`` cycles, release both
        ports, then pay the head latency (the last byte propagating) and any
        ``receive_cycles`` of post-receive work (e.g., ROP composition) off
        the ports — so back-to-back transfers pipeline their latencies.
        The transfer starts at the call: the egress request is issued
        before ``transfer`` returns.

        ``gate`` models the naive direct-send failure mode (§IV-E): while
        the gate is pending the message sits in the network with both ports
        pinned — the congestion the composition scheduler avoids.

        ``ports_released`` (if given) fires the moment both ports free up,
        letting a scheduler start the next pairing while this message's tail
        is still in flight. ``on_delivered`` (if given) runs once the
        receive work is done, just before the delivery event triggers.

        Injected link errors retransmit here with exponential backoff; the
        ports (and shared bus, if any) stay claimed across retries.
        """
        if src == dst:
            raise SimulationError("transfer to self")
        self.stats.add_traffic(src, category, num_bytes)
        return Transfer(self, src, dst, num_bytes, gate, receive_cycles,
                        ports_released, on_delivered)

    def broadcast(self, src: int, num_bytes_each: float, category: str,
                  targets: Optional[Iterable[int]] = None) -> Event:
        """Send ``num_bytes_each`` from ``src`` to every other GPU; returns
        an event that fires once every message is delivered.

        Messages go out back-to-back through the single egress port (their
        latencies overlap). ``targets`` restricts the recipients (degraded
        mode broadcasts only to surviving GPUs).
        """
        if targets is None:
            targets = range(self.config.num_gpus)
        return self.sim.all_of([
            self.transfer(src, dst, num_bytes_each, category)
            for dst in targets if dst != src])


class PortsReleased(Event):
    """A ``ports_released`` event that names its transfer to the drain
    watchdog while it is pending."""

    __slots__ = ("transfer",)

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim)
        self.transfer: Optional[Transfer] = None

    def describe(self) -> str:
        if self.transfer is None:
            return "a pending PortsReleased"
        return f"the ports of {self.transfer.describe()}"


class Transfer(Event):
    """One message in flight; the transfer is itself its delivery event.

    Each step of the timeline (see :meth:`Interconnect.transfer`) is a
    callback on the event the step waits for: a port or hop grant, the
    gate, a stream span, a retry backoff, the head latency, the receive
    work. Every wait is a real event pop, as a process's yield was, so
    same-cycle grants keep their FIFO order.
    """

    __slots__ = ("net", "src", "dst", "num_bytes", "gate", "receive_cycles",
                 "ports_released", "on_delivered", "_claims", "_route",
                 "_hop", "_hop_req", "_attempt", "_start", "_waiting_on")

    def __init__(self, net: Interconnect, src: int, dst: int,
                 num_bytes: float, gate: Optional[Event],
                 receive_cycles: float, ports_released: Optional[Event],
                 on_delivered: Optional[Callable[[], None]]) -> None:
        super().__init__(net.sim)
        self.net = net
        self.src = src
        self.dst = dst
        self.num_bytes = num_bytes
        self.gate = gate
        self.receive_cycles = receive_cycles
        self.ports_released = ports_released
        self.on_delivered = on_delivered
        self._waiting_on: Optional[Event] = None
        if net.config.link.ideal:
            if ports_released is not None:
                ports_released.succeed()
            if receive_cycles:
                self._wait(Timeout(net.sim, receive_cycles), self._deliver)
            else:
                self._deliver()
            return
        self._attempt = 0
        request = net.egress[src].request()
        #: granted port claims, in claim order
        self._claims: List[Request] = [request]
        self._wait(request, self._egress_granted)

    def describe(self) -> str:
        """What this transfer waits on, for the drain watchdog."""
        waiting = self._waiting_on
        resource = getattr(waiting, "resource", None)
        if resource is not None:
            what = resource.name
        elif waiting is not None and waiting is self.gate:
            what = "its receiver gate"
        elif isinstance(waiting, Timeout):
            what = f"a timeout of {waiting.delay}"
        else:
            what = "nothing"
        return f"transfer {self.src}->{self.dst} waiting on {what}"

    def _wait(self, event: Event, step: Callable[[Event], None]) -> None:
        self._waiting_on = event
        event.callbacks.append(step)

    def _egress_granted(self, _: Event) -> None:
        gate = self.gate
        if gate is not None and not gate.processed:
            # Receiver not ready: the message parks in the network,
            # pinning the sender's egress — everything queued behind it
            # stalls (the naive direct-send congestion of §IV-E). The
            # receiver's ingress is only claimed once the gate opens, so
            # ungated traffic to the same receiver still drains.
            self._wait(gate, self._claim_ingress)
        else:
            self._claim_ingress(gate)

    def _claim_ingress(self, _: Optional[Event]) -> None:
        request = self.net.ingress[self.dst].request()
        self._claims.append(request)
        self._wait(request, self._ingress_granted)

    def _ingress_granted(self, event: Event) -> None:
        fabric = self.net._fabric
        if fabric is None:
            self._stream(event)
            return
        request = fabric.request()
        self._claims.append(request)
        self._wait(request, self._stream)

    def _stream(self, _: Event) -> None:
        """Stream the payload across the fabric once.

        On the ring the message traverses its hop links store-and-forward,
        claiming each directed hop resource in turn — two messages crossing
        the same hop serialize there, which is exactly where ring fabrics
        congest. Other fabrics stream in one span.
        """
        net = self.net
        if net._ring:
            self._route = net._ring_route(self.src, self.dst)
            self._hop = 0
            self._claim_hop()
        else:
            self._occupy(self._span_done)

    def _occupy(self, done: Callable[[Event], None]) -> None:
        """Hold the link (or ring hop) for the payload's streaming time."""
        sim = self.net.sim
        self._start = sim.now
        self._wait(Timeout(sim, self.net.occupancy_cycles(
            self.num_bytes, at=self._start)), done)

    def _span_done(self, _: Event) -> None:
        recorder = timeline.current()
        if recorder is not None:
            recorder.record(f"link{self.src}->{self.dst}", "transfer",
                            self._start, self.net.sim.now)
        self._streamed()

    def _claim_hop(self) -> None:
        request = self._route[self._hop].request()
        self._hop_req = request
        self._wait(request, self._hop_granted)

    def _hop_granted(self, _: Event) -> None:
        self._occupy(self._hop_done)

    def _hop_done(self, _: Event) -> None:
        hop = self._hop_req.resource
        recorder = timeline.current()
        if recorder is not None:
            recorder.record(hop.name, "transfer", self._start,
                            self.net.sim.now)
        hop.release(self._hop_req)
        self._hop += 1
        if self._hop < len(self._route):
            self._claim_hop()
        else:
            self._streamed()

    def _streamed(self) -> None:
        """Retransmit on an injected link error, else land the payload."""
        net = self.net
        injector = net._injector
        if injector is not None:
            outcome = injector.transfer_outcome(self.src, self.dst)
            if outcome != OUTCOME_OK:
                self._retry(outcome)
                return
        self._landed()

    def _retry(self, outcome: str) -> None:
        net, stats = self.net, self.net.stats
        plan = net.fault_plan
        self._attempt += 1
        stats.link_retries += 1
        stats.retransmitted_bytes += self.num_bytes
        if outcome == OUTCOME_DROP:
            stats.dropped_transfers += 1
        else:
            stats.corrupted_transfers += 1
        if self._attempt > plan.retry_budget:
            raise FaultError(
                f"link {self.src}->{self.dst} exhausted its retry budget of "
                f"{plan.retry_budget} at cycle {net.sim.now} "
                f"({stats.link_retries} total retries this run)")
        detect = (plan.drop_detection_cycles
                  if outcome == OUTCOME_DROP else 0.0)
        backoff = net._injector.backoff_cycles(self._attempt)
        stats.backoff_cycles += detect + backoff
        self._wait(Timeout(net.sim, detect + backoff), self._stream)

    def _landed(self) -> None:
        net = self.net
        sim = net.sim
        if self.num_bytes > 0 and sim.sanitizer is not None:
            # The payload has landed in the receiver's framebuffer region.
            # With real links, the ingress FIFO plus a nonzero streaming
            # occupancy serializes deliveries to one GPU, so this only
            # flags genuinely overlapping writes (ideal links record
            # nothing: every transfer lands at the same instant by design).
            sim.record_access(f"fb:gpu{self.dst}", ACCESS_WRITE,
                              process=f"link{self.src}->{self.dst}")
        for request in reversed(self._claims):
            request.resource.release(request)
        released = self.ports_released
        if released is not None and not released.triggered:
            released.succeed()
        self._wait(Timeout(sim, net._head_latency[self.src][self.dst]),
                   self._arrived)

    def _arrived(self, _: Event) -> None:
        if self.receive_cycles:
            self._start = self.net.sim.now
            self._wait(Timeout(self.net.sim, self.receive_cycles),
                       self._received)
        else:
            self._deliver()

    def _received(self, _: Event) -> None:
        recorder = timeline.current()
        if recorder is not None:
            recorder.record(f"gpu{self.dst}", "composition", self._start,
                            self.net.sim.now)
        self._deliver()

    def _deliver(self, _: Optional[Event] = None) -> None:
        self._waiting_on = None
        if self.on_delivered is not None:
            self.on_delivered()
        self.succeed()
