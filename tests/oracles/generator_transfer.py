"""The generator-process interconnect transfer, kept as the oracle for the
callback-driven :class:`repro.timing.interconnect.Transfer`.

``GeneratorInterconnect`` is :class:`repro.timing.interconnect.Interconnect`
with ``transfer`` as it was while every message was a DES process: one
generator that yields each port request, the gate, each stream span, ring
hop and retry backoff, then the head latency and the receive work. The
ports are released in the same order as before (bus or backplane,
ingress, egress). Only the ``try``/``finally`` withdraw that let a
killed process give its ports back is gone: processes can no longer be
killed.

:class:`SyncProcess` runs such a generator to its first yield at
construction, the way ``Interconnect.transfer`` starts a transfer
synchronously at the call, so a test can compare the two resume for
resume.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import FaultError, SimulationError
from repro.faults.plan import OUTCOME_DROP, OUTCOME_OK
from repro.sim import Event, Process, Simulator
from repro.timing import timeline
from repro.timing.interconnect import Interconnect


class SyncProcess(Process):
    """A process started at construction instead of by a bootstrap
    ``Timeout(0)``.

    It is a daemon: like a transfer object, a stuck transfer trips the
    drain watchdog only through the processes that wait on it.
    """

    __slots__ = ()

    def __init__(self, sim: Simulator, generator: Generator[Event, Any, Any],
                 name: str = "") -> None:
        Event.__init__(self, sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.daemon = True
        self._waiting_on = None
        sim._register_process(self)
        self._resume(None)


class GeneratorInterconnect(Interconnect):
    """The interconnect with a generator ``transfer`` (see module doc)."""

    def transfer(self, src: int, dst: int, num_bytes: float, category: str,
                 gate: Optional[Event] = None,
                 receive_cycles: float = 0.0,
                 ports_released: Optional[Event] = None) -> Generator:
        if src == dst:
            raise SimulationError("transfer to self")
        self.stats.add_traffic(src, category, num_bytes)
        if self.config.link.ideal:
            if ports_released is not None:
                ports_released.succeed()
            if receive_cycles:
                yield self.sim.timeout(receive_cycles)
            return

        egress_req = self.egress[src].request()
        yield egress_req
        if gate is not None and not gate.processed:
            yield gate
        ingress_req = self.ingress[dst].request()
        yield ingress_req
        fabric_req = None
        if self._fabric is not None:  # the shared bus or switch backplane
            fabric_req = self._fabric.request()
            yield fabric_req
        yield from self._stream_with_retries(src, dst, num_bytes)
        if fabric_req is not None:
            self._fabric.release(fabric_req)
        self.ingress[dst].release(ingress_req)
        self.egress[src].release(egress_req)
        if ports_released is not None and not ports_released.triggered:
            ports_released.succeed()
        yield self.sim.timeout(self.head_latency_cycles(src, dst))
        if receive_cycles:
            receive_start = self.sim.now
            yield self.sim.timeout(receive_cycles)
            recorder = timeline.current()
            if recorder is not None:
                recorder.record(f"gpu{dst}", "composition",
                                receive_start, self.sim.now)

    def _stream_once(self, src: int, dst: int,
                     num_bytes: float) -> Generator:
        """Stream the payload once: hop by hop on the ring, else one span."""
        if self._ring:
            for hop in self._ring_route(src, dst):
                hop_req = hop.request()
                yield hop_req
                hop_start = self.sim.now
                yield self.sim.timeout(
                    self.occupancy_cycles(num_bytes, at=hop_start))
                recorder = timeline.current()
                if recorder is not None:
                    recorder.record(hop.name, "transfer",
                                    hop_start, self.sim.now)
                hop.release(hop_req)
            return
        span_start = self.sim.now
        yield self.sim.timeout(self.occupancy_cycles(num_bytes,
                                                     at=span_start))
        recorder = timeline.current()
        if recorder is not None:
            recorder.record(f"link{src}->{dst}", "transfer",
                            span_start, self.sim.now)

    def _stream_with_retries(self, src: int, dst: int,
                             num_bytes: float) -> Generator:
        """Stream the payload, retransmitting on injected link errors."""
        attempt = 0
        while True:
            yield from self._stream_once(src, dst, num_bytes)
            if self._injector is None:
                return
            outcome = self._injector.transfer_outcome(src, dst)
            if outcome == OUTCOME_OK:
                return
            attempt += 1
            plan = self.fault_plan
            self.stats.link_retries += 1
            self.stats.retransmitted_bytes += num_bytes
            if outcome == OUTCOME_DROP:
                self.stats.dropped_transfers += 1
            else:
                self.stats.corrupted_transfers += 1
            if attempt > plan.retry_budget:
                raise FaultError(
                    f"link {src}->{dst} exhausted its retry budget of "
                    f"{plan.retry_budget} at cycle {self.sim.now} "
                    f"({self.stats.link_retries} total retries this run)")
            detect = (plan.drop_detection_cycles
                      if outcome == OUTCOME_DROP else 0.0)
            backoff = self._injector.backoff_cycles(attempt)
            self.stats.backoff_cycles += detect + backoff
            yield self.sim.timeout(detect + backoff)
