"""Composition transports: how CHOPIN's sub-images travel between GPUs.

Every CHOPIN variant runs :meth:`repro.sfr.chopin.Chopin._timing_pass`;
its ``transport`` class attribute picks one of three transports:
:class:`GatedDirectSend` (``chopin``, ``chopin-rr``),
:class:`ReadyIdlePairing` (``chopin+sched`` and its ideal, sampled and
oracle variants) or :class:`TileStreaming` (``dfb``). A transport owns
only what differs between them: opening an opaque group before the DES
starts, one GPU's opaque composition, and the message sizes of a
transparent reduction-tree edge. Each group reaches it as a view with any
fail-stop repair already resolved.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..composition.dfb import plan_group_tiles, tree_edge_tile_sizes
from ..core.composition_scheduler import ImageCompositionScheduler
from ..sim import Countdown, Event, Simulator
from ..stats import RunStats, STAGE_COMPOSITION, TRAFFIC_COMPOSITION
from ..timing.costs import CostModel
from ..timing.interconnect import Interconnect, PortsReleased

#: one opaque group's messages: [src] -> [(dst, pixels)]
MessagePlan = List[List[Tuple[int, int]]]


class Transport:
    """One timing pass's composition transport (see the module docstring)."""

    def __init__(self, sim: Simulator, interconnect: Interconnect,
                 stats: RunStats, costs: CostModel,
                 tile_pixels: np.ndarray) -> None:
        self.sim = sim
        self.interconnect = interconnect
        self.stats = stats
        self.costs = costs
        self.tile_pixels = tile_pixels
        config = interconnect.config
        self.num_gpus = config.num_gpus
        self.samples = config.msaa_samples
        self.pixel_bytes = config.pixel_bytes
        #: gi -> the transport's per-group state, filled by open_group
        self.groups: Dict[int, tuple] = {}

    def open_group(self, gi: int, cgid: int, view) -> None:
        """Set up opaque group ``gi`` (CGID ``cgid``) over ``view.alive``."""
        raise NotImplementedError

    def compose(self, gpu: int, gi: int) -> Generator:
        """Process fragment: ``gpu``'s share of opaque group ``gi``."""
        raise NotImplementedError

    def edge_messages(self, view) -> List[List[List[int]]]:
        """Message pixel sizes of every tree edge, parallel to
        ``view.tree_levels``: one whole message per edge."""
        return [[[pixels] for _, _, pixels in level]
                for level in view.tree_levels]

    def deliver(self, src: int, dst: int, pixels: int,
                gate: Optional[Event] = None,
                latch: Optional[Countdown] = None) -> Event:
        """Send ``pixels`` and compose them at ``dst``; the returned event
        fires once they are composed (after arriving at ``latch``)."""
        compose_cycles = self.costs.compose_cycles(pixels)

        def composed() -> None:
            self.stats.add_cycles(dst, STAGE_COMPOSITION, compose_cycles)
            if latch is not None:
                latch.arrive()

        return self.interconnect.transfer(
            src, dst, pixels * self.pixel_bytes, TRAFFIC_COMPOSITION,
            gate=gate, receive_cycles=compose_cycles, on_delivered=composed)


class _PushTransport(Transport):
    """Sender-driven composition: every GPU pushes its whole message plan
    as soon as it finishes rendering, then waits for all of its own
    incoming messages. Subclasses choose the plan and the receiver gate."""

    def message_plan(self, view) -> MessagePlan:
        raise NotImplementedError

    def receiver_gates(self) -> Sequence[Optional[Event]]:
        """Per-receiver gate a message waits on in the network."""
        return [None] * self.num_gpus

    def open_group(self, gi: int, cgid: int, view) -> None:
        plan = self.message_plan(view)
        arrivals = [0] * self.num_gpus
        for messages in plan:
            for dst, _ in messages:
                arrivals[dst] += 1
        # (message plan, per-receiver arrival latches, receiver gates)
        self.groups[gi] = (plan, [Countdown(self.sim, count)
                                  for count in arrivals],
                           self.receiver_gates())

    def compose(self, gpu: int, gi: int) -> Generator:
        plan, latches, gates = self.groups[gi]
        if gates[gpu] is not None:
            gates[gpu].succeed()  # messages parked for this GPU may land
        samples = self.samples
        sends = [self.deliver(gpu, dst, pixels * samples, gates[dst],
                              latches[dst])
                 for dst, pixels in plan[gpu]]
        if sends:
            yield self.sim.all_of(sends)
        yield latches[gpu].event


class GatedDirectSend(_PushTransport):
    """Naive direct-send: one message per nonzero region-matrix entry, in
    ring order from the sender. A message to a receiver still rendering
    parks in the network with the sender's egress pinned — the fabric
    congestion of §IV-E."""

    def message_plan(self, view) -> MessagePlan:
        n = self.num_gpus
        rows = view.region_pixels.tolist()
        return [[(dst, rows[src][dst])
                 for dst in ((src + offset) % n for offset in range(1, n))
                 if rows[src][dst]]
                for src in range(n)]

    def receiver_gates(self) -> Sequence[Optional[Event]]:
        return [Event(self.sim) for _ in range(self.num_gpus)]


class TileStreaming(_PushTransport):
    """DFB: one ungated message per touched foreign tile, in raster order.

    The owner folds tiles in arrival order (the any-order argmin reduction
    of :mod:`repro.composition.dfb`, bit-identical by construction);
    messages serialize on the sender's egress port, each paying its own
    head latency. Transparent tree edges stream one tile at a time too.
    """

    def message_plan(self, view) -> MessagePlan:
        sends, _ = plan_group_tiles(view.touched_tiles, self.tile_pixels,
                                    view.tile_owner)
        return [[(message.dst, message.pixels) for message in messages]
                for messages in sends]

    def edge_messages(self, view) -> List[List[List[int]]]:
        return tree_edge_tile_sizes(view.tree_levels, view.leaf_bitmaps,
                                    self.tile_pixels)


class ReadyIdlePairing(Transport):
    """The §IV-E image composition scheduler: only ready, idle GPU pairs
    exchange, each receiver pulling from one sender at a time.

    One scheduler table spans the whole frame: every opaque group is
    admitted into its in-flight window up front (admission = CGID order),
    each GPU's row advances through the groups as its own composition
    chain progresses, and a group retires once every live participant
    finished composing it.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sched = ImageCompositionScheduler(self.num_gpus, self.sim)
        #: CGID -> live participants still composing it
        self.remaining: Dict[int, int] = {}

    def open_group(self, gi: int, cgid: int, view) -> None:
        alive = set(view.alive)
        self.sched.open_group(cgid, allowed_partners=[
            alive - {g} if g in alive else set()
            for g in range(self.num_gpus)])
        self.stats.scheduler_groups_peak = self.sched.groups_peak
        # per receiver, the senders with no pixels for it (bit s = GPU s)
        empty = np.packbits(view.region_pixels.T == 0, axis=1,
                            bitorder="little")
        self.groups[gi] = (cgid, view.region_pixels,
                           [int.from_bytes(row.tobytes(), "little")
                            for row in empty])
        self.remaining[cgid] = len(alive)

    def compose(self, gpu: int, gi: int) -> Generator:
        sched, sim = self.sched, self.sim
        cgid, matrix, empty_masks = self.groups[gi]
        empty = empty_masks[gpu]
        sched.advance(gpu, cgid)
        sched.mark_ready(gpu)
        in_flight = []
        while True:
            # pairs with nothing to send settle in the table; the re-check
            # settles them too, and wakes this GPU only to pull or finish
            sender = sched.pair_empty_prefix(gpu, empty)
            if sender is None:
                if sched.gpu_done(gpu):
                    break
                yield sched.wait_pair(gpu, empty)
                continue
            sched.begin(sender, gpu)
            # Pull the sub-image; free the pair for new matches as soon as
            # the ports drain (the message tail — latency + ROP composition
            # — pipelines with the next pull).
            pixels = int(matrix[sender, gpu]) * self.samples
            released = PortsReleased(sim)
            compose_cycles = self.costs.compose_cycles(pixels)
            transfer = self.interconnect.transfer(
                sender, gpu, pixels * self.pixel_bytes,
                TRAFFIC_COMPOSITION, receive_cycles=compose_cycles,
                ports_released=released)
            released.transfer = transfer
            in_flight.append(transfer)
            self.stats.add_cycles(gpu, STAGE_COMPOSITION, compose_cycles)
            yield released
            sched.complete(sender, gpu)
        if in_flight:
            yield sim.all_of(in_flight)
        self.remaining[cgid] -= 1
        if self.remaining[cgid] == 0:
            sched.retire_group(cgid)
