"""Oracles for the composition scheduler (Table I and its re-check).

``SetScheduler`` is the Table I of :mod:`repro.core.composition_scheduler`
as it was before SentGPUs/ReceivedGPUs became bit vectors: rows hold
Python sets, ``find_sender_for`` scans the receiver's partners in sorted
order and ``gpu_done`` is a set-superset test. Its ``pair_empty_prefix``
is the per-pair loop the production method replaced: ``begin`` and
``complete`` for each lowest eligible sender with no pixels. It keeps
only the table: no simulator, no waiters, no sanitizer records. Tests
drive it and the production scheduler with the same calls and require
the same answers.

``FullScanScheduler`` is the production scheduler with a re-check that
checks every waiter, skipping none; ``PollingScheduler`` also wakes every
waiter that has any eligible sender, empty or not, as the re-check did
when each receiver's process paired its empty senders one by one
(:func:`per_pair_receiver`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set

from repro.core import ImageCompositionScheduler
from repro.errors import SchedulingError


@dataclass
class SetRow:
    """One GPU's row, with Python sets for the two GPU vectors."""

    cgid: int = 0
    ready: bool = False
    receiving: bool = False
    sending: bool = False
    sent_gpus: Set[int] = field(default_factory=set)
    received_gpus: Set[int] = field(default_factory=set)

    def reset(self) -> None:
        self.ready = False
        self.receiving = False
        self.sending = False
        self.sent_gpus.clear()
        self.received_gpus.clear()


class SetScheduler:
    """Table I driven by sorted partner scans over sets."""

    def __init__(self, num_gpus: int, window: Optional[int] = None) -> None:
        self.num_gpus = num_gpus
        self.table = [SetRow() for _ in range(num_gpus)]
        self.window = window
        self._open: List[int] = []
        self._group_allowed: Dict[int, Optional[List[Set[int]]]] = {}
        self._excluded: Set[int] = set()

    def open_group(self, cgid: int,
                   allowed_partners: Optional[List[Set[int]]] = None) -> None:
        if cgid in self._open:
            raise SchedulingError(f"group {cgid} is already in flight")
        if self.window is not None and len(self._open) >= self.window:
            raise SchedulingError(f"window full, cannot open {cgid}")
        if allowed_partners is not None:
            if len(allowed_partners) != self.num_gpus:
                raise SchedulingError("allowed_partners must cover every GPU")
        self._open.append(cgid)
        self._group_allowed[cgid] = allowed_partners

    def retire_group(self, cgid: int) -> None:
        if cgid not in self._open:
            raise SchedulingError(f"group {cgid} is not in flight")
        self._open.remove(cgid)
        del self._group_allowed[cgid]

    def advance(self, gpu: int, cgid: int) -> None:
        if cgid not in self._open:
            raise SchedulingError(f"group {cgid} is not in flight")
        row = self.table[gpu]
        row.reset()
        row.cgid = cgid

    def start_group(self, cgid: int,
                    allowed_partners: Optional[List[Set[int]]] = None) -> None:
        self._open.clear()
        self._group_allowed.clear()
        self.open_group(cgid, allowed_partners)
        for row in self.table:
            row.reset()
            row.cgid = cgid

    def mark_ready(self, gpu: int) -> None:
        row = self.table[gpu]
        if row.ready:
            raise SchedulingError(f"GPU{gpu} marked ready twice")
        row.ready = True

    def partners_of(self, gpu: int) -> Set[int]:
        if gpu in self._excluded:
            return set()
        allowed = self._group_allowed.get(self.table[gpu].cgid)
        if allowed is not None:
            base = allowed[gpu]
        else:
            base = {g for g in range(self.num_gpus) if g != gpu}
        if self._excluded:
            return base - self._excluded
        return base

    def find_sender_for(self, receiver: int) -> Optional[int]:
        row = self.table[receiver]
        if not row.ready or row.receiving:
            return None
        for sender in sorted(self.partners_of(receiver)):
            remote = self.table[sender]
            if (remote.ready and remote.cgid == row.cgid
                    and sender not in row.received_gpus
                    and not remote.sending):
                return sender
        return None

    def begin(self, sender: int, receiver: int) -> None:
        s, r = self.table[sender], self.table[receiver]
        if s.sending or r.receiving:
            raise SchedulingError("pair members already busy")
        if sender in r.received_gpus:
            raise SchedulingError("pair already composed")
        s.sending = True
        r.receiving = True

    def complete(self, sender: int, receiver: int) -> None:
        s, r = self.table[sender], self.table[receiver]
        if not s.sending or not r.receiving:
            raise SchedulingError("completing a pair that never began")
        s.sending = False
        r.receiving = False
        s.sent_gpus.add(receiver)
        r.received_gpus.add(sender)

    def exclude_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise SchedulingError(f"cannot exclude unknown GPU{gpu}")
        self._excluded.add(gpu)

    def extend_partners(self, gpu: int, partners: Set[int]) -> None:
        allowed = self._group_allowed.get(self.table[gpu].cgid)
        if allowed is None:
            return
        allowed[gpu] = set(partners)

    def gpu_done(self, gpu: int) -> bool:
        row = self.table[gpu]
        partners = self.partners_of(gpu)
        return (row.sent_gpus >= partners and row.received_gpus >= partners)

    def pair_empty_prefix(self, receiver: int, empty: int) -> Optional[int]:
        while True:
            sender = self.find_sender_for(receiver)
            if sender is None or not empty >> sender & 1:
                return sender
            self.begin(sender, receiver)
            self.complete(sender, receiver)


class FullScanScheduler(ImageCompositionScheduler):
    """The re-check without skipping: every waiter is checked."""

    def _recheck(self, waiters) -> None:
        for entry in waiters:
            gpu, event, empty = entry
            if (self.pair_empty_prefix(gpu, empty) is not None
                    or self.gpu_done(gpu)):
                event.succeed_now()
            else:
                self._waiters.append(entry)
        self._segments.popleft()


class PollingScheduler(ImageCompositionScheduler):
    """The full-scan re-check that wakes a waiter for any eligible
    sender, leaving its empty pairs to its own process."""

    def _recheck(self, waiters) -> None:
        for entry in waiters:
            gpu, event, _ = entry
            if self.gpu_done(gpu) or self.find_sender_for(gpu) is not None:
                event.succeed_now()
            else:
                self._waiters.append(entry)
        self._segments.popleft()


def per_pair_receiver(sched: ImageCompositionScheduler, gpu: int,
                      empty: int, pull) -> Generator:
    """A receiver's pairing loop as it was before empty pairs settled in
    one step: ``begin``/``complete`` per pair, a ``pull(sender)`` event
    waited on between them only for a sender with pixels."""
    while not sched.gpu_done(gpu):
        sender = sched.find_sender_for(gpu)
        if sender is None:
            yield sched.wait_pair(gpu)
            continue
        sched.begin(sender, gpu)
        if not empty >> sender & 1:
            yield pull(sender)
        sched.complete(sender, gpu)
