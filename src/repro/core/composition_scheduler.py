"""The image composition scheduler (paper §IV-E, Fig 11/12, Table I).

Tracks per-GPU composition status in a table with exactly the paper's
fields:

=============  ====================================================
Field          Meaning
=============  ====================================================
CGID           Composition Group ID
Ready          Ready to compose with others?
Receiving      Receiving pixels from another GPU?
Sending        Sending pixels to another GPU?
SentGPUs       GPUs the sub-image has been sent to (bit vector)
ReceivedGPUs   GPUs we have composed with (bit vector)
=============  ====================================================

A pair (sender -> receiver) may start only when (Fig 12): both are Ready in
the same CGID, the receiver has not yet composed with that sender, the
sender is not Sending, and the receiver is not Receiving. For transparent
groups only *adjacent* partners (in the current reduction tree) are
eligible, since transparent sub-images cannot be composed fully
out-of-order (§II-D).

As in the paper, SentGPUs and ReceivedGPUs are bit vectors (``int``
masks, bit ``g`` = GPU ``g``). The scheduler keeps more masks as
indexes over the table: each open group's partner masks, the excluded
GPUs, the Sending GPUs, per CGID the Ready rows on it, and each row's
partner mask in its current group (cached, and recomputed by every call
that can change it). The eligible senders of a receiver are then one
AND::

    partners & ready[cgid] & ~sending & ~received

and :meth:`~ImageCompositionScheduler.find_sender_for` returns its lowest
set bit, the GPU a sorted scan of the partners would reach first.
:meth:`~ImageCompositionScheduler.gpu_done` is a subset test of the
partner mask against SentGPUs AND ReceivedGPUs.

The table supports a *window* of in-flight composition groups: each row
carries its own CGID, so different GPUs may be composing different groups
concurrently (cross-group pipelining). Groups are admitted with
``open_group`` (optionally bounded by ``window``), rows move forward with
``advance`` — which fully resets the row, so no Sent/Received state can
leak from one group into the next — and ``retire_group`` frees the slot
once every participant finished. Pairing is safe across the window because
a GPU only advances past a group after exchanging with *all* of its
partners there: no remaining participant can still need it as a sender.
``start_group`` keeps the legacy single-active-group behaviour (reset every
row onto one CGID).

The scheduler is a passive table; the DES layer drives it through
``mark_ready`` / ``begin`` / ``complete`` and waits on ``wait_pair(gpu)``.
A pair whose sender has no pixels for the receiver moves nothing, so
:meth:`~ImageCompositionScheduler.pair_empty_prefix` settles, in one
mask update, every eligible empty sender below the receiver's lowest
eligible non-empty one: the begin/complete calls a per-pair loop would
make back to back, with nothing else running between them. The GPU's
own process then starts a pull only for a sender with pixels.

Each table change that can unblock a waiter schedules *one* zero-delay
re-check of everyone then waiting. Two masks, accumulated from a
waiter's last check until its re-check runs, say what changed: rows
whose own state changed (their Ready/Receiving flags, Sent/Received
vectors or partner mask, which decide :meth:`gpu_done`) and GPUs that
became ready or free as senders. A waiter is re-checked only if its row
changed or a new sender is one it still needs (in its cached partner
mask, not yet received); any other waiter stays blocked, since nothing
its wait depends on moved. The re-check visits waiters in the order
they started waiting and settles a checked waiter's empty pairs itself;
it wakes, in place, only the waiters that can now pull from a sender
with pixels or are done, so a woken process resumes only to start that
pull or to finish. Everyone else stays waiting, in the list position a
woken waiter would have taken by waiting again. That is the order and
outcome of waking every waiter with its own event: those events would
sit next to each other in the queue, and a waiter that can only settle
empty pairs and wait again makes the same table changes in the same
order either way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Deque, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

from ..analysis.sanitizer import ACCESS_ARBITRATED
from ..errors import SchedulingError
from ..sim import Event, Simulator


def _members(mask: int) -> List[int]:
    """The GPUs of a bit vector, ascending."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


@dataclass
class CompositionStatus:
    """One GPU's row in the scheduler table (paper Table I)."""

    cgid: int = 0
    ready: bool = False
    receiving: bool = False
    sending: bool = False
    #: SentGPUs / ReceivedGPUs bit vectors (bit g = GPU g)
    sent_mask: int = 0
    received_mask: int = 0

    @property
    def sent_gpus(self) -> FrozenSet[int]:
        return frozenset(_members(self.sent_mask))

    @property
    def received_gpus(self) -> FrozenSet[int]:
        return frozenset(_members(self.received_mask))

    def reset(self) -> None:
        self.ready = False
        self.receiving = False
        self.sending = False
        self.sent_mask = 0
        self.received_mask = 0

    def size_bits(self, num_gpus: int, cgid_bits: int = 8) -> int:
        """Hardware cost of this row (§VI-F)."""
        return cgid_bits + 3 + 2 * num_gpus


class ImageCompositionScheduler:
    """Centralized pairing of GPUs for sub-image exchange."""

    def __init__(self, num_gpus: int,
                 sim: Optional[Simulator] = None,
                 window: Optional[int] = None) -> None:
        if num_gpus <= 0:
            raise SchedulingError("need at least one GPU")
        if window is not None and window < 1:
            raise SchedulingError("scheduler window must be >= 1 (or None "
                                  "for an unbounded in-flight group window)")
        self.num_gpus = num_gpus
        self.sim = sim
        self.table = [CompositionStatus() for _ in range(num_gpus)]
        #: bound on concurrently open CGIDs (None = unbounded)
        self.window = window
        #: in-flight CGIDs, in admission order
        self._open: List[int] = []
        #: all-to-all partner masks: everyone but the GPU itself
        everyone = (1 << num_gpus) - 1
        self._all_to_all = [everyone ^ (1 << g) for g in range(num_gpus)]
        #: per-CGID partner masks (None entry = all-to-all)
        self._partners: Dict[int, Optional[List[int]]] = {}
        #: fail-stopped GPUs, removed from every group's partner sets
        self._excluded = 0
        #: rows with Sending set
        self._sending = 0
        #: CGID -> rows on that CGID with Ready set (no entry = none)
        self._ready: Dict[int, int] = {}
        #: high-water mark of concurrently open groups (for RunStats)
        self.groups_peak = 0
        #: each row's partner mask in its current group (see _partner_mask)
        self._row_partners = list(self._all_to_all)
        #: (gpu, event, empty senders) of every wait_pair still pending,
        #: in wait order
        self._waiters: List[Tuple[int, Event, int]] = []
        #: rows changed and new senders since the ``_waiters`` were checked
        self._rows_changed = 0
        self._new_senders = 0
        #: per re-check scheduled and not yet finished, oldest first: the
        #: two masks from its waiters' last checks until the next one was
        #: scheduled (the last: until now)
        self._segments: Deque[List[int]] = deque()
        #: the segments ORed: what the oldest re-check's waiters have not
        #: seen
        self._recheck_rows = 0
        self._recheck_senders = 0

    def _record_table_access(self) -> None:
        """Report a scheduler-table mutation to the race sanitizer.

        Recorded as arbitrated: the table is a centralized arbiter whose
        pairing decisions are deterministic (lowest eligible sender, FIFO
        re-check), so same-cycle updates from several GPUs are the
        intended operating mode, not a race.
        """
        sim = self.sim
        if sim is not None and sim.sanitizer is not None:
            sim.record_access("scheduler:table", ACCESS_ARBITRATED)

    def _mask_of(self, gpus: Iterable[int]) -> int:
        mask = 0
        for gpu in gpus:
            if not 0 <= gpu < self.num_gpus:
                raise SchedulingError(f"unknown partner GPU{gpu}")
            mask |= 1 << gpu
        return mask

    def _changed(self, rows: int, senders: int = 0) -> None:
        """Note a table change for every waiter that has not seen it."""
        self._rows_changed |= rows
        self._new_senders |= senders
        if self._segments:
            tail = self._segments[-1]
            tail[0] |= rows
            tail[1] |= senders
            self._recheck_rows |= rows
            self._recheck_senders |= senders

    def _refresh_partners(self, rows: int) -> None:
        """Recompute the cached partner masks of ``rows``; their waiters
        are re-checked at the next re-check."""
        cache = self._row_partners
        for gpu in _members(rows):
            cache[gpu] = self._partner_mask(gpu)
        self._changed(rows)

    def _rows_on(self, cgid: int) -> int:
        mask = 0
        for gpu, row in enumerate(self.table):
            if row.cgid == cgid:
                mask |= 1 << gpu
        return mask

    # -- group window --------------------------------------------------------

    def open_group(self, cgid: int,
                   allowed_partners: Optional[List[Set[int]]] = None) -> None:
        """Admit a composition group into the in-flight window.

        Each open group carries its own partner restriction, so a fail-stop
        repair can narrow one in-flight group to its survivor set without
        touching the groups pipelined behind it.
        """
        if cgid in self._open:
            raise SchedulingError(f"group {cgid} is already in flight")
        if self.window is not None and len(self._open) >= self.window:
            raise SchedulingError(
                f"cannot open group {cgid}: window of {self.window} "
                f"in-flight groups is full ({self._open})")
        masks = None
        if allowed_partners is not None:
            if len(allowed_partners) != self.num_gpus:
                raise SchedulingError("allowed_partners must cover every GPU")
            masks = [self._mask_of(partners) for partners in allowed_partners]
        self._open.append(cgid)
        self._partners[cgid] = masks
        if len(self._open) > self.groups_peak:
            self.groups_peak = len(self._open)
        self._refresh_partners(self._rows_on(cgid))

    def retire_group(self, cgid: int) -> None:
        """Close a finished group, freeing its window slot.

        Rows still on ``cgid`` keep their state (the ready index included);
        they fall back to all-to-all partners until they advance.
        """
        if cgid not in self._open:
            raise SchedulingError(f"group {cgid} is not in flight")
        self._open.remove(cgid)
        del self._partners[cgid]
        self._refresh_partners(self._rows_on(cgid))

    def advance(self, gpu: int, cgid: int) -> None:
        """Move one GPU's row to an open group, *fully* resetting it.

        The full reset is load-bearing: a row that kept its previous
        Sent/Received vectors across the CGID change would satisfy
        ``gpu_done`` for the new group without exchanging a single
        sub-image (the cross-group state leak this table historically
        avoided by being rebuilt per group).
        """
        if cgid not in self._open:
            raise SchedulingError(
                f"GPU{gpu} cannot advance to group {cgid}: not in flight")
        self._record_table_access()
        row = self.table[gpu]
        bit = 1 << gpu
        # take the row out of the ready and sending indexes it leaves
        if row.ready:
            ready = self._ready[row.cgid] & ~bit
            if ready:
                self._ready[row.cgid] = ready
            else:
                del self._ready[row.cgid]
        self._sending &= ~bit
        row.reset()
        row.cgid = cgid
        self._row_partners[gpu] = self._partner_mask(gpu)
        self._changed(bit)

    def in_flight(self) -> Tuple[int, ...]:
        """Currently open CGIDs, in admission order."""
        return tuple(self._open)

    # -- table driving -------------------------------------------------------

    def start_group(self, cgid: int,
                    allowed_partners: Optional[List[Set[int]]] = None) -> None:
        """Begin a new *sole* composition phase (legacy single-group mode):
        drops any in-flight groups and resets every row onto ``cgid``."""
        self._open.clear()
        self._partners.clear()
        self.open_group(cgid, allowed_partners)
        for row in self.table:
            row.reset()
            row.cgid = cgid
        self._sending = 0
        self._ready.clear()
        self._refresh_partners((1 << self.num_gpus) - 1)

    def mark_ready(self, gpu: int) -> None:
        """GPU finished its draws and generated its sub-image (Fig 12 step 1)."""
        row = self.table[gpu]
        if row.ready:
            raise SchedulingError(f"GPU{gpu} marked ready twice")
        self._record_table_access()
        row.ready = True
        bit = 1 << gpu
        self._ready[row.cgid] = self._ready.get(row.cgid, 0) | bit
        self._changed(bit, bit)
        self._notify()

    def _partner_mask(self, gpu: int) -> int:
        """Partner mask of this GPU *in its row's current group*; cached
        per row in ``_row_partners`` by every call that can change it."""
        if self._excluded >> gpu & 1:
            return 0
        masks = self._partners.get(self.table[gpu].cgid)
        base = self._all_to_all[gpu] if masks is None else masks[gpu]
        return base & ~self._excluded

    def partners_of(self, gpu: int) -> Set[int]:
        """Partner set of this GPU *in its row's current group*."""
        return set(_members(self._row_partners[gpu]))

    def _eligible(self, receiver: int) -> int:
        """Senders this receiver may compose with now (Fig 12 conditions)."""
        row = self.table[receiver]
        if not row.ready or row.receiving:
            return 0
        return (self._row_partners[receiver]
                & self._ready.get(row.cgid, 0)
                & ~self._sending & ~row.received_mask)

    def find_sender_for(self, receiver: int) -> Optional[int]:
        """A sender this receiver may compose with now (Fig 12 conditions):
        the lowest-numbered eligible partner."""
        eligible = self._eligible(receiver)
        if not eligible:
            return None
        return (eligible & -eligible).bit_length() - 1

    def pair_empty_prefix(self, receiver: int, empty: int) -> Optional[int]:
        """Compose ``receiver`` with its eligible senders that have no
        pixels for it (bits of ``empty``), up to the first that has some.

        Ascending from the lowest eligible sender, every sender in
        ``empty`` is paired and completed at once, as :meth:`begin` and
        :meth:`complete` back to back would; it stops below the lowest
        eligible sender outside ``empty``, which it returns (``None`` if
        there is none). One re-check is scheduled, as the first of those
        completions would schedule it.
        """
        eligible = self._eligible(receiver)
        full = eligible & ~empty
        prefix = eligible & empty
        if full:
            low = full & -full
            prefix &= low - 1
            sender = low.bit_length() - 1
        else:
            sender = None
        if prefix:
            sim = self.sim
            if sim is not None and sim.sanitizer is not None:
                for _ in range(2 * bin(prefix).count("1")):
                    sim.record_access("scheduler:table", ACCESS_ARBITRATED)
            table = self.table
            table[receiver].received_mask |= prefix
            bit = 1 << receiver
            self._changed(prefix | bit)
            while prefix:
                low = prefix & -prefix
                table[low.bit_length() - 1].sent_mask |= bit
                prefix ^= low
            self._notify()
        return sender

    def begin(self, sender: int, receiver: int) -> None:
        """Claim the pair: set Sending/Receiving (Fig 12 step 4)."""
        s, r = self.table[sender], self.table[receiver]
        if s.sending or r.receiving:
            raise SchedulingError("pair members already busy")
        if r.received_mask >> sender & 1:
            raise SchedulingError("pair already composed")
        self._record_table_access()
        s.sending = True
        r.receiving = True
        self._sending |= 1 << sender

    def complete(self, sender: int, receiver: int) -> None:
        """Transfer done: clear flags, record Sent/Received (Fig 12 step 5)."""
        s, r = self.table[sender], self.table[receiver]
        if not s.sending or not r.receiving:
            raise SchedulingError("completing a pair that never began")
        self._record_table_access()
        s.sending = False
        r.receiving = False
        bit = 1 << sender
        self._sending &= ~bit
        s.sent_mask |= 1 << receiver
        r.received_mask |= bit
        self._changed(bit | 1 << receiver, bit)
        self._notify()

    def exclude_gpu(self, gpu: int) -> None:
        """Drop a fail-stopped GPU from every partner set (degraded mode).

        The exclusion spans *every* in-flight group — a dead GPU is dead for
        the whole window. Its row keeps whatever state it had, but no
        survivor will be paired with it any more and its own partner set
        empties, so :meth:`gpu_done` holds for it trivially. Every
        partner mask may shrink, so every waiter is re-checked.
        """
        if not 0 <= gpu < self.num_gpus:
            raise SchedulingError(f"cannot exclude unknown GPU{gpu}")
        self._record_table_access()
        self._excluded |= 1 << gpu
        self._refresh_partners((1 << self.num_gpus) - 1)
        self._notify()

    def extend_partners(self, gpu: int, partners: Set[int]) -> None:
        """Widen a GPU's allowed partner set in its row's current group
        (tree reductions grow reach)."""
        masks = self._partners.get(self.table[gpu].cgid)
        if masks is None:
            return
        masks[gpu] = self._mask_of(partners)
        self._refresh_partners(1 << gpu)
        self._notify()

    # -- completion tests ----------------------------------------------------

    def gpu_done(self, gpu: int) -> bool:
        """All sends and receives for this GPU's partner set finished."""
        row = self.table[gpu]
        return not (self._row_partners[gpu]
                    & ~(row.sent_mask & row.received_mask))

    def all_done(self) -> bool:
        return all(self.gpu_done(g) for g in range(self.num_gpus))

    # -- DES integration -----------------------------------------------------

    def wait_pair(self, gpu: int, empty: int = 0) -> Event:
        """Event fired once ``gpu`` can make progress after a table change:
        it is done, or, once the re-check has paired it with its eligible
        senders in ``empty`` (:meth:`pair_empty_prefix`), it has an
        eligible sender with pixels."""
        if self.sim is None:
            raise SchedulingError("scheduler built without a simulator")
        if not self._waiters:
            self._rows_changed = self._new_senders = 0
        event = Event(self.sim)
        self._waiters.append((gpu, event, empty))
        return event

    def _notify(self) -> None:
        """Schedule one re-check of everyone waiting at this change."""
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        self._segments.append([self._rows_changed, self._new_senders])
        self._recheck_rows |= self._rows_changed
        self._recheck_senders |= self._new_senders
        self._rows_changed = self._new_senders = 0
        recheck = Event(self.sim)
        recheck.callbacks.append(lambda _: self._recheck(waiters))
        recheck.succeed()

    def _recheck(self, waiters: List[Tuple[int, Event, int]]) -> None:
        """Wake the waiters that can progress; keep the rest waiting.

        It runs as the oldest pending re-check, so the ORed segments
        hold every change since its waiters' last checks. A woken
        waiter's process runs at once and may change the table; that
        lands in the masks too, for the waiters after it, and entries
        kept after it go to the ``_waiters`` list then current.
        """
        table, partners, ready = self.table, self._row_partners, self._ready
        for entry in waiters:
            gpu = entry[0]
            row = table[gpu]
            # Unless its row changed, a waiter can progress only through
            # a new sender it may pull from now.
            if ((self._recheck_rows >> gpu & 1
                 or self._recheck_senders & partners[gpu]
                 & ~row.received_mask & ready.get(row.cgid, 0)
                 & ~self._sending)
                    and (self.pair_empty_prefix(gpu, entry[2]) is not None
                         or self.gpu_done(gpu))):
                entry[1].succeed_now()
            else:
                self._waiters.append(entry)
        segments = self._segments
        segments.popleft()
        rows = senders = 0
        for segment in segments:
            rows |= segment[0]
            senders |= segment[1]
        self._recheck_rows, self._recheck_senders = rows, senders

    # -- hardware accounting ---------------------------------------------------

    def table_size_bytes(self, cgid_bits: int = 8) -> int:
        """Total scheduler storage (§VI-F: 27 bytes for 8 GPUs)."""
        bits = sum(row.size_bits(self.num_gpus, cgid_bits)
                   for row in self.table)
        return (bits + 7) // 8


def adjacency_pairs(num_gpus: int) -> List[Tuple[int, int]]:
    """The adjacent-pair reduction tree for transparent groups.

    Returns (sender, receiver) pairs level by level: at each level, odd-rank
    survivors send to their even-rank left neighbours; receivers survive to
    the next level. Senders and receivers are *adjacent* in submission order
    at every level, which is what associativity permits.
    """
    pairs: List[Tuple[int, int]] = []
    survivors = list(range(num_gpus))
    while len(survivors) > 1:
        next_level = []
        for i in range(0, len(survivors) - 1, 2):
            receiver, sender = survivors[i], survivors[i + 1]
            pairs.append((sender, receiver))
            next_level.append(receiver)
        if len(survivors) % 2 == 1:
            next_level.append(survivors[-1])
        survivors = next_level
    return pairs
