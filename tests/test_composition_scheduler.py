"""The image composition scheduler (§IV-E, Table I, Fig 11/12)."""

import pytest

from repro.core import (CompositionStatus, ImageCompositionScheduler,
                        adjacency_pairs)
from repro.errors import SchedulingError
from repro.sim import Simulator


@pytest.fixture()
def sched():
    scheduler = ImageCompositionScheduler(4, Simulator())
    scheduler.start_group(cgid=1)
    return scheduler


class TestTableFields:
    def test_row_defaults(self):
        row = CompositionStatus()
        assert not row.ready and not row.sending and not row.receiving
        assert row.sent_gpus == set() and row.received_gpus == set()

    def test_row_size_bits_matches_paper(self):
        # 8-bit CGID + 3 flags + two 8-bit vectors = 27 bits per entry
        assert CompositionStatus().size_bits(num_gpus=8) == 27

    def test_table_size_bytes_matches_paper(self):
        scheduler = ImageCompositionScheduler(8)
        assert scheduler.table_size_bytes() == 27


class TestPairing:
    def test_not_ready_finds_nothing(self, sched):
        assert sched.find_sender_for(0) is None

    def test_two_ready_gpus_pair(self, sched):
        sched.mark_ready(0)
        sched.mark_ready(1)
        assert sched.find_sender_for(0) == 1
        assert sched.find_sender_for(1) == 0

    def test_begin_sets_flags(self, sched):
        sched.mark_ready(0)
        sched.mark_ready(1)
        sched.begin(1, 0)
        assert sched.table[1].sending
        assert sched.table[0].receiving

    def test_busy_sender_not_offered(self, sched):
        for gpu in range(3):
            sched.mark_ready(gpu)
        sched.begin(1, 0)
        # GPU2 cannot pull from GPU1 (sending) but can pull from GPU0
        assert sched.find_sender_for(2) == 0

    def test_busy_receiver_finds_nothing(self, sched):
        for gpu in range(3):
            sched.mark_ready(gpu)
        sched.begin(1, 0)
        assert sched.find_sender_for(0) is None  # receiving already

    def test_completed_pair_not_repeated(self, sched):
        sched.mark_ready(0)
        sched.mark_ready(1)
        sched.begin(1, 0)
        sched.complete(1, 0)
        assert sched.find_sender_for(0) is None
        assert 1 in sched.table[0].received_gpus
        assert 0 in sched.table[1].sent_gpus

    def test_double_begin_rejected(self, sched):
        sched.mark_ready(0)
        sched.mark_ready(1)
        sched.begin(1, 0)
        with pytest.raises(SchedulingError):
            sched.begin(1, 0)

    def test_complete_without_begin_rejected(self, sched):
        sched.mark_ready(0)
        sched.mark_ready(1)
        with pytest.raises(SchedulingError):
            sched.complete(1, 0)

    def test_double_ready_rejected(self, sched):
        sched.mark_ready(0)
        with pytest.raises(SchedulingError):
            sched.mark_ready(0)


class TestCompletion:
    def drain(self, sched, n):
        """Greedily run the protocol to completion."""
        for gpu in range(n):
            sched.mark_ready(gpu)
        progress = True
        while progress:
            progress = False
            for receiver in range(n):
                sender = sched.find_sender_for(receiver)
                if sender is not None:
                    sched.begin(sender, receiver)
                    sched.complete(sender, receiver)
                    progress = True

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_protocol_drains_all_pairs(self, n):
        sched = ImageCompositionScheduler(n, Simulator())
        sched.start_group(0)
        self.drain(sched, n)
        assert sched.all_done()
        for gpu in range(n):
            assert sched.gpu_done(gpu)
            assert len(sched.table[gpu].sent_gpus) == n - 1
            assert len(sched.table[gpu].received_gpus) == n - 1

    def test_restricted_partners(self):
        sched = ImageCompositionScheduler(4, Simulator())
        sched.start_group(0, allowed_partners=[{1}, {0}, {3}, {2}])
        self.drain(sched, 4)
        assert sched.all_done()
        assert sched.table[0].received_gpus == {1}

    def test_partner_list_length_checked(self):
        sched = ImageCompositionScheduler(4, Simulator())
        with pytest.raises(SchedulingError):
            sched.start_group(0, allowed_partners=[{1}])


class TestWaitPair:
    """``wait_pair`` fires in the one re-check a table change schedules,
    so every wake is observed after ``sim.run()``."""

    def test_notify_on_ready(self):
        sim = Simulator()
        sched = ImageCompositionScheduler(2, sim)
        sched.start_group(0)
        sched.mark_ready(0)
        event = sched.wait_pair(0)
        sched.mark_ready(1)
        assert not event.triggered
        sim.run()
        assert event.processed

    def test_notify_on_complete(self):
        sim = Simulator()
        sched = ImageCompositionScheduler(3, sim)
        sched.start_group(0)
        for gpu in range(3):
            sched.mark_ready(gpu)
        sched.begin(1, 0)
        sched.begin(2, 1)
        # GPU1 is receiving from GPU2: nothing to pull until that finishes
        event = sched.wait_pair(1)
        sched.complete(2, 1)
        sim.run()
        assert event.processed
        assert sched.find_sender_for(1) == 0

    def test_no_eligible_sender_stays_pending(self):
        sim = Simulator()
        sched = ImageCompositionScheduler(4, sim)
        # GPU0 may pull only from GPU1; GPU3 pairs with nobody
        sched.start_group(0, allowed_partners=[{1}, {0, 2}, {1}, set()])
        sched.mark_ready(1)
        sched.mark_ready(2)
        sched.begin(1, 2)
        sched.mark_ready(0)
        event = sched.wait_pair(0)
        sched.mark_ready(3)  # a change that frees no sender for GPU0
        sim.run()
        assert not event.triggered
        sched.complete(1, 2)  # GPU1 stops sending
        sim.run()
        assert event.processed
        assert sched.find_sender_for(0) == 1

    def test_first_waiter_claims_first(self):
        sim = Simulator()
        sched = ImageCompositionScheduler(3, sim)
        # GPU0 and GPU2 can only pull from GPU1
        sched.start_group(0, allowed_partners=[{1}, {0, 2}, {1}])
        sched.mark_ready(0)
        sched.mark_ready(2)
        claims = []

        def receiver(gpu):
            while sched.find_sender_for(gpu) is None:
                yield sched.wait_pair(gpu)
            sender = sched.find_sender_for(gpu)
            sched.begin(sender, gpu)
            claims.append((sim.now, gpu, sender))

        def late_sender():
            yield sim.timeout(5)
            sched.mark_ready(1)

        sim.process(receiver(2))
        sim.process(receiver(0))
        sim.process(late_sender())
        sim.run(watchdog=False)
        # GPU2 waited first, so the re-check reaches it first; once it
        # claims GPU1, GPU0 has no sender and keeps waiting
        assert claims == [(5, 2, 1)]
        assert len(sim.stuck_processes()) == 1

    def test_exclusion_wakes_a_finished_gpu(self):
        sim = Simulator()
        sched = ImageCompositionScheduler(2, sim)
        sched.start_group(0)
        sched.mark_ready(0)
        event = sched.wait_pair(0)
        # GPU1 fail-stops before it was ever ready: GPU0's partner set
        # empties, so gpu_done holds and the waiter wakes
        sched.exclude_gpu(1)
        assert sched.gpu_done(0)
        sim.run()
        assert event.processed

    def test_without_sim_rejected(self):
        sched = ImageCompositionScheduler(2)
        with pytest.raises(SchedulingError):
            sched.wait_pair(0)


class TestAdjacencyPairs:
    def test_eight_gpus_tree(self):
        pairs = adjacency_pairs(8)
        assert pairs == [(1, 0), (3, 2), (5, 4), (7, 6),
                         (2, 0), (6, 4), (4, 0)]

    def test_odd_count(self):
        pairs = adjacency_pairs(5)
        # 4 merges reduce 5 layers to 1
        assert len(pairs) == 4
        receivers = [r for _, r in pairs]
        assert receivers[-1] == 0

    def test_single_gpu_no_pairs(self):
        assert adjacency_pairs(1) == []

    def test_senders_merge_exactly_once(self):
        pairs = adjacency_pairs(8)
        senders = [s for s, _ in pairs]
        assert len(senders) == len(set(senders)) == 7
