"""The composition scheduler vs. its oracles, table and re-check.

The production :class:`repro.core.ImageCompositionScheduler` keeps
Table I's GPU vectors as ``int`` masks and answers ``find_sender_for``
with one AND and a lowest-set-bit; the oracle in
``tests/oracles/composition_scheduler.py`` is the sorted partner scan it
replaced. Random call sequences drive both tables, and after every call
(including the ones both reject) they must give the same
``find_sender_for``, ``gpu_done`` and ``partners_of`` for every GPU, and
``pair_empty_prefix`` must match the per-pair loop it replaced. GPU
counts run past 64 so masks cross a machine word.

In the DES, receivers wait on ``wait_pair`` while a driver changes the
table at random. The re-check that skips waiters no change can unblock
must wake the same GPUs in the same order, and keep the same waiters in
the same order, as one that checks every waiter; and with empty pairs
settled in the table, the pulls, finishes and final table must be those
of receivers that pair every sender one by one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ImageCompositionScheduler
from repro.errors import SchedulingError
from repro.sim import Simulator

from .oracles.composition_scheduler import (FullScanScheduler,
                                            PollingScheduler, SetScheduler,
                                            per_pair_receiver)

CALLS = ("open_group", "advance", "mark_ready", "begin", "complete",
         "exclude_gpu", "extend_partners", "retire_group", "start_group",
         "pair_empty_prefix")


def pick(data, ref, gpus, flag, value=True):
    """Half the time a GPU whose row has ``flag == value``, else any GPU."""
    rows = [g for g, row in enumerate(ref.table)
            if getattr(row, flag) == value]
    if rows and data.draw(st.booleans()):
        return data.draw(st.sampled_from(rows))
    return data.draw(gpus)


def draw_call(data, ref, num_gpus):
    """One call and its arguments; calls favour legal, busy targets."""
    gpus = st.integers(0, num_gpus - 1)
    cgids = st.integers(0, 3)
    partner_sets = st.sets(gpus, max_size=min(num_gpus, 8))
    name = data.draw(st.sampled_from(CALLS))
    if name in ("open_group", "start_group"):
        allowed = data.draw(st.one_of(st.none(), st.lists(
            partner_sets, min_size=num_gpus, max_size=num_gpus)))
        return name, (data.draw(cgids), allowed)
    if name == "advance":
        cgid = data.draw(st.sampled_from(ref._open) if ref._open
                         else cgids)
        flag = data.draw(st.sampled_from(("sending", "receiving", "ready")))
        return name, (pick(data, ref, gpus, flag), cgid)
    if name == "mark_ready":
        return name, (pick(data, ref, gpus, "ready", False),)
    if name == "exclude_gpu":
        return name, (data.draw(gpus),)
    if name == "extend_partners":
        return name, (data.draw(gpus), data.draw(partner_sets))
    if name == "retire_group":
        return name, (data.draw(cgids),)
    if name == "pair_empty_prefix":
        return name, (data.draw(gpus),
                      data.draw(st.integers(0, (1 << num_gpus) - 1)))
    if name == "complete":
        return name, (pick(data, ref, gpus, "sending"),
                      pick(data, ref, gpus, "receiving"))
    receiver = data.draw(gpus)
    sender = ref.find_sender_for(receiver)
    if sender is None or data.draw(st.booleans()):
        sender = data.draw(gpus)
    return name, (sender, receiver)


def copy_args(args):
    """Fresh partner sets per table: the oracle keeps references."""
    return tuple([set(s) for s in arg] if isinstance(arg, list)
                 else set(arg) if isinstance(arg, set) else arg
                 for arg in args)


def call(table, name, args):
    try:
        result = getattr(table, name)(*copy_args(args))
    except SchedulingError:
        return "rejected"
    return ("ok", result)


@given(data=st.data(),
       num_gpus=st.one_of(st.integers(1, 8), st.integers(9, 70)),
       window=st.one_of(st.none(), st.integers(1, 3)))
@settings(max_examples=120, deadline=None)
def test_bit_vectors_match_sorted_scan(data, num_gpus, window):
    prod = ImageCompositionScheduler(num_gpus, window=window)
    ref = SetScheduler(num_gpus, window=window)
    cgid = data.draw(st.integers(0, 3))
    prod.start_group(cgid)
    ref.start_group(cgid)
    for _ in range(data.draw(st.integers(1, 60))):
        name, args = draw_call(data, ref, num_gpus)
        assert call(prod, name, args) == call(ref, name, args), (name, args)
        assert prod.in_flight() == tuple(ref._open)
        # the cached partner masks follow every call that moves them
        assert prod._row_partners == [prod._partner_mask(gpu)
                                      for gpu in range(num_gpus)]
        for gpu in range(num_gpus):
            assert prod.find_sender_for(gpu) == ref.find_sender_for(gpu)
            assert prod.gpu_done(gpu) == ref.gpu_done(gpu)
            assert prod.partners_of(gpu) == ref.partners_of(gpu)
            row, ref_row = prod.table[gpu], ref.table[gpu]
            assert (row.cgid, row.ready, row.receiving, row.sending) == (
                ref_row.cgid, ref_row.ready, ref_row.receiving,
                ref_row.sending)
            assert row.sent_gpus == ref_row.sent_gpus
            assert row.received_gpus == ref_row.received_gpus


def test_advance_frees_a_sending_row():
    """A row that advances mid-send is a free sender in its new group."""
    for table in (ImageCompositionScheduler(3), SetScheduler(3)):
        table.start_group(0)
        table.open_group(1)
        table.mark_ready(0)
        table.mark_ready(1)
        table.begin(1, 0)
        table.advance(1, 1)
        table.advance(2, 1)
        table.mark_ready(1)
        table.mark_ready(2)
        assert table.find_sender_for(2) == 1


def test_lowest_eligible_sender_wins_past_64_gpus():
    sched = ImageCompositionScheduler(70)
    sched.start_group(0)
    for gpu in (69, 66, 3, 65):
        sched.mark_ready(gpu)
    sched.begin(3, 69)
    sched.complete(3, 69)
    # GPU3 was already received; 65 is the lowest remaining ready partner
    assert sched.find_sender_for(69) == 65
    sched.begin(65, 66)
    assert sched.find_sender_for(69) == 66


# -- the re-check in the DES ---------------------------------------------------

#: driver calls; ``begin``/``complete`` are left to the receivers
DRIVER_CALLS = ("mark_ready", "mark_ready", "mark_ready", "advance",
                "exclude_gpu", "extend_partners", "retire_group",
                "open_group", "start_group")


def draw_driver_call(data, num_gpus):
    gpus = st.integers(0, num_gpus - 1)
    name = data.draw(st.sampled_from(DRIVER_CALLS))
    if name in ("mark_ready", "exclude_gpu"):
        return name, (data.draw(gpus),)
    if name == "advance":
        return name, (data.draw(gpus), data.draw(st.integers(0, 2)))
    if name == "extend_partners":
        return name, (data.draw(gpus), data.draw(st.sets(gpus, max_size=8)))
    if name == "retire_group":
        return name, (data.draw(st.integers(0, 2)),)
    # open_group/start_group: survivor-style partner sets, as production
    alive = data.draw(st.one_of(st.none(), st.sets(gpus)))
    allowed = None if alive is None else [
        alive - {g} if g in alive else set() for g in range(num_gpus)]
    return name, (data.draw(st.integers(0, 2)), allowed)


def draw_program(data, num_gpus):
    gpus = st.integers(0, num_gpus - 1)
    return {
        "start": (data.draw(st.integers(0, 2)),
                  data.draw(st.one_of(st.none(), st.just(1)))),
        "empty": [data.draw(st.integers(0, (1 << num_gpus) - 1))
                  for _ in range(num_gpus)],
        "delay_seed": data.draw(st.integers(0, 3)),
        "receivers": data.draw(st.lists(gpus, unique=True, min_size=1,
                                        max_size=num_gpus)),
        # a call a receiver makes the moment it finishes: it may run
        # inside a re-check, changing the table mid-pass
        "after": {gpu: draw_driver_call(data, num_gpus)
                  for gpu in data.draw(st.sets(gpus, max_size=4))},
        "steps": [(data.draw(st.sampled_from((None, 0.0, 1.0, 2.5))),)
                  + draw_driver_call(data, num_gpus)
                  for _ in range(data.draw(st.integers(1, 30)))],
    }


def receiver_loop(sched, gpu, empty, pull, log):
    """``ReadyIdlePairing.compose``'s pairing loop: empty pairs settle in
    the table, the process runs only to pull or to finish."""
    while True:
        sender = sched.pair_empty_prefix(gpu, empty)
        if sender is None:
            if sched.gpu_done(gpu):
                return
            yield sched.wait_pair(gpu, empty)
            log.append(("woke", sched.sim.now, gpu))
            continue
        sched.begin(sender, gpu)
        yield pull(sender)
        sched.complete(sender, gpu)


def run_program(scheduler_cls, program, num_gpus, per_pair=False):
    sim = Simulator(sanitize=True)
    sched = scheduler_cls(num_gpus, sim)
    cgid, second = program["start"]
    sched.start_group(cgid)
    if second is not None:
        call(sched, "open_group", (cgid + second, None))
    log, kept = [], []

    def pull_for(gpu):
        def pull(sender):
            log.append(("pull", sim.now, sender, gpu))
            return sim.timeout(
                (sender * 7 + gpu * 3 + program["delay_seed"]) % 4)
        return pull

    def receiver(gpu):
        empty = program["empty"][gpu]
        if per_pair:
            loop = per_pair_receiver(sched, gpu, empty, pull_for(gpu))
        else:
            loop = receiver_loop(sched, gpu, empty, pull_for(gpu), log)
        try:
            yield from loop
        except SchedulingError:
            log.append(("rejected", sim.now, gpu))
            return
        log.append(("done", sim.now, gpu))
        if gpu in program["after"]:
            log.append(("after", gpu, call(sched, *program["after"][gpu])))

    def driver():
        for delay, name, args in program["steps"]:
            if delay is not None:
                yield sim.timeout(delay)
            log.append(("call", sim.now, name, call(sched, name, args)))
            kept.append([entry[0] for entry in sched._waiters])

    for gpu in program["receivers"]:
        sim.process(receiver(gpu))
    sim.process(driver())
    sim.run(watchdog=False)
    table = [(row.cgid, row.ready, row.receiving, row.sending,
              row.sent_mask, row.received_mask) for row in sched.table]
    return (log, kept, [entry[0] for entry in sched._waiters], table,
            sched.in_flight(), sim.sanitizer.accesses_recorded)


@given(data=st.data(),
       num_gpus=st.one_of(st.integers(2, 9), st.integers(62, 68)))
@settings(max_examples=200, deadline=None)
def test_skipping_recheck_matches_full_scan(data, num_gpus):
    program = draw_program(data, num_gpus)
    assert (run_program(ImageCompositionScheduler, program, num_gpus)
            == run_program(FullScanScheduler, program, num_gpus))


@given(data=st.data(),
       num_gpus=st.one_of(st.integers(2, 9), st.integers(62, 68)))
@settings(max_examples=200, deadline=None)
def test_empty_prefix_matches_per_pair_receivers(data, num_gpus):
    program = draw_program(data, num_gpus)
    log, *rest = run_program(ImageCompositionScheduler, program, num_gpus)
    ref_log, *ref_rest = run_program(PollingScheduler, program, num_gpus,
                                     per_pair=True)
    assert [e for e in log if e[0] != "woke"] == ref_log
    assert rest == ref_rest
