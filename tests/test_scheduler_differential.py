"""The bit-vector composition scheduler vs. the set-based oracle.

The production :class:`repro.core.ImageCompositionScheduler` keeps
Table I's GPU vectors as ``int`` masks and answers ``find_sender_for``
with one AND and a lowest-set-bit; the oracle in
``tests/oracles/composition_scheduler.py`` is the sorted partner scan it
replaced. Random call sequences drive both tables, and after every call
(including the ones both reject) they must give the same
``find_sender_for``, ``gpu_done`` and ``partners_of`` for every GPU.
GPU counts run past 64 so masks cross a machine word.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ImageCompositionScheduler
from repro.errors import SchedulingError

from .oracles.composition_scheduler import SetScheduler

CALLS = ("open_group", "advance", "mark_ready", "begin", "complete",
         "exclude_gpu", "extend_partners", "retire_group", "start_group")


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
        getattr(table, name)(*copy_args(args))
    except SchedulingError:
        return "rejected"
    return "ok"


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
