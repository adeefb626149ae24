"""Cross-group pipelining: the windowed scheduler, the per-GPU pipeline
window, and ``pipeline_depth`` end-to-end.

Pins the PR's load-bearing invariants:

1. the composition-scheduler table supports a *window* of in-flight
   groups, and ``advance`` fully resets a row — the historical
   cross-group state leak (stale ``sent_gpus`` satisfying ``gpu_done``
   for a group the GPU never composed in) must stay dead;
2. ``PipelineWindow`` is pure per-GPU backpressure with exact
   stall/admit accounting;
3. ``pipeline_depth`` is a *timing* knob only: frames are bit-identical
   at every depth, cycles are monotone nonincreasing as the window
   widens, unbounding it cuts idle cycles by at least a tenth, and the
   overlap/stall/idle counters land on ``RunStats`` and the export
   schema.
"""

import numpy as np
import pytest

from repro.core.composition_scheduler import ImageCompositionScheduler
from repro.core.workflow import PipelineWindow
from repro.errors import ConfigError, SchedulingError
from repro.harness.experiments import composition_head_to_head
from repro.harness.export import SERVE_SESSION_COLUMNS
from repro.harness.runner import make_setup, run
from repro.serve import (FrameServer, LoadProfile, calibrate_service_cycles,
                         generate_workload)
from repro.sim import Simulator
from repro.stats import RunStats
from repro.traces import load_benchmark


# ------------------------------------------------------- windowed scheduler


class TestWindowedScheduler:
    def test_window_bounds_in_flight_groups(self):
        sched = ImageCompositionScheduler(4, Simulator(), window=2)
        sched.open_group(1)
        sched.open_group(2)
        assert sched.in_flight() == (1, 2)
        with pytest.raises(SchedulingError):
            sched.open_group(3)
        sched.retire_group(1)
        sched.open_group(3)
        assert sched.in_flight() == (2, 3)
        assert sched.groups_peak == 2

    def test_duplicate_open_rejected(self):
        sched = ImageCompositionScheduler(4, Simulator())
        sched.open_group(1)
        with pytest.raises(SchedulingError):
            sched.open_group(1)

    def test_advance_requires_open_group(self):
        sched = ImageCompositionScheduler(4, Simulator())
        sched.open_group(1)
        with pytest.raises(SchedulingError):
            sched.advance(0, 99)

    def test_retire_unknown_group_rejected(self):
        sched = ImageCompositionScheduler(4, Simulator())
        with pytest.raises(SchedulingError):
            sched.retire_group(7)

    def test_window_must_be_positive(self):
        with pytest.raises(SchedulingError):
            ImageCompositionScheduler(4, Simulator(), window=0)

    def test_pairing_blocked_across_groups(self):
        """Rows in different in-flight groups must never pair."""
        sched = ImageCompositionScheduler(4, Simulator())
        sched.open_group(1)
        sched.open_group(2)
        for gpu in (0, 1):
            sched.advance(gpu, 1)
        for gpu in (2, 3):
            sched.advance(gpu, 2)
        sched.mark_ready(0)
        sched.mark_ready(2)
        # GPU2 is ready but lives in group 2: not a sender for GPU0.
        assert sched.find_sender_for(0) is None
        sched.mark_ready(1)
        assert sched.find_sender_for(0) == 1

    def test_per_group_partner_restriction(self):
        """A fail-stop repair narrows one group without touching others."""
        survivors = [{1}, {0}, set(), set()]
        sched = ImageCompositionScheduler(4, Simulator())
        sched.open_group(1, allowed_partners=survivors)
        sched.open_group(2)
        sched.advance(0, 1)
        sched.advance(3, 2)
        assert sched.partners_of(0) == {1}
        assert sched.partners_of(3) == {0, 1, 2}

    def test_groups_peak_tracks_concurrency(self):
        sched = ImageCompositionScheduler(2, Simulator())
        for cgid in (1, 2, 3):
            sched.open_group(cgid)
        sched.retire_group(1)
        sched.retire_group(2)
        sched.retire_group(3)
        assert sched.in_flight() == ()
        assert sched.groups_peak == 3


class TestCrossGroupLeakRegression:
    """`advance` must fully reset a row.

    Historically the table was rebuilt per group, so Sent/Received state
    could never leak. With a window of in-flight groups a row that kept
    its vectors across the CGID change would satisfy ``gpu_done`` for
    the *new* group without exchanging a single sub-image.
    """

    def _exchange(self, sched, sender, receiver):
        assert sched.find_sender_for(receiver) == sender
        sched.begin(sender, receiver)
        sched.complete(sender, receiver)

    def test_advance_resets_sent_and_received(self):
        sched = ImageCompositionScheduler(2, Simulator())
        sched.open_group(1)
        sched.open_group(2)
        for gpu in (0, 1):
            sched.advance(gpu, 1)
            sched.mark_ready(gpu)
        self._exchange(sched, sender=1, receiver=0)
        self._exchange(sched, sender=0, receiver=1)
        assert sched.gpu_done(0) and sched.gpu_done(1)
        assert sched.table[0].sent_gpus == {1}

        sched.retire_group(1)
        for gpu in (0, 1):
            sched.advance(gpu, 2)
        for gpu in (0, 1):
            row = sched.table[gpu]
            assert row.cgid == 2
            assert not row.ready and not row.sending and not row.receiving
            assert row.sent_gpus == set() and row.received_gpus == set()
            # the leak: stale vectors must not pre-complete the new group
            assert not sched.gpu_done(gpu)

        # ...and a full fresh exchange is required (and possible) again
        sched.mark_ready(0)
        sched.mark_ready(1)
        self._exchange(sched, sender=1, receiver=0)
        self._exchange(sched, sender=0, receiver=1)
        assert sched.all_done()


# --------------------------------------------------------- pipeline window


class _FakeEvent:
    def __init__(self):
        self.processed = False


class TestPipelineWindow:
    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigError):
            PipelineWindow(0)
        with pytest.raises(ConfigError):
            PipelineWindow(-3)

    def test_unbounded_never_stalls(self):
        window = PipelineWindow(None)
        events = [_FakeEvent() for _ in range(10)]
        for event in events:
            assert window.admit_gate() is None
            window.push(event)
        assert window.admit_gate() is None
        assert window.stalls == 0
        assert window.admitted == 10
        assert window.pending() == 10

    def test_depth_one_is_a_barrier(self):
        window = PipelineWindow(1)
        assert window.admit_gate() is None
        event = _FakeEvent()
        window.push(event)
        assert window.admit_gate() is event
        assert window.stalls == 1
        event.processed = True
        assert window.admit_gate() is None
        assert window.pending() == 0

    def test_gate_returns_oldest_pending(self):
        window = PipelineWindow(2)
        first, second = _FakeEvent(), _FakeEvent()
        window.push(first)
        window.push(second)
        assert window.admit_gate() is first
        first.processed = True
        assert window.admit_gate() is None
        window.push(_FakeEvent())
        assert window.admit_gate() is second


# ----------------------------------------------------- depth end-to-end


@pytest.fixture(scope="module")
def depth_results():
    trace = load_benchmark("wolf", "tiny")
    out = {}
    for depth in (1, 2, None):
        setup = make_setup("tiny", num_gpus=8, pipeline_depth=depth)
        out[depth] = run("chopin+sched", trace, setup)
    return out


class TestPipelineDepthEndToEnd:
    def test_images_bit_identical_at_every_depth(self, depth_results):
        base = depth_results[None].image
        for depth in (1, 2):
            image = depth_results[depth].image
            assert np.array_equal(image.color, base.color)
            assert np.array_equal(image.depth, base.depth)

    def test_cycles_monotone_as_window_widens(self, depth_results):
        barrier = depth_results[1].frame_cycles
        shallow = depth_results[2].frame_cycles
        unbounded = depth_results[None].frame_cycles
        assert barrier >= shallow >= unbounded
        assert barrier > unbounded  # the window must actually buy overlap

    def test_depth_one_stalls_and_unbounded_does_not(self, depth_results):
        assert depth_results[1].stats.pipeline_stall_cycles > 0
        assert depth_results[None].stats.pipeline_stall_cycles == 0

    def test_overlap_and_idle_counters(self, depth_results):
        stats = depth_results[None].stats
        assert stats.comp_overlap_cycles > 0
        assert stats.scheduler_groups_peak > 1
        assert depth_results[None].stats.idle_cycles \
            < depth_results[1].stats.idle_cycles

    def test_depth_stamped_on_stats(self, depth_results):
        assert depth_results[1].stats.pipeline_depth == 1
        assert depth_results[2].stats.pipeline_depth == 2
        assert depth_results[None].stats.pipeline_depth == 0  # unbounded

    def test_unbounded_window_cuts_idle_cycles(self):
        """Composition overlaps rendering (§IV): unbounding the in-flight
        group window cuts the idle cycles of chopin+sched and dfb, summed
        over wolf and cod2 at 8 GPUs, by at least a tenth vs a per-group
        barrier (measured: 1,873,943 -> 1,324,466, a 29.3% win), and the
        images stay bit-identical."""
        benchmarks, schemes = ("wolf", "cod2"), ("chopin+sched", "dfb")
        idle = {}
        for depth in (1, None):
            table = composition_head_to_head(
                benchmarks=benchmarks, gpu_counts=(8,), stress=(),
                pipeline_depth=depth)
            idle[depth] = sum(table[bench][8][scheme]["idle_cycles"]
                              for bench in benchmarks for scheme in schemes)
        assert 1.0 - idle[None] / idle[1] >= 0.10
        # the head-to-head already ran these: each run is a store hit
        for bench in benchmarks:
            trace = load_benchmark(bench, "tiny")
            for scheme in schemes:
                barrier, unbounded = (
                    run(scheme, trace,
                        make_setup("tiny", num_gpus=8, pipeline_depth=depth))
                    for depth in (1, None))
                assert np.array_equal(barrier.image.color,
                                      unbounded.image.color), (bench, scheme)
                assert np.array_equal(barrier.image.depth,
                                      unbounded.image.depth), (bench, scheme)


# ------------------------------------------------------------ export schema


class TestPipelineExportSchema:
    def test_serve_session_schema_has_overlap_columns(self):
        assert "overlap_cycles" in SERVE_SESSION_COLUMNS
        assert "overlapped_batches" in SERVE_SESSION_COLUMNS

    def test_stats_roundtrip_keeps_pipeline_fields(self):
        stats = RunStats(num_gpus=4)
        stats.pipeline_depth = 3
        stats.pipeline_stall_cycles = 123.5
        stats.comp_overlap_cycles = 456.25
        stats.idle_cycles = 789.0
        stats.scheduler_groups_peak = 6
        stats.serve_overlap_cycles = 42.0
        stats.serve_overlapped_batches = 7
        clone = RunStats.from_dict(stats.to_dict())
        assert clone.summary("pipeline") == stats.summary("pipeline")
        assert clone.serve_overlap_cycles == 42.0
        assert clone.serve_overlapped_batches == 7


# ------------------------------------------------------- serve overlap


@pytest.fixture(scope="module")
def serve_setup():
    return make_setup("tiny", num_gpus=2)


@pytest.fixture(scope="module")
def serve_workload(serve_setup):
    _, mean = calibrate_service_cycles("chopin+sched", ["wolf"], serve_setup)
    profile = LoadProfile(sessions=3, rate_x=4.0, duration_x=20.0, seed=1)
    return generate_workload(profile, ["wolf"], mean, groups=2)


class TestServeCrossRequestOverlap:
    def test_overlap_counters_only_when_opted_in(self, serve_setup,
                                                 serve_workload):
        plain = FrameServer("chopin+sched", serve_setup, serve_workload,
                            groups=2, queue_limit=8, batch_limit=2)
        report_off = plain.serve()
        assert report_off.stats.serve_overlap_cycles == 0.0
        assert report_off.stats.serve_overlapped_batches == 0

        overlapped = FrameServer("chopin+sched", serve_setup, serve_workload,
                                 groups=2, queue_limit=8, batch_limit=2,
                                 pipeline_overlap=True)
        report_on = overlapped.serve()
        # 4x saturation keeps groups back-to-back: overlap must happen
        assert report_on.stats.serve_overlapped_batches > 0
        assert report_on.stats.serve_overlap_cycles > 0.0

        # a timing knob, never a result knob
        a = plain.rendered_results["wolf"].image
        b = overlapped.rendered_results["wolf"].image
        assert np.array_equal(a.color, b.color)
        assert np.array_equal(a.depth, b.depth)
