"""Fault injection: plans, link retries, fail-stop recovery, determinism.

The fault model's contract has three pillars the suite pins down:

1. a plan with zero probabilities and no failures is *exactly* a fault-free
   run (bit-identical cycles and image — the injector never even draws a
   random number);
2. everything is seeded: the same plan produces the same run, every time;
3. recovery is *correct*: after transient link errors or a fail-stopped GPU
   the frame still matches the single-GPU reference image, and the reported
   overhead counters describe what recovery cost.
"""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError, FaultError
from repro.faults import (DegradedWindow, FaultInjector, FaultPlan,
                          GPUFailure, OUTCOME_CORRUPT, OUTCOME_DROP,
                          parse_fault_plan)
from repro.faults.degraded import (first_unfinished_group, merge_chunks,
                                   nearest_survivor, redistribute_draw_works,
                                   repair_region_matrix)
from repro.harness import build_scheme, make_setup
from repro.stats import RunStats
from repro.timing.interconnect import Interconnect
from repro.traces import load_benchmark


# ---------------------------------------------------------------------------
# FaultPlan / parsing


class TestFaultPlan:
    def test_default_plan_is_harmless(self):
        plan = FaultPlan()
        assert plan.error_probability == 0.0
        assert not plan.affects_links
        assert plan.failed_gpus == ()

    def test_degraded_windows_alone_affect_links(self):
        plan = FaultPlan(degraded_windows=(
            DegradedWindow(start=0, end=100, bandwidth_factor=0.5),))
        assert plan.affects_links

    def test_overlapping_windows_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="overlap"):
            FaultPlan(degraded_windows=(
                DegradedWindow(start=0, end=100, bandwidth_factor=0.5),
                DegradedWindow(start=50, end=200, bandwidth_factor=0.25)))

    def test_disjoint_windows_each_apply(self):
        plan = FaultPlan(degraded_windows=(
            DegradedWindow(start=0, end=100, bandwidth_factor=0.5),
            DegradedWindow(start=100, end=200, bandwidth_factor=0.25)))
        assert plan.bandwidth_factor_at(25) == 0.5
        assert plan.bandwidth_factor_at(150) == 0.25
        assert plan.bandwidth_factor_at(500) == 1.0

    def test_plan_gpus_bounds_failstop_indices(self):
        with pytest.raises(ConfigError, match="GPU7"):
            FaultPlan(gpus=4,
                      gpu_failures=(GPUFailure(gpu=7, cycle=1000.0),))
        plan = FaultPlan(gpus=8,
                         gpu_failures=(GPUFailure(gpu=7, cycle=1000.0),))
        plan.validate_for(8)
        with pytest.raises(ConfigError, match="written for 8"):
            plan.validate_for(16)

    def test_failure_cycle_lookup(self):
        plan = FaultPlan(gpu_failures=(GPUFailure(gpu=3, cycle=1000.0),))
        assert plan.failure_cycle(3) == 1000.0
        with pytest.raises(ConfigError):
            plan.failure_cycle(4)

    def test_validate_for_rejects_out_of_range_gpu(self):
        plan = FaultPlan(gpu_failures=(GPUFailure(gpu=8, cycle=0.0),))
        with pytest.raises(ConfigError, match="only has 8 GPUs"):
            plan.validate_for(8)

    def test_validate_for_rejects_killing_every_gpu(self):
        plan = FaultPlan(gpu_failures=(GPUFailure(gpu=0, cycle=0.0),
                                       GPUFailure(gpu=1, cycle=50.0)))
        with pytest.raises(ConfigError, match="no survivors"):
            plan.validate_for(2)
        plan.validate_for(3)  # one survivor is enough


class TestParseFaultPlan:
    def test_full_spec_round_trip(self):
        plan = parse_fault_plan(
            "seed=42,drop=0.01,corrupt=0.002,retries=5,backoff=32,"
            "detect=800,fail=2@50000,slow=1000:9000:0.25")
        assert plan.seed == 42
        assert plan.drop_probability == 0.01
        assert plan.corrupt_probability == 0.002
        assert plan.retry_budget == 5
        assert plan.backoff_base_cycles == 32.0
        assert plan.drop_detection_cycles == 800.0
        assert plan.gpu_failures == (GPUFailure(gpu=2, cycle=50000.0),)
        assert plan.degraded_windows == (
            DegradedWindow(start=1000.0, end=9000.0, bandwidth_factor=0.25),)

    def test_fail_and_slow_repeat(self):
        plan = parse_fault_plan("fail=1@10; fail=3@20; slow=0:5:0.5")
        assert plan.failed_gpus == (1, 3)
        assert len(plan.degraded_windows) == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault-plan key"):
            parse_fault_plan("sprinkle=0.1")

    def test_malformed_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_fault_plan("drop=lots")
        with pytest.raises(ConfigError):
            parse_fault_plan("fail=2")
        with pytest.raises(ConfigError):
            parse_fault_plan("slow=1000:9000")
        with pytest.raises(ConfigError):
            parse_fault_plan("justakey")


class TestFaultInjector:
    def test_zero_probability_never_errors(self):
        injector = FaultInjector(FaultPlan(seed=5))
        outcomes = {injector.transfer_outcome(0, 1) for _ in range(200)}
        assert outcomes == {"ok"}

    def test_certain_drop_and_certain_corrupt(self):
        dropper = FaultInjector(FaultPlan(drop_probability=1.0))
        corrupter = FaultInjector(FaultPlan(corrupt_probability=1.0))
        assert dropper.transfer_outcome(0, 1) == OUTCOME_DROP
        assert corrupter.transfer_outcome(0, 1) == OUTCOME_CORRUPT

    def test_same_seed_same_outcome_sequence(self):
        plan = FaultPlan(seed=17, drop_probability=0.3,
                         corrupt_probability=0.2)
        a, b = FaultInjector(plan), FaultInjector(plan)
        seq_a = [a.transfer_outcome(0, 1) for _ in range(100)]
        seq_b = [b.transfer_outcome(0, 1) for _ in range(100)]
        assert seq_a == seq_b
        assert len(set(seq_a)) == 3  # all three outcomes appear

    def test_backoff_doubles_per_attempt(self):
        injector = FaultInjector(FaultPlan(backoff_base_cycles=16.0))
        assert injector.backoff_cycles(1) == 16.0
        assert injector.backoff_cycles(2) == 32.0
        assert injector.backoff_cycles(3) == 64.0
        with pytest.raises(ConfigError):
            injector.backoff_cycles(0)


# ---------------------------------------------------------------------------
# Degraded-mode planning helpers


class TestDegradedHelpers:
    def test_first_unfinished_group(self):
        ends = [100.0, 250.0, 400.0]
        assert first_unfinished_group(ends, 0.0) == 0
        assert first_unfinished_group(ends, 100.0) == 1
        assert first_unfinished_group(ends, 300.0) == 2
        assert first_unfinished_group(ends, 400.0) == 3  # after frame end

    def test_nearest_survivor_ties_break_left(self):
        assert nearest_survivor(2, [0, 1, 3, 4]) == 1
        assert nearest_survivor(0, [1, 2, 3]) == 1
        assert nearest_survivor(3, [0, 1]) == 1
        with pytest.raises(FaultError):
            nearest_survivor(0, [])

    def test_redistribute_targets_least_loaded_survivor(self):
        class Work:
            def __init__(self, triangles):
                self.triangles = triangles

        targets = redistribute_draw_works(
            [Work(10), Work(10)], alive=[0, 1, 3],
            base_triangles={0: 100, 1: 5, 3: 100}, num_gpus=4)
        assert targets[0] == 1  # least loaded survivor, never GPU2
        assert set(targets) <= {0, 1, 3}

    def test_repair_region_matrix_conserves_traffic(self):
        matrix = np.arange(16).reshape(4, 4)
        np.fill_diagonal(matrix, 0)
        repaired = repair_region_matrix(matrix, dead=[2], inherit={2: 1})
        assert repaired[2, :].sum() == 0 and repaired[:, 2].sum() == 0
        assert np.all(np.diagonal(repaired) == 0)
        # inheritor absorbs the dead GPU's off-diagonal traffic except the
        # (2, 1) / (1, 2) messages, which become local composition
        lost = matrix[2, 1] + matrix[1, 2]
        assert repaired.sum() == matrix.sum() - lost

    def test_merge_chunks_keeps_contiguity(self):
        merged = merge_chunks(range(4), dead=[2], inherit_chunk={2: 1})
        assert merged == {0: [0], 1: [1, 2], 3: [3]}
        # a non-adjacent inheritor would interleave blending order
        with pytest.raises(FaultError, match="contiguity"):
            merge_chunks(range(4), dead=[1], inherit_chunk={1: 3})


# ---------------------------------------------------------------------------
# Interconnect-level behaviour (DES)


def _drive_transfer(config, num_bytes=4096.0):
    """Run one src->dst transfer; returns (stats, cycles)."""
    from repro.sim import Simulator
    sim = Simulator()
    stats = RunStats(num_gpus=config.num_gpus)
    net = Interconnect(sim, config, stats)
    delivered = net.transfer(0, 1, num_bytes, "test")
    cycles = sim.run()
    assert delivered.triggered
    return stats, cycles


class TestInterconnectFaults:
    def test_retry_budget_exhaustion_raises_fault_error(self):
        config = SystemConfig(num_gpus=2, faults=FaultPlan(
            corrupt_probability=1.0, retry_budget=2))
        with pytest.raises(FaultError, match="exhausted its retry budget"):
            _drive_transfer(config)

    def test_transient_errors_retry_and_count(self):
        plan = FaultPlan(seed=11, drop_probability=0.4,
                         corrupt_probability=0.2, retry_budget=64)
        config = SystemConfig(num_gpus=2, faults=plan)
        clean, clean_cycles = _drive_transfer(SystemConfig(num_gpus=2))
        stats, cycles = _drive_transfer(config)
        assert stats.link_retries > 0
        assert stats.dropped_transfers + stats.corrupted_transfers \
            == stats.link_retries
        assert stats.retransmitted_bytes == 4096.0 * stats.link_retries
        assert stats.backoff_cycles > 0
        assert cycles > clean_cycles
        assert clean.link_retries == 0

    def test_degraded_window_scales_occupancy(self):
        from repro.sim import Simulator
        plan = FaultPlan(degraded_windows=(
            DegradedWindow(start=1000, end=2000, bandwidth_factor=0.25),))
        config = SystemConfig(num_gpus=2, faults=plan)
        net = Interconnect(Simulator(), config,
                           RunStats(num_gpus=2))
        nominal = net.occupancy_cycles(4096.0, at=0.0)
        slowed = net.occupancy_cycles(4096.0, at=1500.0)
        assert slowed == pytest.approx(4.0 * nominal)


# ---------------------------------------------------------------------------
# Whole-scheme runs


@pytest.fixture(scope="module")
def wolf_tiny():
    return load_benchmark("wolf", "tiny")


def _run(trace, scheme="chopin+sched", faults=None, num_gpus=8):
    setup = make_setup("tiny", num_gpus=num_gpus, faults=faults)
    return build_scheme(scheme, setup).run(trace)


class TestSchemeFaultRuns:
    def test_zero_probability_plan_is_bit_identical_to_baseline(self,
                                                                wolf_tiny):
        clean = _run(wolf_tiny)
        nulled = _run(wolf_tiny, faults=FaultPlan(seed=123))
        assert nulled.frame_cycles == clean.frame_cycles
        assert np.array_equal(nulled.image.color, clean.image.color)
        assert nulled.stats.link_retries == 0
        assert not nulled.stats.had_faults

    def test_same_fault_seed_repeats_exactly(self, wolf_tiny):
        plan = FaultPlan(seed=9, drop_probability=0.02,
                         corrupt_probability=0.01, retry_budget=64)
        first = _run(wolf_tiny, faults=plan)
        second = _run(wolf_tiny, faults=plan)
        assert first.frame_cycles == second.frame_cycles
        assert first.stats.link_retries == second.stats.link_retries
        assert first.stats.backoff_cycles == second.stats.backoff_cycles
        assert np.array_equal(first.image.color, second.image.color)

    def test_transient_errors_slow_but_do_not_corrupt_the_frame(self,
                                                                wolf_tiny):
        plan = FaultPlan(seed=9, drop_probability=0.02,
                         corrupt_probability=0.01, retry_budget=64)
        clean = _run(wolf_tiny)
        noisy = _run(wolf_tiny, faults=plan)
        assert noisy.stats.link_retries > 0
        assert noisy.stats.had_faults
        assert noisy.frame_cycles > clean.frame_cycles
        assert np.array_equal(noisy.image.color, clean.image.color)

    def test_degraded_window_slows_the_frame(self, wolf_tiny):
        plan = FaultPlan(degraded_windows=(
            DegradedWindow(start=0, end=1e12, bandwidth_factor=0.25),))
        clean = _run(wolf_tiny)
        slowed = _run(wolf_tiny, faults=plan)
        assert slowed.frame_cycles > clean.frame_cycles
        assert np.array_equal(slowed.image.color, clean.image.color)

    @pytest.mark.parametrize("scheme", ["chopin", "chopin+sched"])
    def test_fail_stop_recovers_with_correct_image(self, wolf_tiny, scheme):
        plan = FaultPlan(gpu_failures=(GPUFailure(gpu=2, cycle=50000.0),))
        clean = _run(wolf_tiny, scheme=scheme)
        degraded = _run(wolf_tiny, scheme=scheme, faults=plan)
        assert np.array_equal(degraded.image.color, clean.image.color)
        assert degraded.stats.failed_gpus == [2]
        assert degraded.stats.redistributed_draws > 0
        assert degraded.stats.baseline_frame_cycles == clean.frame_cycles
        assert degraded.stats.recovery_overhead_cycles == \
            degraded.frame_cycles - clean.frame_cycles
        assert degraded.stats.had_faults

    def test_fail_stop_at_cycle_zero_recovers(self, wolf_tiny):
        plan = FaultPlan(gpu_failures=(GPUFailure(gpu=0, cycle=0.0),))
        clean = _run(wolf_tiny)
        degraded = _run(wolf_tiny, faults=plan)
        assert np.array_equal(degraded.image.color, clean.image.color)
        assert degraded.stats.failed_gpus == [0]

    def test_fail_stop_after_frame_end_changes_nothing(self, wolf_tiny):
        plan = FaultPlan(gpu_failures=(GPUFailure(gpu=2, cycle=1e12),))
        clean = _run(wolf_tiny)
        late = _run(wolf_tiny, faults=plan)
        assert late.frame_cycles == clean.frame_cycles
        assert np.array_equal(late.image.color, clean.image.color)
        assert late.stats.failed_gpus == []

    def test_two_staggered_failures_recover(self, wolf_tiny):
        plan = FaultPlan(gpu_failures=(GPUFailure(gpu=2, cycle=40000.0),
                                       GPUFailure(gpu=5, cycle=90000.0)))
        clean = _run(wolf_tiny)
        degraded = _run(wolf_tiny, faults=plan)
        assert np.array_equal(degraded.image.color, clean.image.color)
        assert degraded.stats.failed_gpus == [2, 5]

    def test_non_chopin_schemes_reject_fail_stop_plans(self, wolf_tiny):
        plan = FaultPlan(gpu_failures=(GPUFailure(gpu=2, cycle=50000.0),))
        setup = make_setup("tiny", num_gpus=8, faults=plan)
        for scheme in ("duplication", "gpupd", "sort-middle"):
            with pytest.raises(ConfigError, match="cannot recover"):
                build_scheme(scheme, setup)

    def test_non_chopin_schemes_accept_link_fault_plans(self, wolf_tiny):
        plan = FaultPlan(seed=4, drop_probability=0.01, retry_budget=64)
        clean = _run(wolf_tiny, scheme="gpupd", num_gpus=4)
        noisy = _run(wolf_tiny, scheme="gpupd", faults=plan, num_gpus=4)
        assert noisy.stats.link_retries > 0
        assert np.array_equal(noisy.image.color, clean.image.color)

    def test_fault_summary_rows_are_flat_scalars(self, wolf_tiny):
        plan = FaultPlan(gpu_failures=(GPUFailure(gpu=2, cycle=50000.0),))
        degraded = _run(wolf_tiny, faults=plan)
        summary = degraded.stats.summary("fault")
        assert summary["recovery_overhead_cycles"] \
            == degraded.stats.recovery_overhead_cycles
        assert all(isinstance(v, (int, float)) for v in summary.values())
        assert summary["failed_gpus"] == 1
