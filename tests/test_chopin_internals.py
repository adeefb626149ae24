"""CHOPIN scheme internals: assignment pass, prep caching, knob effects."""

import numpy as np
import pytest

from repro.core.workflow import GroupMode
from repro.harness import make_setup
from repro.sfr import Chopin, ChopinRoundRobin, ChopinWithScheduler
from repro.render import render_service
from repro.traces import load_benchmark


@pytest.fixture(scope="module")
def setup():
    return make_setup("tiny", num_gpus=8)


@pytest.fixture(scope="module")
def trace():
    return load_benchmark("cod2", "tiny")


class TestAssignment:
    def test_deterministic(self, setup, trace):
        scheme = ChopinWithScheduler(setup.config, setup.costs)
        draws = trace.frame.draws[:40]
        first = scheme._assign_group(draws)
        second = scheme._assign_group(draws)
        assert first == second

    def test_all_gpus_used_on_big_groups(self, setup, trace):
        scheme = ChopinWithScheduler(setup.config, setup.costs)
        assignment, _ = scheme._assign_group(trace.frame.draws[:64])
        assert set(assignment) == set(range(8))

    def test_issue_times_paced(self, setup, trace):
        scheme = ChopinWithScheduler(setup.config, setup.costs)
        _, issue_times = scheme._assign_group(trace.frame.draws[:10])
        spacing = np.diff(issue_times)
        assert np.allclose(spacing, setup.costs.draw_issue_cost)

    def test_round_robin_ignores_sizes(self, setup, trace):
        scheme = ChopinRoundRobin(setup.config, setup.costs)
        assignment, _ = scheme._assign_group(trace.frame.draws[:16])
        assert assignment == [i % 8 for i in range(16)]

    def test_unknown_scheduler_rejected(self, setup):
        from repro.errors import SchedulingError
        with pytest.raises(SchedulingError):
            Chopin(setup.config, setup.costs, draw_scheduler="magic")

    def test_least_remaining_balances_triangles(self, setup, trace):
        scheme = ChopinWithScheduler(setup.config, setup.costs)
        draws = [d for d in trace.frame.draws if not d.transparent][:80]
        assignment, _ = scheme._assign_group(draws)
        loads = [0] * 8
        for draw, gpu in zip(draws, assignment):
            loads[gpu] += draw.num_triangles
        assert max(loads) <= np.mean(loads) * 1.6


class TestFunctionalPrep:
    def test_prep_cached_across_variants(self, setup, trace):
        render_service().reset("chopin-prep")
        naive = Chopin(setup.config, setup.costs)
        scheduled = ChopinWithScheduler(setup.config, setup.costs)
        prep_a = naive._functional_pass(trace)
        prep_b = scheduled._functional_pass(trace)
        assert prep_a is prep_b  # same scheduler kind -> shared cache entry

    def test_round_robin_gets_different_prep(self, setup, trace):
        naive = Chopin(setup.config, setup.costs)
        rr = ChopinRoundRobin(setup.config, setup.costs)
        assert naive._functional_pass(trace) \
            is not rr._functional_pass(trace)

    def test_prep_group_modes_cover_frame(self, setup, trace):
        prep = ChopinWithScheduler(setup.config,
                                   setup.costs)._functional_pass(trace)
        draws_covered = 0
        for group_prep in prep.groups:
            draws_covered += group_prep.plan.group.num_draws
        assert draws_covered == trace.frame.num_draws

    def test_opaque_groups_have_region_matrix(self, setup, trace):
        prep = ChopinWithScheduler(setup.config,
                                   setup.costs)._functional_pass(trace)
        for group_prep in prep.groups:
            if group_prep.mode is GroupMode.OPAQUE_PARALLEL:
                matrix = group_prep.region_pixels
                assert matrix.shape == (8, 8)
                assert (np.diag(matrix) == 0).all()
                assert (matrix >= 0).all()

    def test_transparent_groups_have_tree(self, setup, trace):
        prep = ChopinWithScheduler(setup.config,
                                   setup.costs)._functional_pass(trace)
        transparent = [gp for gp in prep.groups
                       if gp.mode is GroupMode.TRANSPARENT_PARALLEL]
        assert transparent, "trace should contain transparent groups"
        for gp in transparent:
            merges = sum(len(level) for level in gp.tree_levels)
            assert merges == 7  # n-1 pair merges for 8 GPUs
            assert len(gp.scatter_pixels) == 8


class TestKnobs:
    def test_threshold_zero_accelerates_everything(self, trace):
        lo = make_setup("tiny", composition_threshold=1)
        scheme = ChopinWithScheduler(lo.config, lo.costs)
        prep = scheme._functional_pass(trace)
        modes = {gp.mode for gp in prep.groups}
        # only groups *forced* to duplicate (depth-write off etc.) remain
        duplicated = [gp for gp in prep.groups
                      if gp.mode is GroupMode.DUPLICATE]
        for gp in duplicated:
            assert (not gp.plan.group.depth_write
                    or gp.plan.group.num_triangles == 0
                    or not gp.plan.group.transparent)
        assert GroupMode.OPAQUE_PARALLEL in modes

    def test_huge_threshold_duplicates_everything(self, trace):
        hi = make_setup("tiny", composition_threshold=10**9)
        scheme = ChopinWithScheduler(hi.config, hi.costs)
        prep = scheme._functional_pass(trace)
        assert all(gp.mode is GroupMode.DUPLICATE for gp in prep.groups)
        # Degenerates to conventional SFR rendering. It stays somewhat
        # faster than the duplication *scheme* because it pays neither the
        # RT-switch broadcasts nor the inter-segment barriers.
        from repro.sfr import PrimitiveDuplication
        dup = PrimitiveDuplication(hi.config, hi.costs).run(trace)
        chopin = scheme.run(trace)
        assert 0.6 * dup.frame_cycles <= chopin.frame_cycles \
            <= 1.05 * dup.frame_cycles
        assert chopin.stats.total_triangles == dup.stats.total_triangles

    def test_update_interval_changes_assignment(self, trace):
        fine = make_setup("tiny", scheduler_update_interval=64)
        coarse = make_setup("tiny", scheduler_update_interval=65536)
        draws = trace.frame.draws[:120]
        fine_assign, _ = ChopinWithScheduler(
            fine.config, fine.costs)._assign_group(draws)
        coarse_assign, _ = ChopinWithScheduler(
            coarse.config, coarse.costs)._assign_group(draws)
        assert fine_assign != coarse_assign

    def test_retained_fraction_slows_chopin(self, trace):
        base = make_setup("tiny")
        hurt = make_setup("tiny", retained_cull_fraction=0.4)
        fast = ChopinWithScheduler(base.config, base.costs).run(trace)
        slow = ChopinWithScheduler(hurt.config, hurt.costs).run(trace)
        assert slow.frame_cycles > fast.frame_cycles
        assert slow.stats.total_fragments_shaded \
            > fast.stats.total_fragments_shaded
