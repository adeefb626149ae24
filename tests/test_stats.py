"""Statistics containers and aggregation helpers."""

import dataclasses

import pytest

from repro.stats import (ALL_STAGES, GPUStats, RunStats, STAGE_FRAGMENT,
                         STAGE_GEOMETRY, SUMMARY_GROUPS, TRAFFIC_COMPOSITION,
                         TRAFFIC_SYNC, gmean, normalize, speedup)


class TestGPUStats:
    def test_total_cycles(self):
        stats = GPUStats()
        stats.stage_cycles[STAGE_GEOMETRY] = 10
        stats.stage_cycles[STAGE_FRAGMENT] = 30
        assert stats.total_cycles == 40

    def test_fragments_passed_combines_early_and_late(self):
        stats = GPUStats()
        stats.fragments_passed_early_z = 7
        stats.fragments_passed_late = 3
        assert stats.fragments_passed == 10


class TestRunStats:
    def test_gpus_auto_created(self):
        stats = RunStats(num_gpus=3)
        assert len(stats.gpus) == 3

    def test_stage_totals_across_gpus(self):
        stats = RunStats(num_gpus=2)
        stats.add_cycles(0, STAGE_GEOMETRY, 10)
        stats.add_cycles(1, STAGE_GEOMETRY, 20)
        stats.add_cycles(1, STAGE_FRAGMENT, 70)
        totals = stats.stage_cycle_totals()
        assert totals[STAGE_GEOMETRY] == 30
        assert stats.stage_fraction(STAGE_GEOMETRY) == pytest.approx(0.3)

    def test_stage_fraction_empty_is_zero(self):
        assert RunStats(num_gpus=1).stage_fraction(STAGE_GEOMETRY) == 0.0

    def test_traffic_totals_by_category(self):
        stats = RunStats(num_gpus=2)
        stats.add_traffic(0, TRAFFIC_COMPOSITION, 100)
        stats.add_traffic(1, TRAFFIC_SYNC, 50)
        assert stats.traffic_total(TRAFFIC_COMPOSITION) == 100
        assert stats.traffic_total() == 150

    def test_all_stages_constant_covers_known_stages(self):
        assert STAGE_GEOMETRY in ALL_STAGES
        assert len(ALL_STAGES) == 6


def _declared_counters():
    return [spec for spec in dataclasses.fields(RunStats)
            if "journal" in spec.metadata]


def _non_default(spec):
    default = (spec.default_factory() if spec.default is dataclasses.MISSING
               else spec.default)
    if isinstance(default, bool):
        return not default
    if isinstance(default, list):
        return [1, 3]
    return 7.5 if isinstance(default, float) else 7


class TestCounterDeclarations:
    """Every declared counter reaches the journal and the CSV columns
    unless its declaration says otherwise."""

    def test_every_scalar_field_is_declared(self):
        undeclared = {spec.name for spec in dataclasses.fields(RunStats)
                      if "journal" not in spec.metadata}
        assert undeclared == {"num_gpus", "gpus", "draw_samples"}

    def test_every_counter_round_trips_unless_unjournaled(self):
        stats = RunStats(num_gpus=2)
        counters = _declared_counters()
        for spec in counters:
            setattr(stats, spec.name, _non_default(spec))
        clone = RunStats.from_dict(stats.to_dict())
        for spec in counters:
            if spec.metadata["journal"]:
                assert getattr(clone, spec.name) == _non_default(spec), \
                    spec.name
            else:
                assert spec.name not in stats.to_dict()
                assert getattr(clone, spec.name) != _non_default(spec), \
                    spec.name

    def test_journals_without_later_counters_load_their_defaults(self):
        snapshot = RunStats(num_gpus=2).to_dict()
        for spec in _declared_counters():
            if not spec.metadata["journal"]:
                continue
            old = dict(snapshot)
            del old[spec.name]
            if spec.metadata["required"]:
                with pytest.raises(KeyError):
                    RunStats.from_dict(old)
            else:
                assert RunStats.from_dict(old) == RunStats(num_gpus=2)

    def test_every_counter_is_a_column_unless_unexported(self):
        from repro.harness.export import COLUMNS
        for spec in _declared_counters():
            export = spec.metadata["export"]
            if export is True:
                assert spec.name in COLUMNS, spec.name
            elif export:
                # exported as a derived value under another column
                assert export in COLUMNS, export
                assert spec.name not in COLUMNS, spec.name

    def test_summaries_partition_the_counter_columns(self):
        from repro.harness.export import COLUMNS
        stats = RunStats(num_gpus=2)
        grouped = [column for group in SUMMARY_GROUPS
                   for column in stats.summary(group)]
        assert len(grouped) == len(set(grouped))
        assert tuple(grouped) == COLUMNS[-len(grouped):]
        assert all(isinstance(value, (int, float))
                   for group in SUMMARY_GROUPS
                   for value in stats.summary(group).values())


class TestAggregations:
    def test_speedup(self):
        base = RunStats(num_gpus=1)
        base.frame_cycles = 100
        cand = RunStats(num_gpus=1)
        cand.frame_cycles = 50
        assert speedup(base, cand) == 2.0

    def test_speedup_zero_candidate(self):
        base = RunStats(num_gpus=1)
        base.frame_cycles = 100
        cand = RunStats(num_gpus=1)
        with pytest.raises(ZeroDivisionError):
            speedup(base, cand)

    def test_gmean_known_value(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)

    def test_gmean_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            gmean([])
        with pytest.raises(ValueError):
            gmean([1.0, 0.0])

    def test_normalize(self):
        out = normalize({"a": 100.0, "b": 50.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}
