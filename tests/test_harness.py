"""Experiment harness: setups, caching, experiments, report rendering."""

import pytest

from repro.errors import ConfigError
from repro.harness import (MAIN_SCHEMES, SCHEMES, build_scheme, compare,
                           make_setup, run_benchmark)
from repro.harness import experiments as E
from repro.harness import report as R
from repro.render import render_service

SUBSET = ("cod2",)


class TestSetup:
    def test_scales_table2_knobs(self):
        setup = make_setup("tiny", num_gpus=8)
        assert setup.config.tile_size == 16
        assert setup.config.composition_threshold == 64
        assert setup.config.primitive_id_bytes == 16
        assert setup.gpupd_batch == 32

    def test_paper_scale_identity(self):
        setup = make_setup("paper")
        assert setup.config.tile_size == 64
        assert setup.config.composition_threshold == 4096
        assert setup.costs.draw_issue_cost == 50.0

    def test_interval_scaling(self):
        setup = make_setup("tiny", scheduler_update_interval=1024)
        assert setup.config.scheduler_update_interval == 16
        minimal = make_setup("tiny", scheduler_update_interval=1)
        assert minimal.config.scheduler_update_interval == 1

    def test_link_overrides(self):
        setup = make_setup("tiny", bandwidth_gb_per_s=16.0,
                           latency_cycles=400)
        assert setup.config.link.bandwidth_gb_per_s == 16.0
        assert setup.config.link.latency_cycles == 400

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            build_scheme("nonsense", make_setup("tiny"))

    def test_registry_covers_paper_bars(self):
        assert set(MAIN_SCHEMES) <= set(SCHEMES)
        assert "duplication" in SCHEMES and "chopin-rr" in SCHEMES


class TestRunner:
    def test_run_cached(self):
        render_service().reset("result")
        setup = make_setup("tiny")
        first = run_benchmark("duplication", "cod2", setup)
        second = run_benchmark("duplication", "cod2", setup)
        assert first is second

    def test_different_configs_not_conflated(self):
        fast = run_benchmark("chopin+sched", "cod2", make_setup("tiny"))
        slow = run_benchmark(
            "chopin+sched", "cod2",
            make_setup("tiny", bandwidth_gb_per_s=1.0))
        assert slow.frame_cycles > fast.frame_cycles

    def test_compare_includes_baseline(self):
        speedups = compare("cod2", make_setup("tiny"),
                           schemes=("chopin+sched",))
        assert speedups["duplication"] == 1.0
        assert speedups["chopin+sched"] > 0


class TestExperiments:
    def test_table2(self):
        table = E.table2_config()
        assert table["Number of GPUs"] == "8"
        assert table["Inter-GPU bandwidth"] == "64 GB/s"

    def test_table3_rows(self):
        rows = E.table3_benchmarks()
        assert len(rows) == 8
        cod2 = next(r for r in rows if r["benchmark"] == "cod2")
        assert cod2["paper_triangles"] == 219_950

    def test_fig2_shares_grow(self):
        shares = E.fig2_geometry_share(benchmarks=SUBSET,
                                       gpu_counts=(1, 8))
        assert shares["cod2"][1] < shares["cod2"][8]

    def test_fig4_overheads_grow_with_gpus(self):
        overheads = E.fig4_gpupd_overheads(benchmarks=SUBSET,
                                           gpu_counts=(2, 8))
        assert overheads["cod2"][8]["distribution"] \
            > overheads["cod2"][2]["distribution"]

    def test_fig13_has_gmean_row(self):
        table = E.fig13_performance(benchmarks=SUBSET)
        assert "GMean" in table
        assert set(table["cod2"]) == set(MAIN_SCHEMES)

    def test_fig15_chopin_passes_more(self):
        table = E.fig15_depth_test(benchmarks=SUBSET)
        assert table["cod2"]["duplication"]["total"] == pytest.approx(1.0)
        assert table["cod2"]["chopin+sched"]["total"] >= 1.0

    def test_fig16_monotone_degradation(self):
        rows = E.fig16_culling_sensitivity(benchmark="cod2",
                                           retained=(0.0, 0.4))
        assert rows[0]["speedup"] > rows[1]["speedup"]
        assert rows[1]["extra_fragments"] > rows[0]["extra_fragments"]

    def test_fig17_reports_all_plus_average(self):
        traffic = E.fig17_traffic(benchmarks=SUBSET)
        assert traffic["cod2"] > 0
        assert "Avg" in traffic

    def test_fig22_coverage_shrinks_with_threshold(self):
        table = E.fig22_coverage(benchmarks=SUBSET,
                                 thresholds=(4096, 16384))
        assert table[16384]["triangle_coverage"] \
            <= table[4096]["triangle_coverage"]

    def test_sec6g_primitive_share_grows(self):
        rows = E.sec6g_workload_trend(benchmark="cod2",
                                      detail_factors=(1.0, 4.0))
        assert rows[1]["primitive_share"] > rows[0]["primitive_share"]

    def test_fig9_rows_and_correlation(self):
        rows = E.fig9_triangle_rate(benchmark="cod2")
        assert all(r["pipeline_rate"] >= r["geometry_rate"] for r in rows)
        assert E.fig9_correlation(benchmark="cod2") > 0.2


class TestReport:
    def test_render_table_alignment(self):
        text = R.render_table(["a", "bb"], [[1, 2.5], [10, 0.125]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_fig2(self):
        text = R.render_fig2({"cod2": {1: 0.25, 8: 0.6}})
        assert "25.0%" in text and "60.0%" in text

    def test_render_speedups(self):
        text = R.render_speedups({"cod2": {"chopin": 1.25}}, "Fig 13")
        assert "1.250" in text

    def test_render_fig16(self):
        text = R.render_fig16([{"retained_fraction": 0.1, "speedup": 1.2,
                                "extra_fragments": 0.07}])
        assert "10%" in text and "7.0%" in text

    def test_render_dict(self):
        text = R.render_dict({"k": 3}, "D")
        assert "k" in text and "3" in text

    def test_render_fig9_truncates(self):
        rows = [{"draw": i, "triangles": 3, "geometry_rate": 1.0,
                 "pipeline_rate": 2.0} for i in range(30)]
        text = R.render_fig9(rows, max_rows=5)
        assert "more draws" in text
