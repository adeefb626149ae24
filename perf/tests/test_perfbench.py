"""Tests of the benchmark itself: tracing, digests, workloads, compare.

Run with ``python3 -m pytest perf/tests``.
"""

import ast
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perf import compare, probe, trace, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def span(name, start, end, parent, op="0:x"):
    return [name, start, end, parent, op]


# -- self-time arithmetic ------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [span("op", 0.0, 10.0, -1),
             span("a", 1.0, 4.0, 0),
             span("b", 2.0, 3.0, 1),
             span("c", 5.0, 6.0, 0)]
    assert trace.self_times(spans) == [10.0 - 3.0 - 1.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [span("op", 0.0, 10.0, -1),
             span("a", 1.0, 4.0, 0),
             span("b", 3.0, 6.0, 0),
             span("c", 9.0, 12.0, 0)]   # runs past its parent's end
    assert trace.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_covered_merges_touching_and_disjoint_intervals():
    assert trace.covered([(0, 1), (1, 2), (4, 5), (4.5, 4.6)]) == 3.0
    assert trace.covered([]) == 0.0


def test_layer_metrics_report_per_op_self_time():
    tracer = trace.Tracer(clock=FakeClock())
    tracer.spans = [span("op", 0.0, 4.0, -1, "0:x"),
                    span("sim.run", 1.0, 3.0, 0, "0:x"),
                    span("op", 4.0, 6.0, -1, "1:x"),
                    span("sim.run", 4.0, 6.0, 2, "1:x"),
                    span("traces.synthesize", 0.0, 0.5, -1, trace.SETUP_OP)]
    tracer.op_counts = {"0:x": {"sim.events": 10}, "1:x": {"sim.events": 30}}
    metrics = trace.layer_metrics(tracer, ["0:x", "1:x"])
    assert metrics["sim.run_s"] == 2.0
    assert metrics["sim.events"] == 20.0
    assert metrics["sim.us_per_event"] == pytest.approx(1e6 * 4.0 / 40)
    assert metrics["traces.synthesize_s"] == 0.5
    assert metrics["trace.coverage"] == pytest.approx(1.0 - 2.0 / 6.0)


# -- wrappers ------------------------------------------------------------


def test_restore_puts_back_every_wrapped_attribute():
    tracer = trace.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    assert len(patched) > 30
    for owner, attr, original in patched:
        assert vars(owner)[attr] is not original
    tracer.restore()
    assert tracer._patches == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_every_declared_site_resolves():
    tracer = trace.Tracer()
    for sites in trace.TIMED_SITES.values():
        for site in sites:
            tracer.patch_site(site, lambda fn: fn)
    tracer.restore()
    assert list(trace._dynamic_timed_sites())


def test_missing_site_raises_and_leaves_nothing_patched(monkeypatch):
    from repro.sim.core import Simulator
    original = vars(Simulator)["run"]
    monkeypatch.setitem(trace.TIMED_SITES, "gone",
                        ["repro.sim.core:Simulator.no_such_method"])
    with pytest.raises(LookupError, match="no_such_method"):
        with trace.Tracer():
            pass
    assert vars(Simulator)["run"] is original


def test_op_counts_store_hits_and_misses():
    from repro.render.service import render_service
    store = render_service().store
    tracer = trace.Tracer(clock=FakeClock())
    tracer.op("0:x", lambda: (store.get("perf-test-absent"),
                              store.put("perf-test-present", 1),
                              store.get("perf-test-present")))
    counts = tracer.op_counts["0:x"]
    assert (counts["render.store_lookups"], counts["render.store_hits"]) \
        == (2.0, 1.0)
    store.reset("perf-test")


def test_classmethods_are_rewrapped_as_classmethods():
    from repro.stats import RunStats
    original = vars(RunStats)["from_dict"]
    with trace.Tracer() as tracer:
        assert isinstance(vars(RunStats)["from_dict"], classmethod)
        stats = RunStats.from_dict(RunStats(num_gpus=2).to_dict())
        assert stats.num_gpus == 2
        assert [s[0] for s in tracer.spans] == ["stats", "stats"]
    assert vars(RunStats)["from_dict"] is original


def test_generator_returning_call_is_counted_not_timed():
    tracer = trace.Tracer(clock=FakeClock())

    def body(n):
        yield from range(n)

    wrapped = tracer.counted("sim.processes", body)
    generator = wrapped(3)
    assert type(generator).__name__ == "generator"
    assert list(generator) == [0, 1, 2]
    assert tracer.counts["sim.processes"] == 1
    assert tracer.spans == []


def test_timed_generator_span_covers_its_exhaustion():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)

    def findings():
        for item in ("a", "b"):
            clock.now += 1.0
            yield item

    assert tracer.timed("analysis.x", findings)() == ["a", "b"]
    [(name, start, end, parent, op)] = tracer.spans
    assert (name, end - start, parent) == ("analysis.x", 2.0, -1)


def test_op_records_counter_growth_per_op():
    tracer = trace.Tracer(clock=FakeClock())
    step = tracer.counted("sim.events", lambda: None)
    step()
    tracer.op("0:x", lambda: [step() for _ in range(3)])
    assert tracer.op_counts == {"0:x": {"sim.events": 3.0}}
    assert [s[0] for s in tracer.spans] == [trace.OP_SPAN]


# -- host-speed probe ----------------------------------------------------


def test_probe_times_fixed_code_that_imports_nothing_of_ours():
    tree = ast.parse((ROOT / "perf" / "probe.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not {name for name in imported
                if name.split(".")[0] in ("repro", "perf")}
    assert 0 < probe.probe() < 100 * probe.REFERENCE_S


# -- digests and workloads ----------------------------------------------


def test_digest_is_stable_and_order_free():
    value = {"b": [1.0, 0.1 + 0.2], "a": {"y": 1, "x": None}}
    again = {"a": {"x": None, "y": 1}, "b": [1.0, 0.1 + 0.2]}
    assert workloads.digest(value) == workloads.digest(again)
    assert workloads.digest(value) != workloads.digest({"b": [1.0, 0.3]})


REDUCED = [
    lambda: workloads.FragCold(scale="tiny"),
    lambda: workloads.Soak64(num_gpus=8, frames=2),
    lambda: workloads.ServeOverload(duration_x=40.0),
    lambda: workloads.LintDeep(paths=[ROOT / "src" / "repro" / "sim"],
                               baseline=ROOT / "analysis-baseline.json"),
]


@pytest.mark.parametrize("make", REDUCED,
                         ids=["frag-cold", "soak64", "serve-overload",
                              "lint-deep"])
def test_reduced_workload_passes_its_checks(make):
    workload = make()
    workload.setup(0)
    kinds = workload.kinds()
    assert kinds and all(workload.items(kind) > 0 for kind in kinds)
    digests = {}
    for kind in kinds:
        digests[kind], problems = workload.run_op(kind)
        assert problems == []
    repeat, problems = workload.run_op(kinds[0])
    assert problems == [] and repeat == digests[kinds[0]]


def test_workload_names_match_the_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] \
        == list(workloads.WORKLOADS)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "lint-deep",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_crashing_child_is_not_read_from_a_stale_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise RuntimeError('broken')\n")
    out = tmp_path / "perf" / "out"
    out.mkdir()
    for name in workloads.WORKLOADS:
        stale = {"correct": True, "attempted": 1, "failed": 0,
                 "metrics": {}, "problems": []}
        (out / f"result-{name}.json").write_text(
            json.dumps({"workloads": {name: stale}}))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--seconds", "1"], cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is False
    assert summary["failed"] == len(workloads.WORKLOADS)


# -- compare -------------------------------------------------------------


def results(value, seed=0, bench="abc", seconds=20, traced=0):
    return {"fingerprint": {"benchmark_sha256": bench, "seed": seed},
            "seconds": seconds, "trace": traced,
            "end_to_end": [{"name": "items_per_ref_s", "unit": "1/s",
                            "better": "higher", "bound": 0.1}],
            "workloads": {"soak64": {"metrics": {"items_per_ref_s": value}}}}


@pytest.mark.parametrize("other", [results(1.0, seed=1),
                                   results(1.0, bench="def"),
                                   results(1.0, seconds=5),
                                   results(1.0, traced=1)],
                         ids=["seed", "benchmark", "seconds", "trace"])
def test_compare_refuses_mismatched_fingerprints(tmp_path, other, capsys):
    (tmp_path / "a.json").write_text(json.dumps(results(1.0)))
    (tmp_path / "b.json").write_text(json.dumps(other))
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "b.json")]) == 2
    assert "refusing" in capsys.readouterr().err


def test_compare_checks_each_metric_against_its_bound():
    rows = compare.compare(results(1.0), results(1.05))
    assert [row[5] for row in rows] == [True]
    rows = compare.compare(results(1.0), results(0.8))
    assert [row[5] for row in rows] == [False]
