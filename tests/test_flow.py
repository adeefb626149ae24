"""Deep analysis tests: flow engine, units checker, taint pass, baseline.

The meta-tests at the bottom are the teeth: they seed the session's
parsed ``src/repro`` with exactly the bug class each pass exists to
catch (a bytes-vs-cycles mix-up in ``CostModel``, a set-iteration order
leak into event scheduling) and require that pass to find it — while
the unmutated tree stays at zero findings.
"""

import json
import pathlib
import textwrap

import pytest

from repro.analysis import (filter_baselined, lint_project, lint_paths,
                            load_baseline, save_baseline)
from repro.analysis.flow import Project, module_name_for
from repro.analysis.simlint import Finding, LintModule, check_project
from repro.analysis.taint import TaintChecker, TaintPass
from repro.analysis.units import (ANY, UNKNOWN, UnitChecker, UnitsPass,
                                  format_unit, mul_units, parse_unit,
                                  unit_from_name)
from repro.cli import main

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def project_of(*named_sources):
    """Project from ``(module_name, source)`` pairs."""
    return Project.from_modules(
        (name, False, LintModule(f"{name}.py", textwrap.dedent(src)))
        for name, src in named_sources)


def unit_findings(*named_sources):
    return UnitChecker(project_of(*named_sources)).run()


def taint_findings(*named_sources):
    return TaintChecker(project_of(*named_sources)).run()


# ------------------------------------------------------------- flow engine


class TestFlowEngine:
    def test_module_name_walks_packages(self):
        name, is_package = module_name_for(REPO_SRC / "timing" / "costs.py")
        assert name == "repro.timing.costs"
        assert not is_package
        name, is_package = module_name_for(REPO_SRC / "sim" / "__init__.py")
        assert name == "repro.sim"
        assert is_package

    def test_indexes_src_repro(self, src_project):
        project = src_project
        assert "repro.timing.costs" in project.modules
        assert "repro.timing.costs.CostModel" in project.classes
        assert ("repro.timing.costs.CostModel.dram_bytes_per_cycle"
                in project.functions)

    def test_resolves_reexports(self, src_project):
        project = src_project
        # `from ..sim import Simulator` chases through sim/__init__.py
        cls = project.lookup_class("repro.sim.Simulator")
        assert cls is not None
        assert cls.qualname == "repro.sim.core.Simulator"

    def test_attr_chain_typing(self, src_project):
        project = src_project
        cost_model = project.classes["repro.timing.costs.CostModel"]
        gpu = project.attr_class(cost_model, "gpu")
        assert gpu is not None
        assert gpu.qualname == "repro.config.GPUConfig"

    def test_call_graph_has_interprocedural_edge(self, src_project):
        project = src_project
        graph = project.call_graph()
        base = "repro.timing.costs.CostModel"
        assert f"{base}.dram_bytes_per_cycle" \
            in graph[f"{base}.fragment_memory_cycles"]


# ----------------------------------------------------------- unit algebra


class TestUnitAlgebra:
    def test_parse_and_format(self):
        assert format_unit(parse_unit("bytes/cycle")) == "byte/cycle"
        assert format_unit(parse_unit("cycles*bytes")) == "byte*cycle"
        assert parse_unit("hertz") == parse_unit("cycles/s")
        assert parse_unit("1") == ()

    def test_mul_div_combine(self):
        bandwidth = parse_unit("bytes/s")
        clock = parse_unit("hertz")
        assert mul_units(bandwidth, clock, invert_b=True) \
            == parse_unit("bytes/cycle")

    def test_scalars_are_transparent(self):
        cycles = parse_unit("cycles")
        assert mul_units(cycles, ANY) == cycles
        assert mul_units(ANY, cycles) == cycles
        assert mul_units(ANY, ANY) is ANY
        # a constant divided by a unit inverts it
        assert mul_units(ANY, cycles, invert_b=True) \
            == parse_unit("1/cycle")

    def test_name_conventions(self):
        assert unit_from_name("frame_cycles") == parse_unit("cycles")
        assert unit_from_name("dram_bandwidth_bytes_per_s") \
            == parse_unit("bytes/s")
        assert unit_from_name("pixel_bytes") == parse_unit("bytes/pixel")
        assert unit_from_name("whatever") is UNKNOWN


class TestUnitChecker:
    def test_flags_add_of_mismatched_units(self):
        findings = unit_findings(("m", """\
            def total(num_bytes, latency_cycles):
                return num_bytes + latency_cycles
        """))
        assert [f.rule for f in findings] == ["unit-mismatch"]
        assert "byte" in findings[0].message
        assert "cycle" in findings[0].message

    def test_mul_div_is_fine_and_tracked(self):
        assert unit_findings(("m", """\
            def occupancy_cycles(num_bytes, link_bytes_per_cycle):
                return num_bytes / link_bytes_per_cycle
        """)) == []

    def test_flags_inverted_division_via_declared_return(self):
        findings = unit_findings(("m", """\
            def transfer_bytes_per_cycle(link_bytes_per_s, frequency_hz):
                return link_bytes_per_s * frequency_hz
        """))
        assert [f.rule for f in findings] == ["unit-return"]

    def test_interprocedural_return_units(self):
        findings = unit_findings(("m", """\
            def rate(num_bytes, num_cycles):
                return num_bytes / num_cycles

            def wrong(num_bytes, num_cycles):
                return num_bytes + rate(num_bytes, num_cycles)
        """))
        assert [f.rule for f in findings] == ["unit-mismatch"]
        assert findings[0].line == 5

    def test_checks_argument_units(self):
        findings = unit_findings(("m", """\
            def send(num_bytes):
                return num_bytes

            def caller(frame_cycles):
                return send(frame_cycles)
        """))
        assert [f.rule for f in findings] == ["unit-arg"]

    def test_unit_comment_casts(self):
        assert unit_findings(("m", """\
            def budget(num_draws):
                total = 2 * num_draws  # unit: triangles
                return total + count_triangles()

            def count_triangles():
                return 7
        """)) == []

    def test_unknown_units_stay_silent(self):
        assert unit_findings(("m", """\
            def blend(alpha, beta):
                return alpha + beta
        """)) == []

    def test_max_requires_matching_units(self):
        findings = unit_findings(("m", """\
            def roofline(num_bytes, num_cycles):
                return max(num_bytes, num_cycles)
        """))
        assert [f.rule for f in findings] == ["unit-mismatch"]

    def test_suppression_marker_applies(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text(textwrap.dedent("""\
            def total(num_bytes, num_cycles):
                return num_bytes + num_cycles  # simlint: disable=unit-mismatch
        """))
        assert lint_project([src]) == []
        # without the marker the same code is flagged
        src.write_text(src.read_text().split("#")[0] + "\n")
        assert [f.rule for f in lint_project([src])] == ["unit-mismatch"]


# -------------------------------------------------------------- taint pass


class TestTaintChecker:
    def test_cross_function_set_order_into_scheduling(self):
        findings = taint_findings(("m", """\
            def pending_order(seen):
                ready = set(seen)
                return list(ready)

            def schedule_all(sim, seen):
                for delay in pending_order(seen):
                    yield sim.timeout(delay)
        """))
        assert [f.rule for f in findings] == ["nondet-taint"]
        assert "set iteration order" in findings[0].message
        assert "sim.timeout" in findings[0].message

    def test_id_into_fingerprint(self):
        findings = taint_findings(("m", """\
            def key_of(trace):
                return id(trace)

            def job_for(trace):
                return JobSpec(key_of(trace))
        """))
        assert [f.rule for f in findings] == ["nondet-taint"]
        assert "id()" in findings[0].message

    def test_listdir_into_rng_seed(self):
        findings = taint_findings(("m", """\
            import os
            import random

            def seeded(path):
                names = os.listdir(path)
                return random.Random(names[0])
        """))
        assert len(findings) == 1
        assert "filesystem listing order" in findings[0].message

    def test_sorted_sanitizes(self):
        assert taint_findings(("m", """\
            def schedule_all(sim, seen):
                for delay in sorted(set(seen)):
                    yield sim.timeout(delay)
        """)) == []

    def test_set_typed_attribute_iteration(self):
        findings = taint_findings(("m", """\
            from typing import Set

            class Pool:
                pending: Set[int]

                def drain(self, sim):
                    for item in self.pending:
                        yield sim.timeout(item)
        """))
        assert [f.rule for f in findings] == ["nondet-taint"]

    def test_set_order_into_store_key(self):
        # the artifact store's content addresses must never depend on
        # iteration order (see repro.render.store.store_key)
        findings = taint_findings(("m", """\
            def draw_tags(draws):
                tags = set(draws)
                return list(tags)

            def address(draws):
                return store_key("geometry", {"draws": draw_tags(draws)})
        """))
        assert [f.rule for f in findings] == ["nondet-taint"]
        assert "store key" in findings[0].message
        assert "set iteration order" in findings[0].message

    def test_hash_into_store_key(self):
        findings = taint_findings(("m", """\
            def address(draw):
                return store_key("geometry", {"draw": hash(draw)})
        """))
        assert [f.rule for f in findings] == ["nondet-taint"]
        assert "store key" in findings[0].message

    def test_sorted_fields_into_store_key_are_clean(self):
        # the real store's idiom: deterministic fields, sorted iteration
        assert taint_findings(("m", """\
            def address(draws):
                tags = sorted(set(draws))
                return store_key("geometry", {"draws": tags})
        """)) == []

    def test_id_as_cache_key_is_not_a_sink(self):
        # the id(trace) memo-key idiom used by the harness stays legal
        assert taint_findings(("m", """\
            def lookup(cache, trace):
                return cache.get(id(trace))
        """)) == []


# ---------------------------------------------------------------- baseline


class TestBaseline:
    def make(self, path, rule="unit-mismatch", message="msg", line=3):
        return Finding(path=path, line=line, col=0, rule=rule,
                       message=message)

    def test_roundtrip_and_line_drift(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        finding = self.make("src/x.py", line=3)
        assert save_baseline(baseline_file, [finding]) == 1
        keys = load_baseline(baseline_file)
        drifted = self.make("src/x.py", line=99)
        new, suppressed = filter_baselined([drifted], keys)
        assert new == [] and suppressed == 1
        other = self.make("src/x.py", message="different")
        new, suppressed = filter_baselined([other], keys)
        assert new == [other] and suppressed == 0

    def test_malformed_baseline_is_config_error(self, tmp_path):
        from repro.errors import ConfigError
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_baseline(bad)
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ConfigError):
            load_baseline(bad)


# ----------------------------------------------- meta: src/repro must pass


class TestDeepLintMeta:
    def test_src_repro_is_deep_clean(self):
        findings = lint_paths([REPO_SRC], deep=True)
        assert findings == []

    def test_units_catch_seeded_bytes_vs_cycles_mutation(self, mutated_src):
        project = mutated_src(
            "timing/costs.py",
            "return miss_bytes / self.dram_bytes_per_cycle()",
            "return miss_bytes + self.dram_bytes_per_cycle()")
        findings = check_project(project, [UnitsPass()])
        assert any(f.rule == "unit-mismatch"
                   and "costs.py" in f.path for f in findings)

    def test_units_catch_seeded_inverted_division(self, mutated_src):
        project = mutated_src("timing/costs.py", "/ self.gpu.frequency_hz",
                              "* self.gpu.frequency_hz")
        findings = check_project(project, [UnitsPass()])
        assert any(f.rule == "unit-return" and "costs.py" in f.path
                   for f in findings)

    def test_taint_catches_seeded_set_leak_into_scheduling(self,
                                                          mutated_src):
        project = mutated_src("sfr/chopin.py", None, textwrap.dedent("""\


            def _pending_order(pending):
                ready = set(pending)
                return list(ready)


            def _leak_schedule(sim, pending):
                for delay in _pending_order(pending):
                    yield sim.timeout(delay)
        """))
        taint = check_project(project, [TaintPass()])
        assert any("chopin.py" in f.path
                   and "set iteration order" in f.message for f in taint)


# -------------------------------------------------------------- deep CLI


class TestDeepCLI:
    def _leaky_tree(self, tmp_path):
        src = tmp_path / "proj"
        src.mkdir()
        (src / "leak.py").write_text(textwrap.dedent("""\
            def order(seen):
                return list(set(seen))

            def schedule(sim, seen):
                for delay in order(seen):
                    yield sim.timeout(delay)
        """))
        return src

    def test_deep_flag_finds_cross_function_leak(self, tmp_path, capsys):
        src = self._leaky_tree(tmp_path)
        assert main(["lint", str(src)]) == 1  # unordered-iter on list(set)
        capsys.readouterr()
        assert main(["lint", "--deep", str(src)]) == 1
        out = capsys.readouterr().out
        assert "nondet-taint" in out

    def test_fail_on_error_ignores_warnings(self, tmp_path, capsys):
        src = tmp_path / "warn.py"
        # mutable-default and broad-except are warnings
        src.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", str(src)]) == 1
        capsys.readouterr()
        assert main(["lint", "--fail-on", "error", str(src)]) == 0
        capsys.readouterr()
        assert main(["lint", "--fail-on", "never", str(src)]) == 0

    def test_baseline_workflow(self, tmp_path, capsys):
        src = self._leaky_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--deep", "--update-baseline", str(baseline),
                     str(src)]) == 0
        capsys.readouterr()
        assert main(["lint", "--deep", "--baseline", str(baseline),
                     str(src)]) == 0
        out = capsys.readouterr().out
        assert "suppressed" in out
        # a new finding is not covered by the old baseline
        (src / "extra.py").write_text(
            "import random\nx = random.random()\n")
        assert main(["lint", "--deep", "--baseline", str(baseline),
                     str(src)]) == 1
        out = capsys.readouterr().out
        assert "unseeded-rng" in out

    def test_json_output_carries_severity(self, tmp_path, capsys):
        src = tmp_path / "warn.py"
        src.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", "--format", "json", str(src)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["severity"] == "warning"
