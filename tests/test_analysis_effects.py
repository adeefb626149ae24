"""Effect/purity inference tests: fixtures per rule + seeded mutations.

The fixture tests pin down the summary lattice (vocabulary
classification, parameter/receiver mutation, interprocedural folding,
``# effect:`` declarations) and the two derived checks built on it —
``phase-impure`` and ``hot-alloc``. The meta-tests at the bottom copy
``src/repro`` and seed it with exactly the bug classes the pass exists
to catch: a fault-state read inside the geometry phase, a stale
``# effect: pure`` annotation, and a re-introduced per-call allocation
on the rasterizer hot path. The unmutated tree stays clean
(test_flow.py pins that invariant).
"""

import pathlib
import shutil
import textwrap

from repro.analysis import lint_paths
from repro.analysis.effects import (RULE_HOT_ALLOC, RULE_PHASE,
                                    RULE_UNDECLARED, EffectChecker,
                                    HotAllocChecker, display_tags)
from repro.analysis.flow import Project
from repro.analysis.simlint import LintModule

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def project_of(*mods):
    """Build a Project from (name, src) or (name, path, src) tuples."""
    entries = []
    for mod in mods:
        if len(mod) == 2:
            name, src = mod
            path = f"{name}.py"
        else:
            name, path, src = mod
        entries.append((name, False, LintModule(path, textwrap.dedent(src))))
    return Project.from_modules(entries)


def summary_of(source, qualname="fixture.fn"):
    project = project_of(("fixture", source))
    return EffectChecker(project).summary(project.functions[qualname])


def effect_findings(source):
    return EffectChecker(project_of(("fixture", source))).run()


def rules_of(findings):
    return {finding.rule for finding in findings}


# --------------------------------------------------------- summary lattice


class TestEffectSummaries:
    def test_pure_function(self):
        summary = summary_of("""
            def fn(a, b):
                return a + b
        """)
        assert display_tags(summary) == frozenset()
        assert summary.complete

    def test_config_read_classified_by_vocabulary(self):
        summary = summary_of("""
            def fn(config, x):
                return x * config.scale
        """)
        assert display_tags(summary) == {"reads-config"}
        assert "config" in summary.param_reads

    def test_assignment_and_fault_vocabulary(self):
        summary = summary_of("""
            def fn(state, i):
                if state.failed_gpus:
                    return 0
                return state.owner_map[i]
        """)
        assert display_tags(summary) == {"reads-assignment",
                                         "reads-fault-state"}

    def test_live_sim_state_read(self):
        summary = summary_of("""
            def fn(sim):
                return sim.time
        """)
        assert "reads-live-sim-state" in display_tags(summary)

    def test_parameter_mutation(self):
        summary = summary_of("""
            def fn(metrics, n):
                metrics.count += n
        """)
        assert summary.mutates_params == {"metrics"}
        assert display_tags(summary) == {"mutates-args"}

    def test_receiver_mutation_is_shared(self):
        summary = summary_of("""
            class Tracker:
                def fn(self, x):
                    self.seen = x
        """, qualname="fixture.Tracker.fn")
        assert "self" in summary.mutates_params
        assert display_tags(summary) == {"mutates-shared"}

    def test_init_self_stores_exempt(self):
        summary = summary_of("""
            class Tracker:
                def __init__(self, x):
                    self.seen = x
        """, qualname="fixture.Tracker.__init__")
        assert summary.mutates_params == frozenset()

    def test_mutator_method_on_parameter(self):
        summary = summary_of("""
            def fn(out, item):
                out.append(item)
        """)
        assert summary.mutates_params == {"out"}

    def test_io_builtin(self):
        summary = summary_of("""
            def fn(x):
                print(x)
        """)
        assert "io" in display_tags(summary)

    def test_effects_fold_through_calls(self):
        summary = summary_of("""
            def helper(cfg):
                return cfg.scale

            def fn(config):
                return helper(config)
        """)
        assert "reads-config" in display_tags(summary)
        assert "config" in summary.param_reads

    def test_trusted_external_stays_complete(self):
        summary = summary_of("""
            import math

            def fn(x):
                return math.sqrt(x)
        """)
        assert summary.complete
        assert display_tags(summary) == frozenset()

    def test_unresolved_call_marks_incomplete(self):
        summary = summary_of("""
            def fn(x):
                return mystery(x)
        """)
        assert not summary.complete


# ------------------------------------------------------ effect-undeclared


class TestEffectDeclarations:
    def test_accurate_declaration_is_clean(self):
        findings = effect_findings("""
            def fn(cfg):  # effect: reads-config
                return cfg.scale
        """)
        assert findings == []

    def test_stale_pure_declaration_flagged(self):
        findings = effect_findings("""
            def fn(cfg):  # effect: pure
                return cfg.scale
        """)
        assert rules_of(findings) == {RULE_UNDECLARED}
        assert "reads-config" in findings[0].message

    def test_unknown_tag_flagged(self):
        findings = effect_findings("""
            def fn(x):  # effect: reads-stuff
                return x
        """)
        assert rules_of(findings) == {RULE_UNDECLARED}
        assert "unknown effect tag" in findings[0].message

    def test_declaration_trusted_by_callers(self):
        # the caller sees the declared (empty) effect set, while the
        # declaring function itself is flagged against its inferred one
        source = """
            def helper(state):  # effect: pure
                return state.owner_map

            def fn(state):
                return helper(state)
        """
        project = project_of(("fixture", textwrap.dedent(source)))
        checker = EffectChecker(project)
        findings = checker.run()
        outer = checker.summary(project.functions["fixture.fn"])
        assert "reads-assignment" not in display_tags(outer)
        assert rules_of(findings) == {RULE_UNDECLARED}
        assert findings[0].line == 2  # helper's def line


# ----------------------------------------------------------- phase-impure


class TestPhasePurity:
    def test_fault_read_in_geometry_phase(self):
        findings = effect_findings("""
            def geometry_phase(draw):
                if draw.fault_plan:
                    return None
                return draw.vertices
        """)
        phase = [f for f in findings if f.rule == RULE_PHASE]
        assert len(phase) == 1
        assert "fault state" in phase[0].message
        assert phase[0].line == 3  # the offending read, not the def

    def test_reaches_through_helpers(self):
        findings = effect_findings("""
            def helper(state):
                return state.owner_map

            def geometry_phase(state):
                return helper(state)
        """)
        phase = [f for f in findings if f.rule == RULE_PHASE]
        assert len(phase) == 1
        assert "helper()" in phase[0].message
        assert "GPU-assignment" in phase[0].message

    def test_same_read_outside_phase_is_allowed(self):
        findings = effect_findings("""
            def composition_step(state):
                return state.owner_map
        """)
        assert [f for f in findings if f.rule == RULE_PHASE] == []

    def test_stale_pure_annotation_does_not_hide_it(self):
        findings = effect_findings("""
            def geometry_phase(draw):  # effect: pure
                return draw.fault_plan
        """)
        assert RULE_PHASE in rules_of(findings)
        assert RULE_UNDECLARED in rules_of(findings)

    def test_per_line_suppression_via_deep_lint(self, tmp_path):
        target = tmp_path / "phases.py"
        target.write_text(textwrap.dedent("""
            def geometry_phase(draw):
                probe = draw.fault_plan  # simlint: disable=phase-impure
                return probe
        """))
        findings = lint_paths([target], deep=True)
        assert [f for f in findings if f.rule == RULE_PHASE] == []


# -------------------------------------------------------------- hot-alloc


class TestHotAlloc:
    def hot_findings(self, source, path="raster/kernels.py",
                     name="kernels", extra=()):
        project = project_of((name, path, source), *extra)
        return [f for f in HotAllocChecker(project).run()
                if f.rule == RULE_HOT_ALLOC]

    def test_constant_list_in_fragment_phase(self):
        findings = self.hot_findings("""
            def fragment_phase(frags):
                swap = [0, 2, 1]
                return frags, swap
        """)
        assert len(findings) == 1
        assert "list literal" in findings[0].message

    def test_reachable_helper_is_hot(self):
        findings = self.hot_findings("""
            def helper(frags):
                lut = {0: 1}
                return lut

            def fragment_phase(frags):
                return helper(frags)
        """)
        assert len(findings) == 1
        assert "dict literal" in findings[0].message

    def test_nonconstant_list_outside_loop_allowed(self):
        findings = self.hot_findings("""
            def fragment_phase(frags):
                pair = [frags.a, frags.b]
                return pair
        """)
        assert findings == []

    def test_nonconstant_list_inside_loop_flagged(self):
        findings = self.hot_findings("""
            def fragment_phase(frags):
                out = None
                for frag in frags:
                    out = [frag.r, frag.g]
                return out
        """)
        assert len(findings) == 1
        assert "inside a loop body" in findings[0].message

    def test_comprehension_only_flagged_in_loop(self):
        clean = self.hot_findings("""
            def fragment_phase(frags):
                return [f.depth for f in frags]
        """)
        assert clean == []
        looped = self.hot_findings("""
            def fragment_phase(frags):
                total = 0
                for tile in frags:
                    total += sum(f.depth for f in tile)
                return total
        """)
        assert len(looped) == 1
        assert "comprehension" in looped[0].message

    def test_constant_numpy_constructor(self):
        findings = self.hot_findings("""
            import numpy as np

            def fragment_phase(frags):
                z = np.zeros(4)
                return frags + z
        """)
        assert len(findings) == 1
        assert "np.zeros" in findings[0].message

    def test_data_dependent_numpy_constructor_allowed(self):
        findings = self.hot_findings("""
            import numpy as np

            def fragment_phase(frags, n):
                return np.zeros(n)
        """)
        assert findings == []

    def test_loop_called_scope_function_is_hot(self):
        findings = self.hot_findings("""
            def make_swap():
                return [0, 2, 1]
        """, extra=[("driver", """
            from kernels import make_swap

            def run(draws):
                for draw in draws:
                    make_swap()
        """)])
        assert len(findings) == 1
        assert "called per-iteration from run()" in findings[0].message

    def test_cold_module_not_scanned(self):
        project = project_of(("util", "util.py", """
            def fragment_phase(frags):
                return [0, 2, 1]
        """))
        # the function is named fragment_phase but lives outside the
        # raster/shading tier, so the allocation lint does not apply
        assert HotAllocChecker(project).run() == []


# ------------------------------------------------------ seeded mutations


def _copy_src_repro(tmp_path):
    tree = tmp_path / "repro"
    shutil.copytree(REPO_SRC, tree)
    return tree


def _mutate(tree, relative, old, new):
    target = tree / relative
    source = target.read_text()
    mutated = source.replace(old, new)
    assert mutated != source, f"mutation anchor vanished from {relative}"
    target.write_text(mutated)


class TestEffectsMeta:
    def test_fault_read_in_geometry_phase_is_found(self, tmp_path):
        tree = _copy_src_repro(tmp_path)
        _mutate(tree, "render/phases.py",
                "    if draw.num_triangles == 0:",
                "    _probe = draw.fault_plan\n"
                "    if draw.num_triangles == 0:")
        findings = [f for f in lint_paths([tree], deep=True)
                    if f.rule == RULE_PHASE]
        assert findings, "seeded fault-state read not detected"
        assert all(f.path.endswith("phases.py") for f in findings)
        assert any("fault" in f.message for f in findings)

    def test_stale_pure_annotation_is_found(self, tmp_path):
        tree = _copy_src_repro(tmp_path)
        _mutate(tree, "render/phases.py",
                "def fragment_phase(artifact: DrawArtifact, "
                "draw: DrawCommand,",
                "def fragment_phase(artifact: DrawArtifact,  # effect: pure\n"
                "                   draw: DrawCommand,")
        findings = [f for f in lint_paths([tree], deep=True)
                    if f.rule == RULE_UNDECLARED]
        assert findings, "seeded stale annotation not detected"
        assert any("fragment_phase()" in f.message for f in findings)

    def test_hot_path_allocation_is_found(self, tmp_path):
        tree = _copy_src_repro(tmp_path)
        _mutate(tree, "raster/rasterizer.py",
                "_WINDING_SWAP, _WINDING_KEEP)",
                "[0, 2, 1], _WINDING_KEEP)")
        findings = [f for f in lint_paths([tree], deep=True)
                    if f.rule == RULE_HOT_ALLOC]
        assert findings, "seeded per-call allocation not detected"
        assert findings[0].path.endswith("rasterizer.py")
        assert findings[0].severity == "warning"
