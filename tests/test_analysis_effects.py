"""The phase split: geometry artifacts are assignment-independent, and
the per-fragment path does not allocate.

CHOPIN composes sub-images correctly only because a draw's geometry
output does not depend on which GPU renders it. ``geometry_phase(draw,
camera, width, height)`` is stored through ``RenderService.memo``, so
its key is exactly its arguments; the runtime checks here show the
artifacts are bit-identical, and looked up as hits after the first
pass, across GPU counts and a fail-stop plan. Seeded mutations — a
geometry phase (or a helper it calls) reading ambient fault or
assignment state — must fail that check.

``hot-alloc`` is the one effect lint left: an allocation on the
per-fragment path is a cost no runtime check sees. Its fixtures pin the
hot-set and allocation rules, and its meta-test seeds a per-call
allocation into the session's parsed ``src/repro``.
"""

import dataclasses
import textwrap

import numpy as np
import pytest

from repro.analysis.flow import Project
from repro.analysis.hotalloc import (RULE_HOT_ALLOC, HotAllocChecker,
                                     HotAllocPass)
from repro.analysis.simlint import LintModule, check_project
from repro.faults import parse_fault_plan
from repro.harness import make_setup, run
from repro.render import RenderService
from repro.render import phases
from repro.render import service as service_module
from repro.render.phases import geometry_phase
from repro.sfr import Chopin
from repro.traces import load_benchmark


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


# ------------------------------------------------------------ phase purity

#: (num_gpus, fault plan) of every configuration the check renders
CONFIGS = ((1, None), (3, None), (8, None), (8, "fail=2@50000"))

#: ambient run state a seeded mutation may (wrongly) read
_AMBIENT = {}


def _setup(num_gpus, faults):
    plan = parse_fault_plan(faults) if faults else None
    return make_setup("tiny", num_gpus=num_gpus, faults=plan)


def _geometry_lookups(monkeypatch, service, render):
    """Call ``render()`` with ``service`` ambient; every geometry lookup
    it makes, as (key, artifact, hit)."""
    lookups = []
    get = service.store.get

    def spy(key):
        value, found = get(key)
        if key.startswith("geometry-"):
            lookups.append((key, value, found))
        return value, found

    monkeypatch.setattr(service.store, "get", spy)
    monkeypatch.setattr(service_module, "_SERVICE", service)
    render()
    computed = {key: service.store.get(key)[0] for key, _, hit in lookups
                if not hit}
    return [(key, value if hit else computed[key], hit)
            for key, value, hit in lookups]


def _frame(monkeypatch, service, trace, num_gpus, faults):
    setup = _setup(num_gpus, faults)
    return _geometry_lookups(
        monkeypatch, service,
        lambda: run("chopin", trace, setup, use_cache=False))


def _same_artifact(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def check_phase_independence(monkeypatch, trace):
    """Geometry artifacts do not depend on the GPU assignment.

    Each configuration renders on a fresh store, and every artifact must
    be bit-identical to the first one computed under its key. Then one
    shared store, warmed once with the trace's draws, must see only
    hits for them in every configuration. (A transparent group's draws
    split at chunk boundaries are different inputs — their triangles
    depend on the GPU count — so they key separately.)
    """
    first = {}
    for num_gpus, faults in CONFIGS:
        for key, artifact, _ in _frame(monkeypatch, RenderService(), trace,
                                       num_gpus, faults):
            assert _same_artifact(artifact, first.setdefault(key, artifact)), \
                f"geometry artifact differs with {num_gpus} GPUs, {faults}"
    shared = RenderService()
    warmed = {key for key, _, _ in _geometry_lookups(
        monkeypatch, shared,
        lambda: shared.prewarm(trace, _setup(1, None).config))}
    assert len(warmed) == len(trace.frame.draws)
    for num_gpus, faults in CONFIGS:
        lookups = _frame(monkeypatch, shared, trace, num_gpus, faults)
        assert all(hit for key, _, hit in lookups if key in warmed)


@pytest.fixture(scope="module")
def wolf():
    return load_benchmark("wolf", "tiny")


@pytest.fixture
def ambient_run(monkeypatch):
    """Publish each CHOPIN run's GPU count and fault plan where a seeded
    mutation can read them."""
    original = Chopin.run

    def publishing_run(self, trace):
        _AMBIENT.update(num_gpus=self.config.num_gpus,
                        faults=self.config.faults)
        return original(self, trace)

    monkeypatch.setattr(Chopin, "run", publishing_run)
    yield
    _AMBIENT.clear()


def _fault_aware_geometry(draw, camera, width, height):
    """A geometry phase that reads fault state (the seeded bug)."""
    artifact = geometry_phase(draw, camera, width, height)
    if _AMBIENT.get("faults") is not None:
        artifact.depth = artifact.depth + np.float32(1e-3)
    return artifact


_TO_SCREEN = phases.to_screen


def _assignment_aware_to_screen(ndc, width, height):
    """A geometry helper that reads the GPU count (the seeded bug)."""
    xy, depth = _TO_SCREEN(ndc, width, height)
    return xy + np.float32(_AMBIENT.get("num_gpus", 1) % 2), depth


class TestPhasePurity:
    def test_fault_read_in_geometry_phase(self, monkeypatch, wolf):
        # fault state cannot reach the key: a fail-stop run looks up the
        # very addresses a fault-free run does
        keys = []
        for faults in (None, "fail=2@50000"):
            lookups = _frame(monkeypatch, RenderService(), wolf, 8, faults)
            keys.append(sorted(key for key, _, _ in lookups))
        assert keys[0] == keys[1] and keys[0]

    def test_reaches_through_helpers(self, monkeypatch, wolf, ambient_run):
        monkeypatch.setattr(phases, "to_screen", _assignment_aware_to_screen)
        with pytest.raises(AssertionError, match="geometry artifact"):
            check_phase_independence(monkeypatch, wolf)

    def test_same_read_outside_phase_is_allowed(self, monkeypatch, wolf):
        # the fragment phase reads owner masks and fault repair reassigns
        # draws, yet the geometry artifacts stay identical and shared
        check_phase_independence(monkeypatch, wolf)


# --------------------------------------------------------------- hot-alloc


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


class TestEffectsMeta:
    def test_fault_read_in_geometry_phase_is_found(self, monkeypatch, wolf,
                                                   ambient_run):
        monkeypatch.setattr(service_module, "geometry_phase",
                            _fault_aware_geometry)
        with pytest.raises(AssertionError, match="geometry artifact"):
            check_phase_independence(monkeypatch, wolf)

    def test_hot_path_allocation_is_found(self, mutated_src):
        project = mutated_src("raster/rasterizer.py",
                              "_WINDING_SWAP, _WINDING_KEEP)",
                              "[0, 2, 1], _WINDING_KEEP)")
        findings = check_project(project, [HotAllocPass()])
        assert findings, "seeded per-call allocation not detected"
        assert findings[0].rule == RULE_HOT_ALLOC
        assert findings[0].path.endswith("rasterizer.py")
        assert findings[0].severity == "warning"
