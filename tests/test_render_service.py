"""The render phase split: RenderService, artifact store, cold/warm parity.

The refactor's core contract: rendering through cached phase artifacts
(geometry, reference pass, CHOPIN prep) — whether warm in memory or
reloaded from disk spill — must be *bit-identical* to a fully cold run,
with identical timing statistics. Anything less and the artifact store
would silently change results depending on sweep order.
"""

import pathlib
import warnings

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.harness.engine import Engine, benchmark_job
from repro.harness.runner import make_setup, run
from repro.render import ArtifactStore, render_service, store_key
from repro.traces import load_benchmark


def _assert_results_match(a, b):
    assert np.array_equal(a.image.color, b.image.color)
    assert np.array_equal(a.image.depth, b.image.depth)
    assert a.frame_cycles == b.frame_cycles
    assert a.stats.total_triangles == b.stats.total_triangles
    assert a.stats.total_fragments_shaded == b.stats.total_fragments_shaded
    assert a.stats.total_fragments_passed == b.stats.total_fragments_passed
    assert a.stats.stage_cycle_totals() == b.stats.stage_cycle_totals()
    assert a.stats.traffic_total() == b.stats.traffic_total()


class TestStoreKey:
    def test_field_order_independent(self):
        a = store_key("geometry", {"draw": "abc", "width": 64, "height": 64})
        b = store_key("geometry", {"height": 64, "width": 64, "draw": "abc"})
        assert a == b

    def test_kind_namespaces_the_key(self):
        fields = {"trace": "t", "num_gpus": 4}
        assert store_key("reference", fields) != store_key("result", fields)
        assert store_key("reference", fields).startswith("reference-")

    def test_value_changes_the_key(self):
        assert store_key("geometry", {"draw": "a"}) \
            != store_key("geometry", {"draw": "b"})

    def test_non_json_fields_rejected(self):
        with pytest.raises(ConfigError):
            store_key("geometry", {"draw": object()})


class TestStoreLRU:
    def test_entry_cap_evicts_lru(self):
        store = ArtifactStore(max_entries=3)
        for i in range(5):
            store.put(f"k-{i}", np.zeros(4))
        assert len(store) == 3
        assert store.counters.evictions == 2
        assert "k-0" not in store and "k-1" not in store
        assert "k-4" in store

    def test_byte_budget_evicts(self):
        store = ArtifactStore(max_entries=100, max_bytes=3000)
        for i in range(4):
            store.put(f"k-{i}", np.zeros(256, dtype=np.float64))  # 2048 B
        assert store.current_bytes <= 3000 or len(store) == 1
        assert store.counters.evictions >= 3

    def test_get_promotes_recency(self):
        store = ArtifactStore(max_entries=2)
        store.put("a", np.zeros(1))
        store.put("b", np.zeros(1))
        store.get("a")  # now b is LRU
        store.put("c", np.zeros(1))
        assert "a" in store and "c" in store and "b" not in store

    def test_counters_track_hits_and_misses(self):
        store = ArtifactStore()
        assert store.get("missing") == (None, False)
        store.put("k", 1)
        value, found = store.get("k")
        assert found and value == 1
        assert store.counters.hits == 1
        assert store.counters.misses == 1
        assert store.counters.hit_rate == 0.5


#: (benchmark, scheme) cells the cold/warm parity must hold on: besides
#: geometry, gpupd also reuses its projection artifact and chopin+sched its
#: functional prep; wolf is the smallest trace, cod2 a larger one
PARITY_CELLS = [(bench, scheme) for bench in ("wolf", "cod2")
                for scheme in ("duplication", "gpupd", "chopin+sched")]


class TestColdWarmParity:
    def test_warm_run_bit_identical(self, fresh_service):
        setup = make_setup("tiny", num_gpus=4)
        for bench, scheme in PARITY_CELLS:
            fresh_service.reset()
            trace = load_benchmark(bench, "tiny")
            cold = run(scheme, trace, setup, use_cache=False)
            cold_misses = fresh_service.counters().misses
            # stamped on the result
            assert cold.stats.artifact_misses > 0, (bench, scheme)
            warm = run(scheme, trace, setup, use_cache=False)
            _assert_results_match(cold, warm)
            assert warm.stats.artifact_hits > 0, (bench, scheme)
            # the warm pass recomputed no phase artifacts
            assert fresh_service.counters().misses == cold_misses, \
                (bench, scheme)

    def test_disk_spill_reload_bit_identical(self, fresh_service, tmp_path):
        fresh_service.store.attach_disk(str(tmp_path / "store"))
        setup = make_setup("tiny", num_gpus=4)
        for bench, scheme in PARITY_CELLS:
            fresh_service.reset()  # both tiers: this cell starts cold
            trace = load_benchmark(bench, "tiny")
            before = fresh_service.counters()
            cold = run(scheme, trace, setup, use_cache=False)
            assert fresh_service.counters().delta(before).disk_writes > 0, \
                (bench, scheme)
            # flush memory: the reload must reconstruct artifacts from
            # pickles
            fresh_service.store.drop_memory()
            before = fresh_service.counters()
            reloaded = run(scheme, trace, setup, use_cache=False)
            _assert_results_match(cold, reloaded)
            assert fresh_service.counters().delta(before).disk_loads > 0, \
                (bench, scheme)
            assert reloaded.stats.artifact_disk_loads > 0, (bench, scheme)

    def test_reset_forces_recompute(self, fresh_service):
        setup = make_setup("tiny", num_gpus=4)
        trace = load_benchmark("wolf", "tiny")
        cold = run("duplication", trace, setup, use_cache=False)
        fresh_service.reset()
        assert len(fresh_service.store) == 0
        again = run("duplication", trace, setup, use_cache=False)
        _assert_results_match(cold, again)
        assert again.stats.artifact_misses > 0  # genuinely recomputed

    def test_result_namespace_returns_same_object(self, fresh_service):
        setup = make_setup("tiny", num_gpus=4)
        trace = load_benchmark("wolf", "tiny")
        first = run("duplication", trace, setup)
        second = run("duplication", trace, setup)
        assert second is first  # result-level hit


class TestFingerprints:
    def test_trace_fingerprint_is_content_addressed(self):
        from repro.traces import TraceSpec, synthesize
        spec = TraceSpec(name="fp", width=64, height=64, num_draws=8,
                         num_triangles=200, seed=3)
        assert synthesize(spec).fingerprint == synthesize(spec).fingerprint
        other = TraceSpec(name="fp", width=64, height=64, num_draws=8,
                          num_triangles=200, seed=4)
        assert synthesize(spec).fingerprint != synthesize(other).fingerprint

    def test_draw_fingerprint_ignores_draw_id(self):
        from dataclasses import replace
        trace = load_benchmark("wolf", "tiny")
        draw = trace.frame.draws[0]
        renumbered = replace(draw, draw_id=9999)
        assert renumbered.fingerprint == draw.fingerprint
        assert trace.frame.draws[1].fingerprint != draw.fingerprint


class TestFaultPathShared:
    def test_artifacts_survive_fail_stop_reassignment(self, fresh_service):
        """A fail-stop fault redistributes draws to surviving GPUs; the
        geometry/prep artifacts are assignment-independent, so the faulty
        run must reuse the fault-free run's artifacts and still render
        the exact same image."""
        from repro.faults import FaultPlan, GPUFailure
        trace = load_benchmark("wolf", "tiny")
        clean = run("chopin+sched", trace, make_setup("tiny", num_gpus=8),
                    use_cache=False)
        plan = FaultPlan(seed=5,
                         gpu_failures=(GPUFailure(gpu=2, cycle=50000.0),))
        faulty_setup = make_setup("tiny", num_gpus=8, faults=plan)
        before = fresh_service.counters()
        faulty = run("chopin+sched", trace, faulty_setup, use_cache=False)
        grew = fresh_service.counters().delta(before)
        assert faulty.stats.redistributed_draws > 0
        assert grew.hits > 0  # reused the clean run's phase artifacts
        # functional output is unchanged by the timing-level failure
        assert np.array_equal(clean.image.color, faulty.image.color)


class TestEnginePrewarm:
    def test_run_jobs_prewarms_the_store(self, fresh_service):
        spec = benchmark_job("chopin+sched", "wolf", num_gpus=4)
        eng = Engine()
        eng.run_jobs([spec])
        assert eng.counters.prewarmed > 0
        # the job itself then ran against a warm store
        assert fresh_service.counters().hits > 0

    def test_prewarm_can_be_disabled(self, fresh_service):
        eng = Engine(prewarm=False)
        assert eng.prewarm_store([]) == 0
        eng.run_jobs([benchmark_job("duplication", "wolf", num_gpus=2)])
        assert eng.counters.prewarmed == 0

    def test_prewarm_dedupes_environments(self, fresh_service):
        eng = Engine()
        specs = [benchmark_job("duplication", "wolf", num_gpus=2),
                 benchmark_job("chopin+sched", "wolf", num_gpus=2)]
        warmed = eng.prewarm_store(specs)
        trace = load_benchmark("wolf", "tiny")
        # both jobs share one environment: each draw warmed exactly once
        assert warmed == trace.num_draws


class TestDeprecations:
    def test_render_path_emits_no_deprecation_warnings(self, fresh_service):
        trace = load_benchmark("wolf", "tiny")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run("duplication", trace, make_setup("tiny", num_gpus=2),
                use_cache=False)


class TestLayering:
    def test_no_scheme_drives_the_pipeline_directly(self):
        """Schemes render through a RenderSession, never the raw phases."""
        import repro.sfr
        sfr_dir = pathlib.Path(repro.sfr.__file__).parent
        offenders = [path.name for path in sorted(sfr_dir.glob("*.py"))
                     if "geometry_phase" in path.read_text()
                     or "fragment_phase" in path.read_text()]
        assert offenders == []

    def test_pipeline_shim_matches_service_output(self, fresh_service):
        """The two phases called directly, without a store, and the
        service produce identical metrics for the same draw."""
        from repro.framebuffer.framebuffer import SurfacePool
        from repro.render import build_shader_library
        from repro.render.phases import (Camera, fragment_phase,
                                         geometry_phase)
        trace = load_benchmark("wolf", "tiny")
        draw = trace.frame.draws[0]
        artifact = geometry_phase(draw, Camera(trace.camera), trace.width,
                                  trace.height)
        direct = fragment_phase(
            artifact, draw, SurfacePool(trace.width, trace.height),
            build_shader_library(trace), trace.width, trace.height)
        session = render_service().session(trace)
        via_service = session.execute_draw(
            draw, SurfacePool(trace.width, trace.height))
        assert direct.triangles_rasterized == via_service.triangles_rasterized
        assert direct.fragments_shaded == via_service.fragments_shaded
        assert direct.fragments_passed == via_service.fragments_passed


class TestSpillIntegrity:
    """A damaged disk spill is a *miss with a counter*, never a crash."""

    def _spilled_store(self, tmp_path):
        store = ArtifactStore(disk_dir=str(tmp_path))
        store.put("frame-abc", {"color": list(range(64))})
        store.drop_memory()
        return store, tmp_path / "frame-abc.pkl"

    def test_bit_flip_reads_as_counted_miss(self, tmp_path):
        store, path = self._spilled_store(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte; the sha256 frame catches it
        path.write_bytes(bytes(blob))
        value, found = store.get("frame-abc")
        assert not found and value is None
        assert store.counters.disk_corrupt == 1
        assert store.counters.disk_loads == 0
        # the quarantined file is gone, so the recompute can re-spill
        assert not path.exists()

    def test_truncation_reads_as_counted_miss(self, tmp_path):
        store, path = self._spilled_store(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        _, found = store.get("frame-abc")
        assert not found
        assert store.counters.disk_corrupt == 1

    def test_foreign_file_reads_as_counted_miss(self, tmp_path):
        store, path = self._spilled_store(tmp_path)
        path.write_bytes(b"not a spill at all")
        _, found = store.get("frame-abc")
        assert not found
        assert store.counters.disk_corrupt == 1

    def test_intact_spill_still_round_trips(self, tmp_path):
        store, _ = self._spilled_store(tmp_path)
        value, found = store.get("frame-abc")
        assert found and value == {"color": list(range(64))}
        assert store.counters.disk_corrupt == 0
        assert store.counters.disk_loads == 1

    def test_corrupt_spill_recomputes_through_cached(self, tmp_path):
        store, path = self._spilled_store(tmp_path)
        path.write_bytes(b"garbage")
        value = store.cached("frame-abc", lambda: "recomputed")
        assert value == "recomputed"
        assert store.counters.disk_corrupt == 1
        # the recompute re-spilled an intact replacement
        store.drop_memory()
        value, found = store.get("frame-abc")
        assert found and value == "recomputed"
