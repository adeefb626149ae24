"""Performance micro-benchmarks of the simulator's own substrates.

Unlike the figure benchmarks (which time one full experiment), these use
pytest-benchmark's statistical timing to track the hot paths' throughput:
the DES event loop, the rasterizer, the compositors, and a full scheme run.
Useful for catching performance regressions in the library itself.
"""

import numpy as np
import pytest

from repro.composition import SubImage, binary_swap, direct_send
from repro.geometry import BlendOp
from repro.harness import build_scheme, make_setup
from repro.harness.runner import clear_result_cache
from repro.raster.rasterizer import rasterize_triangles
from repro.sim import Simulator, Resource
from repro.traces import load_benchmark


def test_perf_des_event_throughput(benchmark):
    """Ping-pong 20k events through the kernel."""

    def run_sim():
        sim = Simulator()

        def proc():
            for _ in range(10_000):
                yield sim.timeout(1.0)

        sim.process(proc())
        sim.process(proc())
        return sim.run()

    result = benchmark(run_sim)
    assert result == 10_000


def test_perf_resource_contention(benchmark):
    """1k acquire/release cycles across 8 contending processes."""

    def run_sim():
        sim = Simulator()
        resource = Resource(sim)

        def worker():
            for _ in range(125):
                request = resource.request()
                yield request
                yield sim.timeout(1.0)
                resource.release(request)

        for _ in range(8):
            sim.process(worker())
        return sim.run()

    assert benchmark(run_sim) == 1000.0


def test_perf_rasterizer(benchmark):
    """Rasterize one 64-triangle draw (a mesh-like mix of sizes) at 64x64."""
    rng = np.random.default_rng(0)
    centers = rng.uniform(0, 64, size=(64, 1, 2))
    xy = (centers + rng.normal(0, 6, size=(64, 3, 2))).astype(np.float32)
    depth = rng.random((64, 3), dtype=np.float32)
    colors = rng.random((64, 3, 4), dtype=np.float32)
    live = np.ones(64, dtype=bool)

    tri, xs, _, _, _ = benchmark(rasterize_triangles, xy, depth, colors,
                                 live, 64, 64)
    assert xs.size > 500 and np.unique(tri).size > 32


def test_perf_direct_send_compositor(benchmark):
    rng = np.random.default_rng(0)
    images = [SubImage(color=rng.random((64, 64, 4), dtype=np.float32),
                       depth=rng.random((64, 64), dtype=np.float32),
                       touched=np.ones((64, 64), bool))
              for _ in range(8)]
    composed, _ = benchmark(direct_send, images)
    assert composed.shape == (64, 64)


def test_perf_binary_swap_compositor(benchmark):
    rng = np.random.default_rng(0)
    images = [SubImage(color=rng.random((64, 64, 4), dtype=np.float32),
                       depth=rng.random((64, 64), dtype=np.float32),
                       touched=np.ones((64, 64), bool))
              for _ in range(8)]
    composed, _ = benchmark(binary_swap, images, op=BlendOp.OVER)
    assert composed.shape == (64, 64)


def test_perf_chopin_timing_pass(benchmark):
    """The DES timing pass alone (functional prep cached beforehand)."""
    setup = make_setup("tiny", num_gpus=8)
    trace = load_benchmark("wolf", "tiny")
    scheme = build_scheme("chopin+sched", setup)
    prep = scheme._functional_pass(trace)   # warm the cache

    def timing_only():
        return scheme._timing_pass(trace, prep)

    result, _ = benchmark(timing_only)
    assert result.stats.frame_cycles > 0


def test_perf_full_scheme_run(benchmark):
    """End-to-end duplication run (uncached), the common usage pattern."""
    setup = make_setup("tiny", num_gpus=8)
    trace = load_benchmark("wolf", "tiny")

    def full_run():
        clear_result_cache()
        return build_scheme("duplication", setup).run(trace)

    result = benchmark.pedantic(full_run, rounds=3, iterations=1)
    assert result.frame_cycles > 0
