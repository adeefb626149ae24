"""A fixed reference workload that measures how fast the host runs now.

On a shared host the speed of the same code drifts by 10-30% over
minutes (other tenants, cache and memory-bandwidth contention), and a
20-second run cannot average that out. So the runner times this probe
between ops, in the same process, and reports host times scaled to a
reference host: ``seconds * REFERENCE_S / median probe seconds``.

The probe is fixed code that imports nothing from the program, so a
change to the program never moves it. Its two parts mirror the
program's two kinds of work: a heap of generator processes (the DES
kernel) and masked depth tests over a pixel grid (the raster and
composition layers).
"""

import heapq
import time

import numpy as np

#: median probe seconds on the host the benchmark was defined on (a
#: shared 2-vCPU Linux container at 2.1 GHz) at a quiet time
REFERENCE_S = 0.022


def _processes(processes: int, steps: int) -> float:
    """Generators stepped in time order through one heap."""
    def body(offset: int):
        now = 0.0
        for step in range(steps):
            now += (step + offset) % 7 + 1.0
            yield now

    heap = []
    for index in range(processes):
        process = body(index)
        heap.append((next(process), index, process))
    heapq.heapify(heap)
    last = 0.0
    while heap:
        last, index, process = heapq.heappop(heap)
        for when in process:
            heapq.heappush(heap, (when, index, process))
            break
    return last


def _depth_tests(size: int, triangles: int) -> float:
    """Half-plane coverage and a depth test per triangle on a grid."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    depth = np.full((size, size), np.inf)
    rng = np.random.default_rng(1)
    for _ in range(triangles):
        x0, y0, x1, y1, x2, y2, z = rng.random(7) * size
        w0 = (x1 - x0) * (ys - y0) - (y1 - y0) * (xs - x0)
        w1 = (x2 - x1) * (ys - y1) - (y2 - y1) * (xs - x1)
        w2 = (x0 - x2) * (ys - y2) - (y0 - y2) * (xs - x2)
        inside = (((w0 >= 0) & (w1 >= 0) & (w2 >= 0))
                  | ((w0 <= 0) & (w1 <= 0) & (w2 <= 0)))
        depth = np.where(inside & (z < depth), z, depth)
    return float(np.isfinite(depth).sum())


def probe() -> float:
    """Seconds one run of the reference workload takes."""
    started = time.perf_counter()
    _processes(500, 40)
    _depth_tests(192, 30)
    return time.perf_counter() - started
