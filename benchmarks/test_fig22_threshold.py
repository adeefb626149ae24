"""Fig 22: composition-group size threshold sweep.

Paper shape: performance is insensitive to the threshold because group
sizes are bimodal; at 4096, ~6.5 groups covering ~92% of triangles are
accelerated.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import SWEEP_BENCHMARKS, emit


def test_fig22_threshold():
    speed = E.fig22_threshold(benchmarks=SWEEP_BENCHMARKS)
    coverage = E.fig22_coverage(benchmarks=SWEEP_BENCHMARKS,
                                thresholds=(4096, 16384))
    values = [speed[t]["chopin+sched"] for t in (256, 1024, 4096, 16384)]
    assert max(values) / min(values) < 1.35   # insensitive parameter
    assert coverage[4096]["triangle_coverage"] > 0.6   # paper: 92.4%
    assert coverage[16384]["triangle_coverage"] \
        <= coverage[4096]["triangle_coverage"]
    text = R.render_sweep(speed, "threshold",
                          "Fig 22: composition threshold sweep "
                          "(paper-scale triangles)")
    text += "\n\n" + R.render_sweep(
        {t: coverage[t] for t in coverage}, "threshold",
        "Accelerated-group coverage (paper at 4096: 6.5 groups, 92.44%)")
    emit("fig22", text)
