"""Fig 20: sensitivity to inter-GPU link bandwidth.

Paper shape: CHOPIN's performance scales with bandwidth (baseline fixed at
the Table II configuration).
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import SWEEP_BENCHMARKS, emit


def test_fig20_bandwidth():
    table = E.fig20_bandwidth(benchmarks=SWEEP_BENCHMARKS)
    chopin = [table[bw]["chopin+sched"] for bw in (16.0, 32.0, 64.0, 128.0)]
    assert chopin == sorted(chopin)
    assert chopin[-1] / chopin[0] > 1.05
    emit("fig20",
         R.render_sweep(table, "GB/s", "Fig 20: inter-GPU bandwidth sweep "
                        "(baseline: Table II duplication)"))
