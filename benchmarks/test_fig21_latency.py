"""Fig 21: sensitivity to inter-GPU link latency.

Paper shape: CHOPIN is not significantly affected by latency, unlike
GPUpd, whose sequential primitive exchange is latency-bound.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import SWEEP_BENCHMARKS, emit


def test_fig21_latency():
    table = E.fig21_latency(benchmarks=SWEEP_BENCHMARKS)
    chopin_loss = table[100]["chopin+sched"] / table[400]["chopin+sched"]
    gpupd_loss = table[100]["gpupd"] / table[400]["gpupd"]
    assert chopin_loss < 1.15              # CHOPIN barely affected
    assert gpupd_loss > chopin_loss        # GPUpd latency-bound
    emit("fig21",
         R.render_sweep(table, "cycles", "Fig 21: inter-GPU latency sweep "
                        "(baseline: Table II duplication)"))
