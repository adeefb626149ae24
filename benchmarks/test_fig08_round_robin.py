"""Fig 8: naive round-robin draw scheduling (load-imbalance strawman).

Paper shape: round-robin CHOPIN loses most of the scheduler's benefit.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import FULL_BENCHMARKS, emit


def test_fig8_round_robin():
    table = E.fig8_round_robin(benchmarks=FULL_BENCHMARKS)
    full = E.fig13_performance(benchmarks=FULL_BENCHMARKS)
    for bench in table:
        table[bench]["chopin+sched"] = full[bench]["chopin+sched"]
    means = table["GMean"]
    assert means["chopin-rr"] < means["chopin+sched"]
    emit("fig08",
         R.render_speedups(table, "Fig 8: round-robin scheduling overhead"))
