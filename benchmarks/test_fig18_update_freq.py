"""Fig 18: draw-scheduler statistics update frequency sweep.

Paper shape: raising the update interval from 1 to 1024 triangles costs
only a few percent (1.25x -> 1.22x gmean).
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import SWEEP_BENCHMARKS, emit


def test_fig18_update_freq():
    table = E.fig18_update_interval(benchmarks=SWEEP_BENCHMARKS)
    values = [table[i]["chopin+sched"] for i in (1, 256, 512, 1024)]
    assert max(values) / min(values) < 1.25   # insensitive parameter
    emit("fig18",
         R.render_sweep(table, "interval", "Fig 18: scheduler update "
                        "interval (paper-scale triangles)"))
