"""Fig 19: sensitivity to GPU count (2-16 GPUs).

Paper shape: CHOPIN's advantage over duplication grows with GPU count;
GPUpd's does not scale.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import SWEEP_BENCHMARKS, emit


def test_fig19_gpu_scaling():
    table = E.fig19_gpu_scaling(benchmarks=SWEEP_BENCHMARKS)
    chopin = [table[n]["chopin+sched"] for n in (2, 4, 8, 16)]
    assert chopin[-1] > chopin[0]
    gpupd = [table[n]["gpupd"] for n in (2, 4, 8, 16)]
    # GPUpd does not scale: its advantage at 16 GPUs is no better than at 2
    assert gpupd[-1] < gpupd[0] * 1.25
    assert table[16]["chopin+sched"] > table[16]["gpupd"]
    emit("fig19",
         R.render_sweep(table, "GPUs", "Fig 19: speedup vs duplication at "
                        "the same GPU count"))
