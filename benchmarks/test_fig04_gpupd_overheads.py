"""Fig 4: GPUpd's extra pipeline stages (projection + distribution).

Paper shape: sequential primitive distribution grows with GPU count and
becomes the critical bottleneck at 8 GPUs.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import FULL_BENCHMARKS, emit


def test_fig4_gpupd_overheads():
    overheads = E.fig4_gpupd_overheads(benchmarks=FULL_BENCHMARKS)
    for bench in FULL_BENCHMARKS:
        dist = {n: overheads[bench][n]["distribution"] for n in (2, 4, 8)}
        assert dist[2] < dist[8], f"{bench}: distribution must grow with GPUs"
        assert overheads[bench][8]["projection"] > 0
    emit("fig04", R.render_fig4(overheads))
