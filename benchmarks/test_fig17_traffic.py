"""Fig 17: parallel image composition traffic load.

Paper shape: ~51.66 MB average per frame; grid is the outlier (131.92 MB)
because of its many large triangles.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import FULL_BENCHMARKS, emit


def test_fig17_traffic():
    traffic = E.fig17_traffic(benchmarks=FULL_BENCHMARKS)
    assert traffic["grid"] == max(traffic[b] for b in FULL_BENCHMARKS)
    assert 5.0 < traffic["Avg"] < 200.0    # paper: 51.66 MB
    emit("fig17", R.render_fig17(traffic))
