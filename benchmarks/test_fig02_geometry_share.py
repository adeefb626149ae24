"""Fig 2: geometry-processing share of cycles in conventional SFR.

Paper shape: ~20% at 1 GPU rising to 60-80% at 8 GPUs — redundant geometry
does not scale with GPU count.
"""

from repro.harness import experiments as E
from repro.harness import report as R
from repro.stats import gmean

from conftest import FULL_BENCHMARKS, emit


def test_fig2_geometry_share():
    shares = E.fig2_geometry_share(benchmarks=FULL_BENCHMARKS)
    for bench in FULL_BENCHMARKS:
        per_n = shares[bench]
        assert per_n[1] < per_n[2] < per_n[4] < per_n[8]
    avg8 = gmean(shares[b][8] for b in FULL_BENCHMARKS)
    assert 0.4 < avg8 < 0.9  # paper: 60-80%
    emit("fig02", R.render_fig2(shares))
