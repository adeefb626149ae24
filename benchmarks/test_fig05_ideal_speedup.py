"""Fig 5: potential of parallel image composition (idealized systems).

Paper shape: IdealCHOPIN ~1.31x gmean over duplication; idealizing GPUpd
helps but parallel composition has more headroom than sequential exchange.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import FULL_BENCHMARKS, emit


def test_fig5_ideal_speedup():
    table = E.fig5_ideal_speedup(benchmarks=FULL_BENCHMARKS)
    means = table["GMean"]
    assert means["chopin-ideal"] > 1.1      # paper: 1.31x
    assert means["gpupd-ideal"] > means["gpupd"]
    emit("fig05",
         R.render_speedups(table, "Fig 5: ideal-system speedups vs "
                           "duplication"))
