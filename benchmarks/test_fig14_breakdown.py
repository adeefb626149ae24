"""Fig 14: execution-cycle breakdown by pipeline stage.

Paper shape: duplication dominated by redundant geometry; GPUpd adds
projection + distribution; CHOPIN replaces them with a small composition
share.
"""

from repro.harness import experiments as E
from repro.harness import report as R
from repro.stats import (STAGE_COMPOSITION, STAGE_DISTRIBUTION,
                         STAGE_GEOMETRY)

from conftest import FULL_BENCHMARKS, emit


def test_fig14_breakdown():
    table = E.fig14_breakdown(benchmarks=FULL_BENCHMARKS)
    for bench in FULL_BENCHMARKS:
        dup = table[bench]["duplication"]
        chopin = table[bench]["chopin+sched"]
        gpupd = table[bench]["gpupd"]
        assert chopin[STAGE_GEOMETRY] < dup[STAGE_GEOMETRY] * 0.5
        assert gpupd[STAGE_DISTRIBUTION] > 0
        assert chopin[STAGE_COMPOSITION] > 0
        assert chopin[STAGE_DISTRIBUTION] == 0
    emit("fig14", R.render_fig14(table))
