"""Study: robustness of the headline result to trace randomness.

Every trace here is synthetic, so the reproduction's conclusions should
not depend on the particular random sample the seeds produced. This study
regenerates three benchmarks with three different seeds each and checks the
CHOPIN-vs-duplication verdict is stable.
"""

import numpy as np

from repro.harness import make_setup, run
from repro.harness import report as R
from repro.traces import load_benchmark_variant

from conftest import emit

BENCHES = ("cod2", "stal", "wolf")
SEED_OFFSETS = (0, 101, 202)


def test_study_seed_sensitivity():
    setup = make_setup("tiny", num_gpus=8)
    table = {}
    for bench in BENCHES:
        speedups = []
        for offset in SEED_OFFSETS:
            trace = load_benchmark_variant(bench, "tiny", offset)
            dup = run("duplication", trace, setup)
            chopin = run("chopin+sched", trace, setup)
            speedups.append(dup.frame_cycles / chopin.frame_cycles)
        table[bench] = {
            "mean": float(np.mean(speedups)),
            "min": float(np.min(speedups)),
            "max": float(np.max(speedups)),
            "rel spread": float((np.max(speedups) - np.min(speedups))
                                / np.mean(speedups)),
        }
    for bench in BENCHES:
        # the verdict never flips across seeds for these benchmarks
        assert table[bench]["min"] > 0.9
        # and the spread stays moderate
        assert table[bench]["rel spread"] < 0.5
    emit("study_seed_sensitivity",
         R.render_keyed_matrix(table, "bench",
                               "Study: CHOPIN+ speedup across 3 generator "
                               "seeds per benchmark"))
