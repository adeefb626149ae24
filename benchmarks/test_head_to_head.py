"""Composition head-to-head: DES transports vs analytic exchanges.

Not a paper figure — the PR 10 scaling study. chopin (gated direct-send),
chopin+sched (§IV-E pairing) and dfb (asynchronous tile streaming) are
simulated; direct-send / binary-swap / radix-k are the classic synchronous
frame-end exchanges, modeled analytically on the composition-free
chopin-ideal schedule. Expected shape: the DES transports hide composition
behind rendering (nonzero overlap cycles), the analytic exchanges cannot
(overlap is zero by construction), and dfb trails the scheduled exchange
at small tile counts because every tile message pays a head latency.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import emit

GPU_COUNTS = (8, 16, 32, 64)


def test_head_to_head():
    table = E.composition_head_to_head(benchmarks=("wolf", "cod2"),
                                       gpu_counts=GPU_COUNTS)
    for workload, counts in table.items():
        for n, row in counts.items():
            # every DES transport overlaps composition behind rendering;
            # the analytic frame-end exchanges never do
            for scheme in E.HEAD_TO_HEAD_SCHEMES:
                assert row[scheme]["comp_overlap_cycles"] > 0.0, \
                    (workload, n, scheme)
            for algorithm in E.EXCHANGE_ALGORITHMS:
                assert row[algorithm]["comp_overlap_cycles"] == 0.0
    # binary-swap never loses to direct-send on the analytic model
    # (fewer serialized messages per GPU at every count)
    for workload, counts in table.items():
        for n, row in counts.items():
            assert row["binary-swap"]["composition_cycles"] \
                <= row["direct-send"]["composition_cycles"] + 1e-9
    emit("head_to_head", R.render_head_to_head(table))
