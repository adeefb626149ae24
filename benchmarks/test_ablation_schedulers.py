"""Ablation: draw-command scheduler policies (§IV-D design space).

Round-robin (no information) < OO-VR-style sampled rates (static c1/c2
from the first draws — the §IV-D strawman) < least-remaining-triangles
(CHOPIN's hardware-feasible feedback heuristic) <= oracle LPT (offline, by
estimated total draw cost — unrealizable in hardware). The gap between the
last two bounds how much headroom the triangle heuristic leaves on the
table.
"""

from repro.harness import make_setup, run_benchmark
from repro.harness import report as R
from repro.stats import gmean

from conftest import SWEEP_BENCHMARKS, emit

POLICIES = ("chopin-rr", "chopin-sampled", "chopin+sched",
            "chopin-oracle")


def test_ablation_schedulers():
    setup = make_setup("tiny", num_gpus=8)
    table = {}
    for bench in SWEEP_BENCHMARKS:
        base = run_benchmark("duplication", bench, setup)
        table[bench] = {
            policy: base.frame_cycles
            / run_benchmark(policy, bench, setup).frame_cycles
            for policy in POLICIES
        }
    table["GMean"] = {p: gmean(table[b][p] for b in SWEEP_BENCHMARKS)
                      for p in POLICIES}
    means = table["GMean"]
    assert means["chopin-rr"] <= means["chopin+sched"] * 1.02
    assert means["chopin-sampled"] <= means["chopin+sched"] * 1.05
    assert means["chopin-oracle"] >= means["chopin+sched"] * 0.98
    emit("ablation_schedulers",
         R.render_speedups(table, "Ablation: draw-command scheduler "
                           "policies (speedup vs duplication)"))
