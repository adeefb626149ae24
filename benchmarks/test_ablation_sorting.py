"""Ablation: the Molnar sorting taxonomy on one system (paper §III-A).

Where the synchronization happens determines scalability:

- sort-first via duplication: redundant geometry (the Fig 2 problem);
- sort-first via GPUpd: sequential primitive-ID exchange (the Fig 4
  problem);
- sort-middle: full post-geometry attribute exchange — "rarely adopted
  because the geometry processing output is very large";
- sort-last (CHOPIN): sub-image composition, parallel and associative.
"""

from repro.harness import make_setup, run_benchmark
from repro.harness import report as R
from repro.stats import TRAFFIC_COMPOSITION, TRAFFIC_PRIMITIVES, gmean

from conftest import SWEEP_BENCHMARKS, emit

SCHEMES = ("duplication", "gpupd", "sort-middle", "chopin+sched")


def test_ablation_sorting_taxonomy():
    setup = make_setup("tiny", num_gpus=8)
    table = {}
    for bench in SWEEP_BENCHMARKS:
        base = run_benchmark("duplication", bench, setup)
        table[bench] = {}
        for scheme in SCHEMES:
            result = run_benchmark(scheme, bench, setup)
            exchange_mb = (result.stats.traffic_total(TRAFFIC_PRIMITIVES)
                           + result.stats.traffic_total(
                               TRAFFIC_COMPOSITION)) / 1e6
            table[bench][scheme] = base.frame_cycles / result.frame_cycles
            table[bench][f"{scheme} MB"] = round(exchange_mb, 2)
    table["GMean"] = {s: gmean(table[b][s] for b in SWEEP_BENCHMARKS)
                      for s in SCHEMES}
    means = table["GMean"]
    # sort-last wins; sort-middle is crippled by attribute bandwidth
    assert means["chopin+sched"] > means["duplication"] * 0.99
    assert means["chopin+sched"] > means["sort-middle"]
    assert means["sort-middle"] < means["gpupd"] * 1.2
    emit("ablation_sorting",
         R.render_speedups(table, "Ablation: Molnar sorting taxonomy "
                           "(speedup vs duplication; MB = exchange traffic)"))
