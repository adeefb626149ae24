"""Ablation: interconnect topology — why CHOPIN assumes NVLink-class p2p.

Compares the DGX-like point-to-point fabric (the paper's §V assumption)
against a shared-bus fabric with 2 links' worth of aggregate bandwidth.
Bursty all-to-all phases (duplication's RT-switch broadcasts) collapse on
a shared medium, while CHOPIN's scheduled, temporally spread composition
degrades the least.

The scaling ablation then takes the question to where congestion actually
bites (Distributed FrameBuffer line of work): ring and crossbar-switch
fabrics at 16/32/64 GPUs, recording per fabric the GPU count at which the
scheduled compositor overtakes primitive duplication — the *compositor
crossover point*.
"""

from repro.harness import make_setup, run_benchmark
from repro.harness import report as R
from repro.stats import gmean

from conftest import SWEEP_BENCHMARKS, emit

SCHEMES = ("duplication", "gpupd", "chopin", "chopin+sched")

#: scaling-ablation grid: fabric x GPU count (one benchmark to bound runtime)
SCALING_FABRICS = ("p2p", "ring", "switch")
SCALING_GPUS = (16, 32, 64)
SCALING_BENCHMARK = "wolf"


def test_ablation_topology():
    p2p = make_setup("tiny", num_gpus=8)
    bus = make_setup("tiny", num_gpus=8, topology="bus")
    table = {}
    for scheme in SCHEMES:
        slowdowns = []
        for bench in SWEEP_BENCHMARKS:
            fast = run_benchmark(scheme, bench, p2p)
            slow = run_benchmark(scheme, bench, bus)
            slowdowns.append(slow.frame_cycles / fast.frame_cycles)
        table[scheme] = {"bus slowdown": gmean(slowdowns)}
    for scheme in SCHEMES:
        assert table[scheme]["bus slowdown"] >= 0.999  # bus never helps
    assert table["chopin+sched"]["bus slowdown"] \
        <= table["duplication"]["bus slowdown"] + 0.05
    emit("ablation_topology",
         R.render_keyed_matrix(table, "scheme",
                               "Ablation: shared-bus fabric slowdown "
                               "(gmean vs point-to-point)"))


def test_ablation_topology_scaling():
    table = {}
    crossovers = {}
    for fabric in SCALING_FABRICS:
        row = {}
        prev_margin = None
        crossovers[fabric] = None
        for gpus in SCALING_GPUS:
            setup = make_setup("tiny", num_gpus=gpus, topology=fabric)
            base = run_benchmark("duplication", SCALING_BENCHMARK,
                                 setup)
            sched = run_benchmark("chopin+sched", SCALING_BENCHMARK,
                                  setup)
            speedup = base.frame_cycles / sched.frame_cycles
            row[f"{gpus} GPUs"] = speedup
            # compositor crossover: first GPU count where the
            # scheduled compositor overtakes duplication (sign flip,
            # same contract as harness.sweeps.crossover)
            margin = speedup - 1.0
            if margin > 0 and crossovers[fabric] is None:
                if prev_margin is None or prev_margin <= 0:
                    crossovers[fabric] = gpus
            prev_margin = margin
        table[fabric] = row
    for fabric in SCALING_FABRICS:
        # the compositor's advantage must grow from 16 to 64 GPUs on
        # every fabric (duplication re-rasterizes everything everywhere)
        # but need not be strictly monotone: the ring peaks at 32 GPUs,
        # where hop count has not yet eaten into the scheduling win
        speedups = [table[fabric][f"{g} GPUs"] for g in SCALING_GPUS]
        assert speedups[-1] > speedups[0]
        assert speedups[-1] > 1.0  # overtaken by 64 GPUs at the latest
    lines = [R.render_keyed_matrix(
        table, "fabric",
        f"Ablation: chopin+sched speedup vs duplication "
        f"({SCALING_BENCHMARK}, 16-64 GPUs)")]
    lines.append("compositor crossover (first GPU count where "
                 "chopin+sched leads):")
    for fabric in SCALING_FABRICS:
        at = crossovers[fabric]
        lines.append(f"  {fabric:<7}: "
                     f"{'<= 16 GPUs' if at == 16 else at or 'none'}")
    emit("ablation_topology_scaling", "\n".join(lines))
