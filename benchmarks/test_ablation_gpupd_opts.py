"""Ablation: GPUpd's own optimizations (batching granularity + runahead).

The paper models "both optimizations: batching and runahead execution".
This ablation isolates each: coarser batches amortize the sequential
per-source turns; runahead hides distribution behind projection/rendering.
"""

from repro.harness import make_setup
from repro.harness import report as R
from repro.sfr import GPUpd
from repro.traces import load_benchmark

from conftest import emit


def test_ablation_gpupd_optimizations():
    setup = make_setup("tiny", num_gpus=8)
    trace = load_benchmark("cod2", "tiny")
    table = {}
    for batch in (4, 32, 256):
        for runahead in (False, True):
            scheme = GPUpd(setup.config, setup.costs,
                           batch_primitives=batch, runahead=runahead)
            cycles = scheme.run(trace).frame_cycles
            label = f"batch {batch}{'+runahead' if runahead else ''}"
            table[label] = {"frame cycles": round(cycles)}
    # runahead always helps (or at least never hurts) at fixed batch size
    for batch in (4, 32, 256):
        plain = table[f"batch {batch}"]["frame cycles"]
        opt = table[f"batch {batch}+runahead"]["frame cycles"]
        assert opt <= plain * 1.001
    # tiny batches pay many sequential turns
    assert table["batch 4+runahead"]["frame cycles"] \
        > table["batch 256+runahead"]["frame cycles"]
    emit("ablation_gpupd_opts",
         R.render_keyed_matrix(table, "config",
                               "Ablation: GPUpd batching + runahead "
                               "(cod2, 8 GPUs)"))
