"""Ablation: per-GPU memory footprints behind the paper's design choices.

Quantifies §III-A's "large memory to buffer exchanged primitive IDs"
argument for GPUpd's sequential exchange, and §IV-A's extra-render-target
cost for CHOPIN's transparent groups. Reported at paper scale.
"""

from repro.core.memory import memory_comparison
from repro.harness import make_setup
from repro.harness import report as R
from repro.traces import load_benchmark

from conftest import emit


def test_ablation_memory():
    setup = make_setup("paper", num_gpus=8)
    trace = load_benchmark("cry", "paper")   # largest triangle count
    table = {name: fp.as_dict()
             for name, fp in memory_comparison(trace,
                                               setup.config).items()}
    assert table["gpupd-unordered"]["reorder"] \
        > 5 * table["gpupd"]["staging"]
    assert table["chopin"]["extra_targets"] > 0
    pretty = {name: {k: f"{v / 1e6:.2f} MB" for k, v in row.items()}
              for name, row in table.items()}
    emit("ablation_memory",
         R.render_keyed_matrix(pretty, "scheme",
                               "Ablation: per-GPU memory footprint "
                               "(cry, paper scale)"))
