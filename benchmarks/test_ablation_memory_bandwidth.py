"""Ablation: DRAM-bandwidth roofline and MSAA (beyond-paper extensions).

Two knobs the paper's Table II fixes, swept:

- **DRAM bandwidth**: with the memory roofline enabled, starving the
  fragment stage of bandwidth hurts CHOPIN *more* than duplication — its
  extra shaded fragments (Fig 15) are extra memory traffic too.
- **MSAA**: per-sample colour/depth multiplies all cross-GPU pixel traffic;
  duplication's full-surface RT-switch broadcasts suffer the most, CHOPIN's
  tile-filtered composition the least.
"""

from repro.harness import make_setup, run_benchmark
from repro.harness import report as R

from conftest import emit


def test_ablation_memory_bandwidth():
    table = {}
    for dram in (2000, 50, 20, 5):
        setup = make_setup("tiny", num_gpus=8, model_memory=True,
                           dram_gb_per_s=dram)
        dup = run_benchmark("duplication", "cod2", setup)
        chopin = run_benchmark("chopin+sched", "cod2", setup)
        table[f"{dram} GB/s"] = {
            "dup cycles": round(dup.frame_cycles),
            "chopin cycles": round(chopin.frame_cycles),
            "chopin speedup": dup.frame_cycles / chopin.frame_cycles,
        }
    speedups = [table[k]["chopin speedup"] for k in table]
    assert speedups[0] > speedups[-1], \
        "bandwidth starvation must erode CHOPIN's advantage"
    emit("ablation_memory_bandwidth",
         R.render_keyed_matrix(table, "DRAM", "Ablation: DRAM-bandwidth "
                               "roofline (cod2, 8 GPUs)"))


def test_ablation_msaa():
    table = {}
    for samples in (1, 2, 4):
        setup = make_setup("tiny", num_gpus=8, msaa_samples=samples)
        dup = run_benchmark("duplication", "grid", setup)
        chopin = run_benchmark("chopin+sched", "grid", setup)
        table[f"{samples}x"] = {
            "dup cycles": round(dup.frame_cycles),
            "chopin cycles": round(chopin.frame_cycles),
            "chopin speedup": dup.frame_cycles / chopin.frame_cycles,
            "comp MB": round(chopin.stats.traffic_total(
                "composition") / 1e6, 1),
        }
    # composition traffic scales with the sample count
    assert table["4x"]["comp MB"] > 3 * table["1x"]["comp MB"]
    emit("ablation_msaa",
         R.render_keyed_matrix(table, "MSAA", "Ablation: MSAA sample count "
                               "(grid, 8 GPUs)"))
