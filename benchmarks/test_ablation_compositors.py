"""Ablation: CHOPIN's scheduled direct-send vs binary-swap vs radix-k.

The paper (§II-D) argues CHOPIN keeps direct-send's simplicity and fixes
its congestion with the composition scheduler, instead of adopting
multi-round algorithms. This ablation compares the *composition phase*
cost of the three exchange schedules analytically on the same sub-image
regions: per-round link occupancy plus per-message latency, with perfect
overlap inside a round (each algorithm's best case).
"""

from repro.composition import SubImage, binary_swap, direct_send, radix_k
from repro.harness import make_setup
from repro.sfr import ChopinWithScheduler
from repro.core.workflow import GroupMode
from repro.traces import load_benchmark
from repro.harness import report as R

import numpy as np

from conftest import emit


def phase_cost(transfers, bytes_per_pixel, bandwidth, latency, num_gpus):
    """Cycles for an exchange plan: rounds execute in sequence; within a
    round each GPU's ingress serializes its receives."""
    rounds = {}
    for t in transfers:
        rounds.setdefault(t.round_index, []).append(t)
    total = 0.0
    for _, msgs in sorted(rounds.items()):
        per_gpu = [0.0] * num_gpus
        for m in msgs:
            per_gpu[m.dst] += m.pixels * bytes_per_pixel / bandwidth + latency
        total += max(per_gpu)
    return total


def test_ablation_compositors():
    setup = make_setup("tiny", num_gpus=8)
    bandwidth = setup.config.link.bandwidth_bytes_per_cycle()
    latency = setup.config.link.latency_cycles
    trace = load_benchmark("grid", "tiny")  # largest traffic
    scheme = ChopinWithScheduler(setup.config, setup.costs)
    prep = scheme._functional_pass(trace)
    height, width = trace.height, trace.width
    rng = np.random.default_rng(0)

    costs = {"direct-send": 0.0, "binary-swap": 0.0, "radix-k": 0.0}
    for gp in prep.groups:
        if gp.mode is not GroupMode.OPAQUE_PARALLEL:
            continue
        # reconstruct 8 synthetic sub-images with that group's touched
        # footprint sizes (contents don't matter for the plan)
        images = []
        for g in range(8):
            touched = np.zeros((height, width), bool)
            pixels = int(gp.region_pixels[g].sum())
            flat = touched.reshape(-1)
            flat[rng.choice(flat.size, size=min(pixels, flat.size),
                            replace=False)] = True
            images.append(SubImage(
                color=np.zeros((height, width, 4), np.float32),
                depth=np.ones((height, width), np.float32),
                touched=touched))
        for name, algo in (("direct-send", direct_send),
                           ("binary-swap", binary_swap),
                           ("radix-k", radix_k)):
            _, transfers = algo(images)
            costs[name] += phase_cost(
                transfers, setup.config.pixel_bytes, bandwidth,
                latency, 8)
    # all three finite and same order of magnitude; direct-send (what the
    # scheduler orchestrates) must not be grossly worse than the others
    assert costs["direct-send"] < 3 * min(costs.values())
    emit("ablation_compositors",
         R.render_dict({k: f"{v:,.0f} cycles" for k, v in costs.items()},
                       "Ablation: composition-phase cost on grid "
                       "(8 GPUs, opaque groups)"))
