"""Cycle-exact pin of CHOPIN's composition timing across its transports.

``tests/golden/chopin_timing.json`` holds, for every cell of the
scheme x fault plan x ``pipeline_depth`` x topology matrix below (wolf,
tiny scale, 4 GPUs, race sanitizer on), the frame cycles, the full
``RunStats.to_dict()`` snapshot and the image checksum. The schemes cover
all three composition transports: gated direct-send (``chopin``),
ready-idle pairing (``chopin+sched``, ``chopin-ideal``) and tile
streaming (``dfb``); the fault plans cover fail-stop repair (one and two
dead GPUs) and link retries. A diff here means simulated timing moved.

The fault-free cells also check two conservation invariants: composition
traffic equals the bytes the functional prep planned, and the GPUs' busy
cycles fit inside the frame (known to fail for ``chopin-ideal``, whose
unbounded link buffering lets composition cycles overlap).

A 64-GPU soak at the bottom pins the order of same-cycle events, which
the 4-GPU cells rarely exercise.

Regenerate the golden file (only when a timing change is intended) with::

    PYTHONPATH=src python tests/test_chopin_timing_golden.py
"""

import itertools
import json
import pathlib

import pytest

from repro.composition.dfb import plan_group_tiles
from repro.core.workflow import GroupMode
from repro.faults import parse_fault_plan
from repro.faults.traces import TraceGenConfig, generate_trace
from repro.harness.engine import run_soak
from repro.harness.runner import build_scheme, make_setup, run
from repro.render import service as service_module
from repro.render.service import RenderService
from repro.stats import TRAFFIC_COMPOSITION
from repro.traces import load_benchmark
from repro.validation import image_checksum

GOLDEN = pathlib.Path(__file__).parent / "golden" / "chopin_timing.json"

NUM_GPUS = 4
SCHEMES = ("chopin", "chopin+sched", "dfb", "chopin-ideal")
FAULT_PLANS = (None, "gpus=4,fail=1@40000",
               "gpus=4,fail=2@1000,fail=3@90000",
               "gpus=4,seed=3,drop=0.02,corrupt=0.01")
DEPTHS = (None, 1, 2)
TOPOLOGIES = (None, "ring", "switch")

CELLS = list(itertools.product(SCHEMES, FAULT_PLANS, DEPTHS, TOPOLOGIES))


def cell_id(scheme, faults, depth, topology) -> str:
    return (f"{scheme}|faults={faults or 'none'}|depth={depth}"
            f"|topology={topology or 'default'}")


def _setup(faults, depth, topology):
    return make_setup(
        "tiny", num_gpus=NUM_GPUS, topology=topology, sanitize=True,
        pipeline_depth=depth,
        faults=parse_fault_plan(faults) if faults is not None else None)


def planned_composition_pixels(scheme: str, trace, setup) -> int:
    """Composition pixels the functional prep plans for a fault-free frame.

    Opaque groups move the off-diagonal region matrix (or, for the tile
    streaming ``dfb``, its tile messages); transparent groups move every
    reduction-tree edge plus the scatter from the root to the other GPUs.
    """
    prep = build_scheme(scheme, setup)._functional_pass(trace)
    total = 0
    for gp in prep.groups:
        if gp.mode is GroupMode.OPAQUE_PARALLEL:
            if scheme == "dfb":
                sends, _ = plan_group_tiles(gp.touched_tiles,
                                            prep.tile_pixels, prep.tile_owner)
                total += sum(m.pixels for row in sends for m in row)
            else:
                total += int(gp.region_pixels.sum())
        elif gp.mode is GroupMode.TRANSPARENT_PARALLEL:
            total += sum(pixels for level in gp.tree_levels
                         for _, _, pixels in level)
            total += sum(gp.scatter_pixels[1:])
    return total


def build_cells() -> dict:
    """Run every cell in a fixed order on the ambient render service."""
    wolf = load_benchmark("wolf", "tiny")
    out = {}
    for scheme, faults, depth, topology in CELLS:
        setup = _setup(faults, depth, topology)
        result = run(scheme, wolf, setup)
        entry = {"frame_cycles": result.stats.frame_cycles,
                 "stats": result.stats.to_dict(),
                 "image_checksum": image_checksum(result.image)}
        if faults is None:
            stats = result.stats
            entry["composition_bytes"] = stats.traffic_total(
                TRAFFIC_COMPOSITION)
            entry["planned_bytes"] = (
                setup.config.pixel_bytes * setup.config.msaa_samples
                * planned_composition_pixels(scheme, wolf, setup))
            entry["busy_cycles"] = sum(g.total_cycles for g in stats.gpus)
        out[cell_id(scheme, faults, depth, topology)] = entry
    return out


def _pinned(entry: dict) -> dict:
    return {key: entry[key]
            for key in ("frame_cycles", "stats", "image_checksum")}


@pytest.fixture(scope="module")
def built():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "_SERVICE", RenderService())
        yield build_cells()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(cell_id(*cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: cell_id(*c))
def test_cell_matches_golden(built, golden, cell):
    key = cell_id(*cell)
    assert json.loads(json.dumps(_pinned(built[key]))) == golden[key]


def test_fail_plans_exercise_repair(built):
    for scheme in SCHEMES:
        one = built[cell_id(scheme, FAULT_PLANS[1], None, None)]["stats"]
        two = built[cell_id(scheme, FAULT_PLANS[2], None, None)]["stats"]
        assert one["failed_gpus"] == [1]
        assert two["failed_gpus"] == [2, 3]
        assert one["redistributed_draws"] > 0
        assert two["redistributed_draws"] > 0


FAULT_FREE = [c for c in CELLS if c[1] is None]


def _busy_param(cell):
    scheme, _, depth, _ = cell
    if scheme != "chopin-ideal" or depth == 1:
        return pytest.param(cell, id=cell_id(*cell))
    # Known model gap: ideal links free the ports at once, so a receiver's
    # composition tails run concurrently and their billed cycles overlap
    # (at depth 1 they happen to fit); the idle-cycle clamp hides it.
    return pytest.param(cell, id=cell_id(*cell), marks=pytest.mark.xfail(
        strict=True, reason="ideal links double-book composition cycles"))


@pytest.mark.parametrize("cell", FAULT_FREE, ids=lambda c: cell_id(*c))
def test_fault_free_composition_traffic_matches_plan(built, cell):
    entry = built[cell_id(*cell)]
    assert entry["composition_bytes"] == entry["planned_bytes"]


@pytest.mark.parametrize("cell", [_busy_param(c) for c in FAULT_FREE])
def test_fault_free_busy_cycles_fit_the_frame(built, cell):
    entry = built[cell_id(*cell)]
    assert entry["busy_cycles"] <= NUM_GPUS * entry["frame_cycles"]


#: Per-frame cycles of a 3-frame ``chopin+sched`` soak of wolf on 64 GPUs
#: (switch) under a GPU failure trace. The 4-GPU cells above rarely tie
#: two messages on one cycle; at 64 GPUs many do, so this pins the order
#: in which same-cycle port grants and message tails are processed.
#: Granting a free port inline (no event pop) moves frame 1 to
#: 89127.582782; merging a message's head latency and receive work into
#: one event moves frame 3 to 109209.336814.
SOAK64_FRAME_CYCLES = [89166.29245941207, 108666.24407231664,
                       109189.33681425154]


def test_soak64_tie_order_sentinel():
    setup = make_setup("tiny", num_gpus=64, topology="switch")
    trace = generate_trace(setup.config, TraceGenConfig(
        seed=7, frames=3, frame_cycles=100_000, gpu_mttf_cycles=4e6,
        gpu_mttr_cycles=1e6))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "_SERVICE", RenderService())
        report = run_soak(trace, "chopin+sched", "wolf", setup)
    assert report.all_identical
    assert [f.frame_cycles for f in report.frames] == SOAK64_FRAME_CYCLES


if __name__ == "__main__":
    # one cell per line, so a timing change diffs cell by cell
    cells = sorted(build_cells().items())
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(_pinned(entry), sort_keys=True)}"
        for key, entry in cells) + "\n}\n")
