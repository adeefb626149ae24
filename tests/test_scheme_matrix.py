"""Cycle-exact pin of every registered scheme, one hash per cell.

``tests/golden/scheme_matrix.json`` holds, for every cell of the
scheme x GPU count x topology x fault plan matrix below (wolf, tiny
scale, race sanitizer on at 4 GPUs), the sha256 of the frame cycles, the
full ``RunStats.to_dict()`` snapshot and the image checksum. Every entry
of ``SCHEMES`` is covered. The fail-stop plan runs only on the CHOPIN
family, the schemes that can recover from it; they are also the only
ones that read ``pipeline_depth``, so they alone get ``pipeline_depth=2``
cells (switch fabric only, to keep the matrix fast). A mismatch means
simulated timing, counters or the image moved. The timing golden
(``test_chopin_timing_golden.py``) keeps full snapshots of the CHOPIN
transports, so a move there reads as a diff; this matrix is the wide net
over the schemes it does not pin. The snapshot includes the artifact-store
counters that ``run`` stamps on each result, so the cells run in a fixed
order on a fresh render service, and a change to what the store caches
moves cells too.

Regenerate the golden file (only when a model change is intended) with::

    PYTHONPATH=src python tests/test_scheme_matrix.py
"""

import hashlib
import itertools
import json
import pathlib

import pytest

from repro.faults import parse_fault_plan
from repro.harness.runner import SCHEMES, make_setup, run
from repro.render import service as service_module
from repro.render.service import RenderService
from repro.traces import load_benchmark
from repro.validation import image_checksum

GOLDEN = pathlib.Path(__file__).parent / "golden" / "scheme_matrix.json"

GPU_COUNTS = (4, 16)
TOPOLOGIES = (None, "bus", "ring", "switch")
FAULT_PLANS = (None, "seed=3,drop=0.02,corrupt=0.01",
               "slow=10000:60000:0.25", "fail=1@40000")
FAIL_STOP = FAULT_PLANS[-1]
CHOPIN_FAMILY = tuple(name for name, cls in SCHEMES.items()
                      if cls.supports_fail_stop)


def _cells():
    for scheme, gpus, topology, faults in itertools.product(
            SCHEMES, GPU_COUNTS, TOPOLOGIES, FAULT_PLANS):
        if faults == FAIL_STOP and scheme not in CHOPIN_FAMILY:
            continue
        yield scheme, gpus, topology, faults, None
        if scheme in CHOPIN_FAMILY and topology == "switch":
            yield scheme, gpus, topology, faults, 2


CELLS = list(_cells())


def cell_id(scheme, gpus, topology, faults, depth) -> str:
    return (f"{scheme}|gpus={gpus}|topology={topology or 'default'}"
            f"|faults={faults or 'none'}|depth={depth}")


def cell_digest(result) -> str:
    pinned = [result.stats.frame_cycles, result.stats.to_dict(),
              image_checksum(result.image)]
    return hashlib.sha256(
        json.dumps(pinned, sort_keys=True).encode()).hexdigest()


def build_cells() -> dict:
    """Run every cell in a fixed order on the ambient render service."""
    wolf = load_benchmark("wolf", "tiny")
    out = {}
    for cell in CELLS:
        scheme, gpus, topology, faults, depth = cell
        setup = make_setup(
            "tiny", num_gpus=gpus, topology=topology, sanitize=gpus == 4,
            pipeline_depth=depth,
            faults=parse_fault_plan(faults) if faults is not None else None)
        out[cell_id(*cell)] = cell_digest(run(scheme, wolf, setup))
    return out


def test_matrix_matches_golden(monkeypatch):
    monkeypatch.setattr(service_module, "_SERVICE", RenderService())
    built = build_cells()
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(built)
    moved = sorted(key for key in built if built[key] != golden[key])
    assert not moved, f"{len(moved)} cells moved: {moved}"


if __name__ == "__main__":
    # one cell per line, so a model change diffs cell by cell
    cells = sorted(build_cells().items())
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(digest)}"
        for key, digest in cells) + "\n}\n")
