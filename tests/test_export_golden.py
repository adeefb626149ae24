"""Golden pins for the export and run-journal formats.

The files under ``tests/golden/`` hold the exact bytes ``write_csv``,
``write_soak_csv`` and ``write_serve_csv`` produced, the ``to_dict``
snapshots of a degraded run and of a serve run, and one journal payload,
all written by :func:`build_goldens` below. A diff here means an export
or journal format changed: downstream spreadsheets, plots and resumable
journals depend on these staying stable.

Every run happens on an isolated, empty render service in a fixed order,
so the artifact-store counters the rows carry are deterministic.
"""

import json
import pathlib

import pytest

from repro.faults import parse_fault_plan
from repro.faults.traces import TraceGenConfig, generate_trace
from repro.harness.engine import (_payload_from_result, result_from_payload,
                                  run_soak)
from repro.harness.export import (failed_row, result_row, write_csv,
                                  write_serve_csv, write_soak_csv)
from repro.harness.runner import make_setup, run
from repro.render import service as service_module
from repro.render.service import RenderService
from repro.serve import (FrameServer, LoadProfile, calibrate_service_cycles,
                         generate_workload)
from repro.stats import RunStats
from repro.traces import load_benchmark

GOLDEN = pathlib.Path(__file__).parent / "golden"

CSV_FILES = ("rows.csv", "soak.csv", "serve.csv")
JSON_FILES = ("degraded_stats.json", "serve_stats.json",
              "journal_payload.json")


def build_goldens(tmp: pathlib.Path) -> dict:
    """Run the pinned scenarios; return {golden file name: text}."""
    wolf = load_benchmark("wolf", "tiny")
    out = {}

    clean = make_setup("tiny", num_gpus=8)
    baseline = run("duplication", wolf, clean)
    faulted = make_setup("tiny", num_gpus=8,
                         faults=parse_fault_plan("fail=2@50000"))
    degraded = run("chopin+sched", wolf, faulted)
    error = RuntimeError("worker crashed")
    error.attempts = 3
    rows = [result_row(baseline, clean, baseline.frame_cycles),
            result_row(degraded, faulted, baseline.frame_cycles),
            failed_row("wolf", "gpupd", clean, error)]
    write_csv(rows, tmp / "rows.csv")
    out["degraded_stats.json"] = json.dumps(degraded.stats.to_dict())

    windowed = run("chopin+sched", wolf,
                   make_setup("tiny", num_gpus=8, pipeline_depth=2))
    out["journal_payload.json"] = json.dumps(_payload_from_result(windowed))

    trace = generate_trace(clean.config, TraceGenConfig(
        seed=11, frames=3, frame_cycles=100_000.0,
        gpu_mttf_cycles=400_000.0, gpu_mttr_cycles=100_000.0))
    write_soak_csv(run_soak(trace, "chopin+sched", "wolf", clean),
                   tmp / "soak.csv")

    group = make_setup("tiny", num_gpus=2)
    _, mean_cycles = calibrate_service_cycles("chopin+sched", ["wolf"],
                                              group)
    workload = generate_workload(
        LoadProfile(sessions=3, rate_x=4.0, duration_x=20.0, seed=1),
        ["wolf"], mean_cycles, groups=2)
    report = FrameServer("chopin+sched", group, workload, groups=2,
                         batch_limit=2, pipeline_overlap=True).serve()
    write_serve_csv(report, tmp / "serve.csv")
    out["serve_stats.json"] = json.dumps(report.stats.to_dict())

    for name in CSV_FILES:
        out[name] = (tmp / name).read_bytes().decode()
    return out


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "_SERVICE", RenderService())
        yield build_goldens(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", CSV_FILES)
def test_csv_bytes_match_golden(built, name):
    pinned = (GOLDEN / name).read_bytes().decode()
    assert built[name] == pinned


@pytest.mark.parametrize("name", JSON_FILES)
def test_json_matches_golden(built, name):
    pinned = json.loads((GOLDEN / name).read_text())
    assert json.loads(built[name]) == pinned


def test_pinned_journal_payload_replays_to_equal_stats(built):
    pinned = json.loads((GOLDEN / "journal_payload.json").read_text())
    fresh = json.loads(built["journal_payload.json"])
    replayed = result_from_payload(pinned)
    assert replayed.stats == RunStats.from_dict(fresh["stats"])
    assert replayed.stats.to_dict() == fresh["stats"]
