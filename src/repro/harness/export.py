"""Result export: serialize scheme runs to JSON or CSV.

For downstream analysis (plotting, spreadsheets) the harness can dump its
measurements in machine-readable form:

    rows = collect_rows(benchmarks, schemes, setup)
    write_csv(rows, "results.csv")
    write_json(rows, "results.json")
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Dict, Iterable, List, Union

from ..sfr.base import SchemeResult
from ..stats import (ALL_STAGES, SUMMARY_COLUMNS, SUMMARY_GROUPS,
                     RunStats)
from .runner import Setup, run_benchmark

PathLike = Union[str, pathlib.Path]

#: the flat columns a result row carries: measurements, then every export
#: group's counters (see repro.stats.SUMMARY_COLUMNS)
COLUMNS = ("benchmark", "scheme", "num_gpus", "scale", "status",
           "frame_cycles",
           "speedup_vs_duplication", "triangles", "fragments_shaded",
           "fragments_passed", "traffic_bytes") + tuple(
               f"cycles_{stage}" for stage in ALL_STAGES) + tuple(
               column for group in SUMMARY_GROUPS
               for column in SUMMARY_COLUMNS[group])

#: groups a failed job's placeholder row reports as zero; the fault
#: group describes the lost run itself, so it stays empty
_FAILED_ZERO_GROUPS = ("engine", "artifact", "serve", "pipeline")


def result_row(result: SchemeResult, setup: Setup,
               baseline_cycles: float) -> Dict[str, object]:
    """Flatten one run into an export row."""
    totals = result.stats.stage_cycle_totals()
    row: Dict[str, object] = {
        "benchmark": result.trace_name,
        "scheme": result.scheme,
        "num_gpus": result.num_gpus,
        "scale": setup.scale,
        "status": "ok",
        "frame_cycles": result.frame_cycles,
        "speedup_vs_duplication": baseline_cycles / result.frame_cycles,
        "triangles": result.stats.total_triangles,
        "fragments_shaded": result.stats.total_fragments_shaded,
        "fragments_passed": result.stats.total_fragments_passed,
        "traffic_bytes": result.stats.traffic_total(),
    }
    for stage in ALL_STAGES:
        row[f"cycles_{stage}"] = totals.get(stage, 0.0)
    for group in SUMMARY_GROUPS:
        row.update(result.stats.summary(group))
    return row


def failed_row(benchmark: str, scheme: str, setup: Setup,
               error: Exception) -> Dict[str, object]:
    """Placeholder row for a job that failed beyond its retry budget.

    Keeps the export schema intact so a salvaged sweep still writes a
    well-formed CSV: measurement columns are empty, ``status`` is
    ``failed``, and the supervision counters record the spent attempts.
    """
    row: Dict[str, object] = {column: "" for column in COLUMNS}
    row.update({
        "benchmark": benchmark, "scheme": scheme,
        "num_gpus": setup.config.num_gpus, "scale": setup.scale,
        "status": "failed",
    })
    # zero is written as integer 0 (flags as False), float counters too
    blank = RunStats(num_gpus=0)
    for group in _FAILED_ZERO_GROUPS:
        row.update({column: value if isinstance(value, bool) else 0
                    for column, value in blank.summary(group).items()})
    row["job_attempts"] = getattr(error, "attempts", 0)
    return row


def collect_rows(benchmarks: Iterable[str], schemes: Iterable[str],
                 setup: Setup) -> List[Dict[str, object]]:
    """Run (benchmark x scheme) and flatten everything into rows.

    Under an active experiment engine a job that fails beyond its retry
    budget contributes a ``status=failed`` placeholder row (and, when the
    baseline itself failed, so do all its dependents) instead of aborting
    the export.
    """
    from ..errors import HarnessError
    from .engine import active_engine
    engine = active_engine()
    if engine is not None:
        wanted = ["duplication"] + [s for s in schemes
                                    if s != "duplication"]
        engine.prefetch(wanted, list(benchmarks), setup)
    rows: List[Dict[str, object]] = []
    for bench in benchmarks:
        try:
            baseline = run_benchmark("duplication", bench, setup)
        except HarnessError as exc:
            rows.append(failed_row(bench, "duplication", setup, exc))
            rows.extend(failed_row(bench, scheme, setup, exc)
                        for scheme in schemes if scheme != "duplication")
            continue
        rows.append(result_row(baseline, setup, baseline.frame_cycles))
        for scheme in schemes:
            if scheme == "duplication":
                continue
            try:
                result = run_benchmark(scheme, bench, setup)
            except HarnessError as exc:
                rows.append(failed_row(bench, scheme, setup, exc))
                continue
            rows.append(result_row(result, setup, baseline.frame_cycles))
    return rows


def write_csv(rows: List[Dict[str, object]], path: PathLike) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_json(rows: List[Dict[str, object]], path: PathLike) -> None:
    with open(path, "w") as handle:
        json.dump(rows, handle, indent=2)


def read_rows(path: PathLike) -> List[Dict[str, object]]:
    """Load rows back from a JSON export."""
    with open(path) as handle:
        return json.load(handle)


#: per-frame soak export schema (see repro.harness.engine.run_soak)
SOAK_COLUMNS = ("benchmark", "scheme", "num_gpus", "trace_fingerprint",
                "frame_index", "fault_events", "bit_identical",
                "frame_cycles", "baseline_frame_cycles",
                "recovery_overhead_cycles", "failed_gpus",
                "redistributed_draws", "link_retries")


def soak_rows(report) -> List[Dict[str, object]]:
    """Flatten a :class:`~repro.harness.engine.SoakReport` into rows."""
    rows = []
    for frame in report.frames:
        rows.append({
            "benchmark": report.benchmark,
            "scheme": report.scheme,
            "num_gpus": report.num_gpus,
            "trace_fingerprint": report.trace_fingerprint,
            "frame_index": frame.frame_index,
            "fault_events": frame.fault_events,
            "bit_identical": frame.bit_identical,
            "frame_cycles": frame.frame_cycles,
            "baseline_frame_cycles": frame.baseline_frame_cycles,
            "recovery_overhead_cycles": frame.recovery_overhead_cycles,
            "failed_gpus": len(frame.failed_gpus),
            "redistributed_draws": frame.stats.redistributed_draws,
            "link_retries": frame.stats.link_retries,
        })
    return rows


def write_soak_csv(report, path: PathLike) -> None:
    """One CSV row per soak frame (schema: ``SOAK_COLUMNS``)."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=SOAK_COLUMNS)
        writer.writeheader()
        for row in soak_rows(report):
            writer.writerow(row)


#: serve export schema (see repro.serve.daemon.ServeReport): a leading
#: ``session=all`` aggregate row (the only one carrying the percentile,
#: queue-depth and degraded columns), then one row per client session
SERVE_SESSION_COLUMNS = ("benchmark", "scheme", "session", "submitted",
                         "admitted", "rejected", "throttled", "shed",
                         "completed", "requeues", "deadline_misses",
                         "artifact_hit_rate", "latency_mean_cycles",
                         "latency_max_cycles", "latency_p50_cycles",
                         "latency_p95_cycles", "latency_p99_cycles",
                         "queue_peak", "degraded_events",
                         "overlap_cycles", "overlapped_batches")


def serve_rows(report) -> List[Dict[str, object]]:
    """Flatten a :class:`~repro.serve.daemon.ServeReport` into rows."""
    stats = report.stats
    rows: List[Dict[str, object]] = [{
        "benchmark": "+".join(report.benchmarks),
        "scheme": report.scheme,
        "session": "all",
        "submitted": stats.serve_requests,
        "admitted": stats.serve_admitted,
        "rejected": stats.serve_rejected,
        "throttled": stats.serve_throttled,
        "shed": stats.serve_shed,
        "completed": stats.serve_completed,
        "requeues": stats.serve_requeued,
        "deadline_misses": stats.serve_deadline_misses,
        "artifact_hit_rate": report.artifact_hit_rate,
        "latency_mean_cycles": report.slo.mean_cycles,
        "latency_max_cycles": report.slo.max_cycles,
        "latency_p50_cycles": stats.serve_latency_p50_cycles,
        "latency_p95_cycles": stats.serve_latency_p95_cycles,
        "latency_p99_cycles": stats.serve_latency_p99_cycles,
        "queue_peak": stats.serve_queue_peak,
        "degraded_events": stats.serve_degraded_events,
        "overlap_cycles": stats.serve_overlap_cycles,
        "overlapped_batches": stats.serve_overlapped_batches,
    }]
    for session in report.sessions:
        rows.append({
            "benchmark": "+".join(report.benchmarks),
            "scheme": report.scheme,
            "session": session.session,
            "submitted": session.submitted,
            "admitted": session.admitted,
            "rejected": session.rejected,
            "throttled": session.throttled,
            "shed": session.shed,
            "completed": session.completed,
            "requeues": session.requeues,
            "deadline_misses": session.deadline_misses,
            "artifact_hit_rate": session.hit_rate,
            "latency_mean_cycles": session.latency_mean_cycles,
            "latency_max_cycles": session.latency_max_cycles,
            "latency_p50_cycles": "", "latency_p95_cycles": "",
            "latency_p99_cycles": "", "queue_peak": "",
            "degraded_events": "",
            "overlap_cycles": "", "overlapped_batches": "",
        })
    return rows


def write_serve_csv(report, path: PathLike) -> None:
    """Aggregate + per-session CSV (schema: ``SERVE_SESSION_COLUMNS``)."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=SERVE_SESSION_COLUMNS)
        writer.writeheader()
        for row in serve_rows(report):
            writer.writerow(row)


def write_serve_json(report, path: PathLike) -> None:
    """Full serve report (counters, SLOs, sessions, events) as JSON."""
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2)
