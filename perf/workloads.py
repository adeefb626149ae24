"""The benchmark's four workloads.

Each workload builds its inputs from the seed through public APIs
(:meth:`setup`), then offers a fixed list of op kinds. One op is one call
into the program; it returns a digest of the op's simulated outputs and
the invariant violations it found. The runner cycles through the kinds
in order. All four workloads are closed loop with one client: the next
op starts only after the previous one returned.

Calls that the tracer wraps are made through module attributes
(``runner.run``, ``engine.run_soak``, ...), so a patched attribute is
seen at call time.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence, Tuple

from repro import validation
from repro.analysis import baseline as lint_baseline
from repro.analysis import simlint
from repro.faults import traces as failure_traces
from repro.harness import engine, runner
from repro.render import render_service
from repro.serve import daemon, loadgen
from repro.traces import benchmarks as trace_suite

OpResult = Tuple[str, List[str]]


def digest(value: object) -> str:
    """sha256 of the canonical JSON of ``value`` (floats keep every bit)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cold_caches() -> None:
    trace_suite.clear_cache()
    render_service().reset()


class FragCold:
    """Cold renders: each op re-renders a frame from an empty artifact store.

    ``duplication`` runs the single-GPU reference pass and
    ``chopin+sched`` the per-GPU functional pass, so fragment and
    geometry work dominate and the DES is a small share.
    """

    name = "frag-cold"
    item = "frame"
    NUM_GPUS = 8
    BENCHMARKS = ("wolf", "cod2")
    SCHEMES = ("duplication", "chopin+sched")

    def __init__(self, scale: str = "small") -> None:
        self.scale = scale

    def setup(self, seed: int) -> None:
        _cold_caches()
        self.config = runner.make_setup(self.scale, num_gpus=self.NUM_GPUS)
        self.traces = {
            bench: trace_suite.load_benchmark_variant(
                bench, self.scale, seed_offset=seed)
            for bench in self.BENCHMARKS}
        self.reference_checksum: Dict[str, str] = {}

    def kinds(self) -> List[str]:
        return [f"{bench}/{scheme}" for bench in self.BENCHMARKS
                for scheme in self.SCHEMES]

    def items(self, kind: str) -> int:
        return 1

    def run_op(self, kind: str) -> OpResult:
        bench, scheme = kind.split("/")
        render_service().reset()
        result = runner.run(scheme, self.traces[bench], self.config,
                            use_cache=False)
        stats = result.stats
        checksum = validation.image_checksum(result.image)
        fragments = {
            field: sum(getattr(gpu, field) for gpu in stats.gpus)
            for field in ("fragments_generated", "fragments_early_z_tested",
                          "fragments_passed_early_z",
                          "fragments_passed_late", "fragments_shaded")}
        outputs = {"checksum": checksum,
                   "frame_cycles": result.frame_cycles,
                   "stage_cycles": stats.stage_cycle_totals(),
                   "traffic_bytes": stats.traffic_total(),
                   "fragments": fragments}
        problems = []
        reference = self.reference_checksum.setdefault(bench, checksum)
        if checksum != reference:
            problems.append(f"{kind}: image checksum {checksum[:12]} differs "
                            f"from the other scheme's {reference[:12]}")
        return digest(outputs), problems


class Soak64:
    """Multi-frame soak of a 64-GPU switch fabric under a failure trace.

    The functional prep is warmed in setup by one fault-free run per
    scheme; each op drops only the stored scheme results, so the DES,
    the timing model and fail-stop repair do the work.
    """

    name = "soak64"
    item = "frame"
    BENCHMARK = "wolf"
    SCALE = "tiny"
    TOPOLOGY = "switch"
    FRAME_CYCLES = 100_000.0
    GPU_MTTF_CYCLES = 4_000_000.0
    GPU_MTTR_CYCLES = 1_000_000.0
    SCHEMES = ("chopin+sched", "dfb")

    def __init__(self, num_gpus: int = 64, frames: int = 5) -> None:
        self.num_gpus = num_gpus
        self.frames = frames

    def setup(self, seed: int) -> None:
        _cold_caches()
        self.config = runner.make_setup(self.SCALE, num_gpus=self.num_gpus,
                                        topology=self.TOPOLOGY)
        # link and degrade episodes keep their generator defaults, as in
        # the CI soak-smoke trace
        self.failures = failure_traces.generate_trace(
            self.config.config, failure_traces.TraceGenConfig(
                seed=7 + seed, frames=self.frames,
                frame_cycles=self.FRAME_CYCLES,
                gpu_mttf_cycles=self.GPU_MTTF_CYCLES,
                gpu_mttr_cycles=self.GPU_MTTR_CYCLES))
        trace = trace_suite.load_benchmark(self.BENCHMARK, self.SCALE)
        for scheme in self.SCHEMES:
            runner.run(scheme, trace, self.config)

    def kinds(self) -> List[str]:
        return list(self.SCHEMES)

    def items(self, kind: str) -> int:
        return self.frames

    def run_op(self, kind: str) -> OpResult:
        render_service().reset("result")
        report = engine.run_soak(self.failures, kind, self.BENCHMARK,
                                 self.config)
        outputs = {"frames": [[frame.frame_cycles, list(frame.failed_gpus)]
                              for frame in report.frames],
                   "all_identical": report.all_identical}
        problems = [] if report.all_identical else [
            f"{kind}: a soak frame diverged from the fault-free oracle"]
        return digest(outputs), problems


#: ServeReport fields that describe artifact-store reuse: they depend on
#: what earlier ops left in the store, not on the simulation
_SERVE_STORE_FIELDS = ("artifact_hit_rate",)
_SESSION_STORE_FIELDS = ("artifact_hits", "hit_rate")


class ServeOverload:
    """The frame-serving daemon at twice its capacity, with GPU failures.

    Arrivals are open loop in *virtual* time only; the benchmark calls
    ``serve()`` closed loop. Every render is a store hit after setup's
    calibration, so the DES kernel does the work.
    """

    name = "serve-overload"
    item = "request"
    SCHEME = "chopin+sched"
    SCALE = "tiny"
    GROUPS = 2
    GROUP_GPUS = 2
    BENCHMARKS = ("wolf", "cod2")
    SESSIONS = 4
    RATE_X = 2.0
    QUEUE_LIMIT = 16
    BATCH_LIMIT = 2
    #: the pool's failure trace spans the workload in this many windows
    FAULT_WINDOWS = 40

    def __init__(self, duration_x: float = 25_000.0) -> None:
        self.duration_x = duration_x

    def setup(self, seed: int) -> None:
        _cold_caches()
        self.config = runner.make_setup(self.SCALE,
                                        num_gpus=self.GROUP_GPUS)
        _, mean_cycles = loadgen.calibrate_service_cycles(
            self.SCHEME, self.BENCHMARKS, self.config)
        profile = loadgen.LoadProfile(
            kind="steady", sessions=self.SESSIONS, rate_x=self.RATE_X,
            duration_x=self.duration_x, seed=3 + seed)
        self.workload = loadgen.generate_workload(
            profile, self.BENCHMARKS, mean_cycles, self.GROUPS)
        pool = runner.make_setup(self.SCALE,
                                 num_gpus=self.GROUPS * self.GROUP_GPUS)
        duration = self.workload.duration_cycles
        failures = failure_traces.generate_trace(
            pool.config, failure_traces.TraceGenConfig(
                seed=5 + seed, frames=self.FAULT_WINDOWS,
                frame_cycles=duration / self.FAULT_WINDOWS,
                link_mttf_cycles=None, degrade_mttf_cycles=None,
                gpu_mttf_cycles=duration / 8,
                gpu_mttr_cycles=duration / 40))
        failure_traces.validate_trace(failures, pool.config)
        self.fault_events = daemon.gpu_events_from_trace(failures)

    def kinds(self) -> List[str]:
        return ["serve"]

    def items(self, kind: str) -> int:
        return len(self.workload.arrivals)

    def run_op(self, kind: str) -> OpResult:
        server = daemon.FrameServer(
            self.SCHEME, self.config, self.workload, groups=self.GROUPS,
            queue_limit=self.QUEUE_LIMIT, batch_limit=self.BATCH_LIMIT,
            pipeline_overlap=True, fault_events=self.fault_events)
        report = server.serve()
        outputs = report.to_dict()
        for key in _SERVE_STORE_FIELDS:
            outputs.pop(key)
        for session in outputs["sessions"]:
            for key in _SESSION_STORE_FIELDS:
                session.pop(key)
        outputs["stats"] = {key: value for key, value
                            in outputs["stats"].items()
                            if not key.startswith("artifact_")}
        stats = report.stats
        problems = []
        handled = (stats.serve_completed + stats.serve_rejected
                   + stats.serve_throttled + stats.serve_shed)
        if handled != stats.serve_requests:
            problems.append(f"serve: completed+rejected+throttled+shed = "
                            f"{handled}, requests = {stats.serve_requests}")
        if report.degraded:
            problems.append("serve: the run ended degraded")
        return digest(outputs), problems


class LintDeep:
    """One ``lint --deep`` pass over the repository's own sources.

    The input is the source tree, so the seed does not change it.
    """

    name = "lint-deep"
    item = "pass"

    def __init__(self, paths: Sequence[str] = ("src/repro",),
                 baseline: str = "analysis-baseline.json") -> None:
        self.paths = [str(path) for path in paths]
        self.baseline = baseline

    def setup(self, seed: int) -> None:
        self.known = lint_baseline.load_baseline(self.baseline)

    def kinds(self) -> List[str]:
        return ["lint"]

    def items(self, kind: str) -> int:
        return 1

    def run_op(self, kind: str) -> OpResult:
        findings = simlint.lint_paths(self.paths, deep=True)
        keys = sorted(lint_baseline.finding_key(f) for f in findings)
        errors = [f for f in findings if f.severity == "error"]
        new, _ = lint_baseline.filter_baselined(errors, self.known)
        problems = [f"lint: {f.location}: {f.rule}: {f.message}"
                    for f in new]
        return digest([list(key) for key in keys]), problems


WORKLOADS = {cls.name: cls for cls in (FragCold, Soak64, ServeOverload,
                                       LintDeep)}
