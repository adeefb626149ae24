"""Wall-clock benchmark of the reproduction: four workloads, one runner.

    python3 perf/run.py                      # every workload, seed 0
    python3 perf/run.py --seed 1 --json perf/out/seed1.json
    python3 perf/run.py --trace              # traced run, per-layer table
    python3 perf/run.py --workload soak64 --seed 3 --seconds 20 --trace 0

Without ``--workload`` each workload runs in a fresh child process (this
script again), one at a time, so "cold" is cold and peak RSS is per
workload. A workload run times ``SETUP_REPS`` imports of the program in
fresh interpreters and ``SETUP_REPS`` set-ups of its inputs, then runs
its op kinds in turn until each ran once and ``--seconds`` have passed,
checking every op's outputs. End-to-end host times are scaled to a
reference host by the speed probe of ``perf/probe.py``, timed before
every op. The last line of standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json``, or its ``per_layer``
metrics with ``--trace 1``). The exit code is 0 only if every check
passed.
"""

import argparse
import hashlib
import itertools
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out"
PINNED = ROOT / "perf" / "pinned_digests.json"
#: each workload process runs its numeric libraries on one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: imports and set-ups per untraced run; ``setup_s`` sums their medians
SETUP_REPS = 3
#: what a fresh interpreter runs to time the program's imports
IMPORT_PROBE = ("import time; started = time.perf_counter(); "
                "import perf.workloads; "
                "print(time.perf_counter() - started)")


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class OpLoop:
    """Runs one workload's ops in turn and checks every output."""

    def __init__(self, workload, pinned, probe) -> None:
        self.workload = workload
        self.pinned = pinned
        self.probe = probe
        self.kinds = workload.kinds()
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.probe_seconds = []

    def run_for(self, seconds: float, tracer=None) -> dict:
        """Ops in kind order until every kind ran once and ``seconds``
        passed; returns op seconds per kind."""
        durations = {kind: [] for kind in self.kinds}
        started = time.perf_counter()
        for kind in itertools.cycle(self.kinds):
            if all(durations.values()) \
                    and time.perf_counter() - started >= seconds:
                return durations
            durations[kind].append(self._op(kind, tracer))

    def _op(self, kind: str, tracer) -> float:
        # two host-speed probes per op, so that workloads with a few long
        # ops still get a steady median
        self.probe_seconds += [self.probe(), self.probe()]
        op_id = f"{self.attempted}:{kind}"
        self.attempted += 1
        started = time.perf_counter()
        try:
            if tracer is None:
                digest, problems = self.workload.run_op(kind)
            else:
                digest, problems = tracer.op(
                    op_id, lambda: self.workload.run_op(kind))
        except Exception as exc:  # an op that raises counts as failed
            traceback.print_exc()
            digest, problems = None, [f"{kind}: raised {exc!r}"]
        elapsed = time.perf_counter() - started
        if digest is not None:
            first = self.first.setdefault(kind, digest)
            if digest != first:
                problems.append(f"{kind}: digest {digest[:16]} does not "
                                f"repeat the first op's {first[:16]}")
            if self.pinned is not None and digest != self.pinned.get(kind):
                problems.append(f"{kind}: digest {digest[:16]} is not the "
                                f"pinned {str(self.pinned.get(kind))[:16]}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed

    def items_per_s(self, durations: dict) -> float:
        """Items of one op per kind over the sum of per-kind median op
        times."""
        items = sum(self.workload.items(kind) for kind in self.kinds)
        return items / sum(statistics.median(durations[kind])
                           for kind in self.kinds)


def import_seconds() -> list:
    """Seconds each of ``SETUP_REPS`` fresh interpreters takes to import
    the program."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]))
    return [float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True).stdout)
        for _ in range(SETUP_REPS)]


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set up and measure one workload in this process."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from perf import probe
    from perf import trace as tracing
    from perf import workloads

    workload = workloads.WORKLOADS[name]()
    pinned_doc = json.loads(PINNED.read_text())
    pinned = (pinned_doc["digests"].get(name, {})
              if seed == pinned_doc["seed"] else None)
    tracer = tracing.Tracer() if traced else None
    imports = [] if traced else import_seconds()
    setup_times = []
    for _ in range(1 if traced else SETUP_REPS):
        started = time.perf_counter()
        if tracer is None:
            workload.setup(seed)
        else:
            with tracer:
                workload.setup(seed)
        setup_times.append(time.perf_counter() - started)

    loop = OpLoop(workload, pinned, probe.probe)
    host = {}
    if tracer is None:
        durations = loop.run_for(seconds)
        host = {"items_per_s": loop.items_per_s(durations),
                "setup_s": (statistics.median(imports)
                            + statistics.median(setup_times)),
                "probe_s": statistics.median(loop.probe_seconds)}
        # host speed relative to the reference host (below 1 when slower)
        speed = probe.REFERENCE_S / host["probe_s"]
        metrics = {
            "items_per_ref_s": host["items_per_s"] / speed,
            "setup_s": host["setup_s"] * speed,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        # half the time untraced, half traced: their ratio is the overhead
        untraced = loop.run_for(seconds / 2)
        first_traced = loop.attempted
        with tracer:
            durations = loop.run_for(seconds / 2, tracer)
        traced_ops = [span[4] for span in tracer.spans
                      if span[0] == tracing.OP_SPAN]
        metrics = tracing.layer_metrics(tracer, traced_ops)
        metrics["trace.overhead"] = (loop.items_per_s(untraced)
                                     / loop.items_per_s(durations))
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{name}.json", workload=name, seed=seed,
                     first_traced_op=first_traced)
    return {"correct": loop.failed == 0 and loop.attempted > 0,
            "attempted": loop.attempted, "failed": loop.failed,
            "metrics": metrics, "host": host, "digests": loop.first,
            "op_seconds": durations, "setup_seconds": setup_times,
            "import_seconds": imports, "problems": loop.problems}


def declared_metrics(result: dict, traced: bool) -> dict:
    """The declared metrics of one mode, with units; 0 if not measured."""
    declared = declaration()["per_layer" if traced else "end_to_end"]
    return {m["name"]: {"value": float(result["metrics"].get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in declared}


def print_result(name: str, result: dict, traced: bool) -> None:
    counts = ", ".join(f"{kind} x{len(times)}"
                       for kind, times in result["op_seconds"].items())
    print(f"{name}: {result['attempted']} ops, {result['failed']} failed; "
          f"{'traced' if traced else 'timed'}: {counts}")
    for kind, value in sorted(result["digests"].items()):
        print(f"  digest {kind:<24} {value}")
    for metric, entry in declared_metrics(result, traced).items():
        print(f"  {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    for metric, value in result["host"].items():
        print(f"  {'unscaled ' + metric:<34} {value:>16.6g}")
    for problem in result["problems"]:
        print(f"error: {problem}", file=sys.stderr)


def fingerprint(seed: int) -> dict:
    """What a results file was measured on (see ``perf/compare.py``)."""
    import numpy
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        sources.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": sources.hexdigest(),
            "benchmark_sha256": hashlib.sha256(
                (ROOT / "BENCHMARK.json").read_bytes()).hexdigest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "seed": seed}


def write_results(path: str, seed: int, seconds: float, traced: bool,
                  results: dict) -> None:
    doc = {"fingerprint": fingerprint(seed), "seconds": seconds,
           "trace": int(traced),
           "end_to_end": declaration()["end_to_end"],
           "workloads": results}
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def run_children(names, seed: int, seconds: float, traced: bool) -> dict:
    """Each workload in its own single-threaded child, one at a time."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    results = {}
    for name in names:
        detail = OUT / f"result-{name}.json"
        # a child that crashes also exits 1; it must not be read as the
        # result an earlier run left here
        detail.unlink(missing_ok=True)
        child = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced)),
             "--json", str(detail)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode not in (0, 1) or not detail.exists():
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}, "problems": [
                                 f"child exited {child.returncode}"]}
            continue
        results[name] = json.loads(detail.read_text())["workloads"][name]
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark of the CHOPIN reproduction.")
    parser.add_argument("--workload",
                        help="run one workload in this process "
                             "(default: all, each in a child process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 is pinned, 1 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the results, with a fingerprint")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    decl = declaration()
    names = [w["name"] for w in decl["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {names}")
    seconds = args.seconds if args.seconds is not None \
        else decl["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")
    traced = bool(args.trace)
    os.chdir(ROOT)

    if args.workload is not None:
        result = run_workload(args.workload, args.seed, seconds, traced)
        print_result(args.workload, result, traced)
        if args.json:
            write_results(args.json, args.seed, seconds, traced,
                          {args.workload: result})
        print(json.dumps({"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": declared_metrics(result, traced)}))
        return 0 if result["correct"] else 1

    results = run_children(names, args.seed, seconds, traced)
    if args.json:
        write_results(args.json, args.seed, seconds, traced, results)
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{name}/{metric}": entry
                           for name, r in results.items()
                           for metric, entry in declared_metrics(
                               r, traced).items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    # the repository root, not perf/, goes first: perf/trace.py must not
    # shadow the standard library's trace module
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    sys.exit(main())
