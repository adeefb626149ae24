"""Per-layer spans, recorded from outside the program.

:class:`Tracer` replaces public functions at their import sites with
wrappers and puts the originals back on :meth:`Tracer.restore`. A timed
wrapper records a span (name, start, end, parent span, op id); a counted
wrapper only adds to a counter. Calls that return a generator the
simulator drives later (``Interconnect.transfer``, process bodies) are
counted, never timed: the call only creates the generator, and their
bodies run inside ``Simulator.run``. ``Simulator.step`` is counted too,
because a span per DES event would mean about a million spans per op.

Self time is a span's duration minus the part of it its child spans
cover. :func:`layer_metrics` turns the spans and counters of the traced
ops into the ``<module>.<metric>`` numbers the benchmark declares.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pathlib
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: span name of the benchmark's own root span around one op
OP_SPAN = "op"
#: op id of spans recorded while the workload sets up
SETUP_OP = "setup"

#: span name -> import sites ``module:attribute[.attribute]`` it times
TIMED_SITES = {
    "render.fragment": ["repro.render.service:fragment_phase"],
    "render.geometry": ["repro.render.service:geometry_phase"],
    "render.reference": ["repro.render.service:RenderService.reference_pass"],
    "render.store": ["repro.render.store:ArtifactStore.get",
                     "repro.render.store:ArtifactStore.put",
                     "repro.render.service:store_key"],
    "composition": ["repro.sfr.chopin:composite_opaque",
                    "repro.sfr.chopin:blend_merge",
                    "repro.sfr.chopin:resolve_to_background"],
    "core.plan": ["repro.sfr.chopin:plan_trace_frame"],
    "sim.run": ["repro.sim.core:Simulator.run"],
    "faults": ["repro.faults.traces:plan_for_window",
               "repro.faults.traces:validate_trace"],
    "stats": ["repro.stats:RunStats.to_dict",
              "repro.stats:RunStats.from_dict"],
    "harness": ["repro.harness.runner:run",
                "repro.harness.engine:run_soak"],
    "serve": ["repro.serve.daemon:FrameServer.serve"],
    "traces.synthesize": ["repro.traces.benchmarks:synthesize"],
    "analysis": ["repro.analysis.simlint:lint_paths"],
    "analysis.parse": ["repro.analysis.flow:Project.from_paths"],
    "analysis.stmt": ["repro.analysis.simlint:lint_file"],
}


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.origin = clock()
        #: one ``[name, start, end, parent index, op id]`` per span
        self.spans: List[list] = []
        #: running counters; :meth:`op` stores each op's growth
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_counts: Dict[str, Dict[str, float]] = {}
        self.op_id = SETUP_OP
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock() - self.origin, None, parent,
                           self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock() - self.origin
        self._stack.pop()

    def timed(self, name: str, fn: Callable,
              on_result: Optional[Callable[[object], None]] = None
              ) -> Callable:
        """``fn`` inside a span; a returned generator is exhausted in it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):
                    result = list(result)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counted(self, name: str, fn: Callable,
                amount: Optional[Callable[..., float]] = None,
                amount_name: str = "") -> Callable:
        """``fn`` unchanged, with its calls (and an amount) counted."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if amount is not None:
                counts[amount_name] += amount(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def op(self, op_id: str, fn: Callable[[], object]) -> object:
        """Run one benchmark op under a root span; record its counters,
        with the artifact store's own hit/miss growth."""
        from repro.render.service import render_service
        service = render_service()
        before = dict(self.counts)
        self.op_id = op_id
        index = self.begin(OP_SPAN)
        try:
            with service.scoped_counters() as store:
                return fn()
        finally:
            self.end(index)
            self.op_id = SETUP_OP
            self.counts["render.store_lookups"] += store.hits + store.misses
            self.counts["render.store_hits"] += store.hits
            self.op_counts[op_id] = {
                key: value - before.get(key, 0.0)
                for key, value in self.counts.items()
                if value != before.get(key, 0.0)}

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attr: str,
              make_wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(original)``.

        Class-level ``classmethod``/``staticmethod`` descriptors are
        unwrapped and re-wrapped, so the original descriptor object is
        what :meth:`restore` puts back.
        """
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(make_wrapper(original.__func__))
        else:
            wrapped = make_wrapper(original)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def patch_site(self, site: str,
                   make_wrapper: Callable[[Callable], Callable]) -> None:
        """Patch ``module:attr`` or ``module:Class.attr``.

        A site the program no longer has raises :class:`LookupError`: a
        renamed function must fail the traced run, not zero its layer.
        """
        module_name, _, path = site.partition(":")
        owner: object = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        if owner is None or attr not in vars(owner):
            raise LookupError(f"trace site {site} not found in the program")
        self.patch(owner, attr, make_wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        for name, sites in TIMED_SITES.items():
            hook = _RESULT_HOOKS.get(name)
            for site in sites:
                self.patch_site(site, lambda fn, name=name, hook=hook:
                                self.timed(name, fn, hook and hook(self)))
        for owner, attr, name in _dynamic_timed_sites():
            self.patch(owner, attr, lambda fn, name=name: self.timed(name, fn))
        self.patch_site("repro.sim.core:Simulator.step",
                        lambda fn: self.counted("sim.events", fn))
        self.patch_site("repro.sim.core:Simulator.process",
                        lambda fn: self.counted("sim.processes", fn))
        self.patch_site(
            "repro.timing.interconnect:Interconnect.transfer",
            lambda fn: self.counted("timing.transfers", fn,
                                    amount=_transfer_bytes,
                                    amount_name="timing.bytes"))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output ------------------------------------------------------------

    def write(self, path: pathlib.Path, **header: object) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, fields=["name", "start_s", "end_s", "parent",
                                   "op"],
                   spans=self.spans, op_counts=self.op_counts)
        path.write_text(json.dumps(doc) + "\n")


def _transfer_bytes(self, src, dst, num_bytes, *args, **kwargs) -> float:
    return num_bytes


def _fragment_hook(tracer: Tracer) -> Callable[[object], None]:
    def hook(metrics) -> None:
        tracer.counts["render.fragments"] += metrics.fragments_generated
    return hook


def _serve_hook(tracer: Tracer) -> Callable[[object], None]:
    def hook(report) -> None:
        tracer.counts["serve.requests"] += report.stats.serve_requests
    return hook


_RESULT_HOOKS = {"render.fragment": _fragment_hook,
                 "serve": _serve_hook}


def _dynamic_timed_sites() -> Iterable[tuple]:
    """Sites found by walking the program: scheme ``run`` methods, the
    ``faults.degraded`` functions ``sfr.chopin`` imports, and each default
    deep-lint pass's ``check_project``."""
    from repro.analysis import rules
    from repro.harness.runner import SCHEMES
    from repro.sfr import chopin
    classes = {klass for scheme in SCHEMES.values()
               for klass in scheme.__mro__ if "run" in vars(klass)}
    for klass in sorted(classes, key=lambda k: k.__qualname__):
        yield klass, "run", "sfr"
    for attr, value in sorted(vars(chopin).items()):
        if getattr(value, "__module__", "") == "repro.faults.degraded" \
                and inspect.isfunction(value):
            yield chopin, attr, "faults"
    for rule in rules.default_project_rules():
        klass = type(rule)
        if "check_project" in vars(klass):
            yield klass, "check_project", f"analysis.{rule.name}"


# ------------------------------------------------------------- arithmetic


def covered(intervals: Iterable[Sequence[float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        inside = [(max(s, start), min(e, end))
                  for s, e in children.get(index, ())
                  if min(e, end) > max(s, start)]
        result.append((end - start) - covered(inside))
    return result


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, traced_ops: Sequence[str]
                  ) -> Dict[str, float]:
    """Per-layer numbers of ``traced_ops``, per op unless a ratio.

    ``<layer>_s`` is self time in seconds per op; counts are per op;
    ``traces.synthesize_s`` comes from the set-up spans.
    """
    ops = set(traced_ops)
    n_ops = len(ops)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    setup_self: Dict[str, float] = defaultdict(float)
    op_total = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, parent, op = span
        if op in ops:
            self_s[name] += own
            calls[name] += 1
            if name == OP_SPAN:
                op_total += end - start
        elif op == SETUP_OP:
            setup_self[name] += own
    counts: Dict[str, float] = defaultdict(float)
    for op in ops:
        for key, value in tracer.op_counts.get(op, {}).items():
            counts[key] += value

    metrics = {
        "render.fragment_calls": calls["render.fragment"] / n_ops,
        "render.fragments_per_s": _ratio(counts["render.fragments"],
                                         self_s["render.fragment"]),
        "render.geometry_calls": calls["render.geometry"] / n_ops,
        "render.store_lookups": counts["render.store_lookups"] / n_ops,
        "render.store_hit_rate": _ratio(counts["render.store_hits"],
                                        counts["render.store_lookups"]),
        "composition.s": self_s["composition"] / n_ops,
        "composition.calls": calls["composition"] / n_ops,
        "faults.s": self_s["faults"] / n_ops,
        "stats.s": self_s["stats"] / n_ops,
        "sim.events": counts["sim.events"] / n_ops,
        "sim.processes": counts["sim.processes"] / n_ops,
        "sim.us_per_event": 1e6 * _ratio(self_s["sim.run"],
                                         counts["sim.events"]),
        "timing.transfers": counts["timing.transfers"] / n_ops,
        "timing.bytes": counts["timing.bytes"] / n_ops,
        "serve.requests": counts["serve.requests"] / n_ops,
        "traces.synthesize_s": setup_self["traces.synthesize"],
        "trace.coverage": 1.0 - _ratio(self_s[OP_SPAN], op_total),
    }
    for name in ("render.fragment", "render.geometry", "render.reference",
                 "render.store", "core.plan", "sim.run", "analysis.parse",
                 "analysis.stmt"):
        metrics[f"{name}_s"] = self_s[name] / n_ops
    for name in ("sfr", "harness", "serve", "analysis"):
        metrics[f"{name}.self_s"] = self_s[name] / n_ops
    for name, total in self_s.items():
        if name.startswith("analysis.") and f"{name}_s" not in metrics:
            metrics[f"{name}_s"] = total / n_ops
    return metrics
