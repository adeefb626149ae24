"""Experiment runner: scheme registry, scaled configs, and result caching.

Everything the benchmark harness and the examples need to launch a run:

- :data:`SCHEMES` — name -> scheme class, covering every bar in the paper's
  figures (duplication baseline, GPUpd and its ideal, CHOPIN with/without
  the composition scheduler, IdealCHOPIN, and the round-robin strawman);
- :func:`make_setup` — a Table II :class:`~repro.config.SystemConfig` plus
  cost model, consistently re-scaled for a chosen trace scale;
- :func:`run` — execution of (scheme, benchmark, setup) cached in the
  ``result`` namespace of the :mod:`repro.render` artifact store, so the
  many figures that share runs (Fig 13/14/15/17...) pay for each
  simulation once and exports can report per-run artifact reuse.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Iterable, Optional, Type

from ..config import SystemConfig
from ..errors import ConfigError
from ..faults.plan import FaultPlan
from ..sfr import (Chopin, ChopinOracle, ChopinRoundRobin, ChopinSampled,
                   ChopinWithScheduler, DistributedFramebufferChopin, GPUpd,
                   IdealChopin, IdealGPUpd, PrimitiveDuplication, SchemeResult,
                   SFRScheme, SortMiddle)
from ..timing.costs import CostModel
from ..traces import load_benchmark, scale_for
from ..traces.trace import Trace

SCHEMES: Dict[str, Type[SFRScheme]] = {
    "duplication": PrimitiveDuplication,
    "gpupd": GPUpd,
    "gpupd-ideal": IdealGPUpd,
    "chopin": Chopin,
    "chopin+sched": ChopinWithScheduler,
    "chopin-ideal": IdealChopin,
    "chopin-rr": ChopinRoundRobin,
    "chopin-oracle": ChopinOracle,
    "chopin-sampled": ChopinSampled,
    "dfb": DistributedFramebufferChopin,
    "sort-middle": SortMiddle,
}

#: the Fig 13 bar order
MAIN_SCHEMES = ("gpupd", "gpupd-ideal", "chopin", "chopin+sched",
                "chopin-ideal")

#: GPUpd's distribution batch size at paper scale (primitives per batch)
GPUPD_BATCH_PRIMITIVES = 2048


@dataclass(frozen=True)
class Setup:
    """A fully resolved experiment environment.

    ``origin`` records the exact :func:`make_setup` keywords this setup was
    built from (sorted ``(key, value)`` pairs) — the experiment engine uses
    it to fingerprint and replay jobs in other processes. Hand-built or
    post-hoc-modified setups leave it empty and simply run unsupervised.
    """

    scale: str
    config: SystemConfig
    costs: CostModel
    origin: tuple = ()

    def replace_config(self, **kwargs) -> "Setup":
        # the modification invalidates origin: no longer replayable
        return Setup(scale=self.scale, config=replace(self.config, **kwargs),
                     costs=self.costs)

    @cached_property
    def fingerprint(self) -> str:
        """Content address of everything a run reads from this setup:
        the scale, the whole config and the cost model. ``origin`` is
        provenance, not input, and stays out."""
        identity = repr((self.scale, self.config, self.costs))
        return hashlib.sha256(identity.encode()).hexdigest()

    @property
    def gpupd_batch(self) -> int:
        divisor = scale_for(self.scale).triangle_divisor
        return max(1, GPUPD_BATCH_PRIMITIVES // divisor)


def make_setup(scale: str = "tiny", num_gpus: int = 8,
               bandwidth_gb_per_s: Optional[float] = None,
               latency_cycles: Optional[int] = None,
               composition_threshold: Optional[int] = None,
               scheduler_update_interval: Optional[int] = None,
               retained_cull_fraction: float = 0.0,
               topology: Optional[str] = None,
               msaa_samples: int = 1,
               model_memory: bool = False,
               dram_gb_per_s: Optional[float] = None,
               faults: Optional["FaultPlan"] = None,
               sanitize: bool = False,
               watchdog_cycles: Optional[float] = None,
               pipeline_depth: Optional[int] = None) -> Setup:
    """Build a Table II setup re-scaled for ``scale``.

    ``composition_threshold`` and ``scheduler_update_interval`` are given in
    *paper-scale primitives* and divided by the scale's triangle divisor, so
    sweeps like Fig 18/22 use the paper's axis values directly.
    """
    origin_kwargs = {
        "scale": scale, "num_gpus": num_gpus,
        "bandwidth_gb_per_s": bandwidth_gb_per_s,
        "latency_cycles": latency_cycles,
        "composition_threshold": composition_threshold,
        "scheduler_update_interval": scheduler_update_interval,
        "retained_cull_fraction": retained_cull_fraction,
        "topology": topology, "msaa_samples": msaa_samples,
        "model_memory": model_memory, "dram_gb_per_s": dram_gb_per_s,
        # marker only: a FaultPlan is not journal-serializable, so the
        # engine treats fault-injected setups as non-portable
        "faults": repr(faults) if faults is not None else None,
        # None when off so pre-existing journal fingerprints stay valid
        "sanitize": True if sanitize else None,
        "watchdog_cycles": watchdog_cycles,
        "pipeline_depth": pipeline_depth,
    }
    origin = tuple(sorted((k, v) for k, v in origin_kwargs.items()
                          if v is not None))
    trace_scale = scale_for(scale)
    divisor = trace_scale.triangle_divisor
    gpu_kwargs = {}
    if dram_gb_per_s is not None:
        # per-GPU share of the system DRAM bandwidth (Table II: 2 TB/s / 8)
        gpu_kwargs["dram_bandwidth_bytes_per_s"] = int(
            dram_gb_per_s * 1e9 / num_gpus)
    threshold = composition_threshold if composition_threshold is not None \
        else 4096
    interval = scheduler_update_interval if scheduler_update_interval \
        is not None else 1
    from ..config import GPUConfig
    config = SystemConfig(
        num_gpus=num_gpus,
        gpu=GPUConfig(**gpu_kwargs),
        tile_size=trace_scale.tile_size(),
        composition_threshold=max(1, threshold // divisor),
        scheduler_update_interval=max(1, interval // divisor or 1),
        primitive_id_bytes=trace_scale.primitive_id_bytes(),
        retained_cull_fraction=retained_cull_fraction,
        msaa_samples=msaa_samples,
        faults=faults,
        sanitize=sanitize,
        watchdog_cycles=watchdog_cycles,
        pipeline_depth=pipeline_depth,
    )
    if bandwidth_gb_per_s is not None or latency_cycles is not None:
        config = config.with_link(bandwidth_gb_per_s=bandwidth_gb_per_s,
                                  latency_cycles=latency_cycles)
    if topology is not None:
        from dataclasses import replace as dc_replace
        config = dc_replace(config,
                            link=dc_replace(config.link, topology=topology))
    costs = CostModel(gpu=config.gpu,
                      draw_issue_cost=trace_scale.draw_issue_cost(),
                      model_memory=model_memory)
    return Setup(scale=scale, config=config, costs=costs, origin=origin)


def build_scheme(name: str, setup: Setup) -> SFRScheme:
    """Instantiate a registered scheme for the given setup."""
    try:
        cls = SCHEMES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}")
    faults = setup.config.faults
    if (faults is not None and faults.gpu_failures
            and not cls.supports_fail_stop):
        supported = sorted(s for s, c in SCHEMES.items()
                           if c.supports_fail_stop)
        raise ConfigError(
            f"scheme {name!r} cannot recover from GPU fail-stop failures; "
            f"drop the fail= entries from the fault plan or use one of "
            f"{supported}")
    if name.startswith("gpupd"):
        return cls(setup.config, setup.costs,
                   batch_primitives=setup.gpupd_batch)
    if name == "sort-middle":
        # attribute payloads scale like primitive IDs (see TraceScale)
        factor = scale_for(setup.scale).cost_multiplier
        from ..sfr.sort_middle import ATTRIBUTE_BYTES_PER_TRIANGLE
        return cls(setup.config, setup.costs,
                   attribute_bytes=max(1, round(
                       ATTRIBUTE_BYTES_PER_TRIANGLE * factor)),
                   batch_primitives=setup.gpupd_batch)
    return cls(setup.config, setup.costs)


def _run_scheme(scheme: str, trace: Trace, trace_name: str,
                setup: Setup) -> SchemeResult:
    """One uncached run, with its store-counter growth stamped on.

    ``trace_name`` is an input of its own because the result records
    it while ``Trace.fingerprint`` leaves names out.
    """
    from ..render import render_service
    service = render_service()
    before = service.counters()
    result = build_scheme(scheme, setup).run(trace)
    result.trace_name = trace_name
    result.stats.stamp_store(service.counters().delta(before))
    return result


def run(scheme: str, trace: Trace, setup: Setup,
        use_cache: bool = True) -> SchemeResult:
    """Run one scheme on one trace (result cached in the artifact store).

    On a miss, the store-counter growth the computation caused (geometry
    artifact hits/misses, reference/prep lookups) is stamped onto the
    result's :class:`~repro.stats.RunStats`, so exports can report how
    much cached work each run reused. Hits return the stored result
    unchanged — its counters describe the run that computed it.
    """
    if not use_cache:
        return _run_scheme(scheme, trace, trace.name, setup)
    from ..render import render_service
    return render_service().memo("result", _run_scheme, scheme=scheme,
                                 trace=trace, trace_name=trace.name,
                                 setup=setup)


def run_benchmark_direct(scheme: str, benchmark: str,
                         setup: Setup) -> SchemeResult:
    """Run one scheme on a named benchmark, bypassing engine supervision.

    This is the raw execution path the engine's workers call; everything
    else should go through :func:`run_benchmark`.
    """
    return run(scheme, load_benchmark(benchmark, setup.scale), setup)


def run_benchmark(scheme: str, benchmark: str, setup: Setup) -> SchemeResult:
    """Run one scheme on a named Table III benchmark.

    When an experiment engine is active (``Engine.activated()`` or the
    CLI's ``--jobs/--timeout/--journal/--resume`` flags), the run is
    supervised: journaled, resumable, retried on transient failures, and
    raising :class:`~repro.errors.RetryBudgetExhausted` once the retry
    budget is gone. Without an engine this is plain cached execution.
    """
    from .engine import active_engine
    engine = active_engine()
    if engine is not None:
        return engine.run_benchmark(scheme, benchmark, setup)
    return run_benchmark_direct(scheme, benchmark, setup)


def compare(benchmark: str, setup: Setup,
            schemes: Iterable[str] = MAIN_SCHEMES,
            baseline: str = "duplication") -> Dict[str, float]:
    """Speedups of ``schemes`` over ``baseline`` on one benchmark."""
    base = run_benchmark(baseline, benchmark, setup)
    speedups = {baseline: 1.0}
    for scheme in schemes:
        result = run_benchmark(scheme, benchmark, setup)
        speedups[scheme] = base.frame_cycles / result.frame_cycles
    return speedups
