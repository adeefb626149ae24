"""Experiment harness: engine, runner, experiments, reports, export."""

from .runner import (MAIN_SCHEMES, SCHEMES, Setup, build_scheme, compare,
                     make_setup, run, run_benchmark)
from .animation import AnimationResult, compare_afr_sfr, run_animation
from .engine import (Engine, EngineCounters, JobOutcome, JobSpec, Journal,
                     active_engine, benchmark_job, set_active_engine)
from . import engine, experiments, export, report, sweeps

__all__ = [
    "AnimationResult",
    "Engine",
    "EngineCounters",
    "JobOutcome",
    "JobSpec",
    "Journal",
    "MAIN_SCHEMES",
    "SCHEMES",
    "Setup",
    "active_engine",
    "benchmark_job",
    "build_scheme",
    "compare",
    "compare_afr_sfr",
    "engine",
    "experiments",
    "export",
    "make_setup",
    "report",
    "run",
    "run_animation",
    "run_benchmark",
    "set_active_engine",
    "sweeps",
]
