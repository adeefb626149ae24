"""Shared fixtures: small traces and setups reused across the test suite.

Session-scoped fixtures exploit the library's internal caches so the
expensive functional renders run once per session.
"""

import pathlib

import numpy as np
import pytest

from repro.analysis.flow import Project
from repro.analysis.simlint import LintModule
from repro.config import SystemConfig
from repro.harness import make_setup
from repro.render import RenderService
from repro.render import service as service_module
from repro.sim import Simulator
from repro.traces import TraceSpec, load_benchmark, synthesize

SRC_REPRO = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture(scope="session")
def tiny_setup():
    """The Table II system at tiny trace scale (8 GPUs)."""
    return make_setup(scale="tiny", num_gpus=8)


@pytest.fixture(scope="session")
def cod2_tiny():
    return load_benchmark("cod2", "tiny")


@pytest.fixture(scope="session")
def micro_trace():
    """A very small but structurally complete synthetic trace."""
    spec = TraceSpec(name="micro", width=64, height=64, num_draws=24,
                     num_triangles=600, seed=7, rt_switches=1,
                     depth_toggle_events=1, depth_func_events=1,
                     cost_multiplier=4.0)
    return synthesize(spec)


@pytest.fixture(scope="session")
def micro_setup():
    """A 4-GPU system matched to the micro trace."""
    config = SystemConfig(num_gpus=4, tile_size=8, composition_threshold=32)
    from repro.timing.costs import CostModel
    from repro.harness.runner import Setup
    return Setup(scale="tiny", config=config, costs=CostModel(gpu=config.gpu))


@pytest.fixture
def fresh_service(monkeypatch):
    """Swap in an isolated RenderService so tests cannot cross-pollute
    the process-wide store (or leave a dangling tmp disk tier on it)."""
    svc = RenderService()
    monkeypatch.setattr(service_module, "_SERVICE", svc)
    yield svc


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def src_project():
    """``src/repro`` parsed and indexed once per session (do not mutate)."""
    return Project.from_paths([SRC_REPRO])


@pytest.fixture(scope="session")
def mutated_src(src_project):
    """``mutated_src(relative, old, new)``: the session's ``src/repro``
    project with one module's source edited (``old`` replaced by ``new``;
    ``old=None`` appends ``new``). Only that module is re-parsed."""
    def build(relative, old, new):
        path = str((SRC_REPRO / relative).resolve())
        named = []
        for name, module in src_project.modules.items():
            if module.path == path:
                source = module.source + new if old is None \
                    else module.source.replace(old, new)
                assert source != module.source, \
                    f"mutation anchor vanished from {relative}"
                module = LintModule(module.path, source)
            named.append((name, src_project.module_packages[name], module))
        return Project.from_modules(named)
    return build
