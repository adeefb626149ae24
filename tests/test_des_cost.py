"""The DES cost of a small soak, pinned exactly.

A 16-GPU switch soak of wolf (tiny scale, 2 frames of the failure trace
the 64-GPU sentinel uses) runs ``chopin+sched`` and ``dfb``. The test
counts the events :meth:`Simulator.step` pops and the processes
:meth:`Simulator.process` starts, the same seams ``perf/trace.py``
counts as ``sim.events`` and ``sim.processes``, and pins both. The
counts depend only on the model and the seed, never on the host, so a
change in the simulator's cost shows up here as a reviewed diff: a PR
that lowers a count re-pins it, and a cycle-exact change must not raise
one by accident.
"""

import pytest

from repro.faults.traces import TraceGenConfig, generate_trace
from repro.harness.engine import run_soak
from repro.harness.runner import make_setup
from repro.render import service as service_module
from repro.render.service import RenderService
from repro.sim import Simulator

#: scheme -> (events popped, processes started) over the whole soak
PINNED = {
    "chopin+sched": (44_294, 696),
    "dfb": (50_151, 692),
}


def soak_cost(scheme):
    setup = make_setup("tiny", num_gpus=16, topology="switch")
    trace = generate_trace(setup.config, TraceGenConfig(
        seed=7, frames=2, frame_cycles=100_000, gpu_mttf_cycles=4e6,
        gpu_mttr_cycles=1e6))
    counts = {"events": 0, "processes": 0}
    step, process = Simulator.step, Simulator.process

    def counted_step(sim):
        counts["events"] += 1
        return step(sim)

    def counted_process(sim, *args, **kwargs):
        counts["processes"] += 1
        return process(sim, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "_SERVICE", RenderService())
        patch.setattr(Simulator, "step", counted_step)
        patch.setattr(Simulator, "process", counted_process)
        report = run_soak(trace, scheme, "wolf", setup)
    assert report.all_identical
    return report, (counts["events"], counts["processes"])


@pytest.mark.parametrize("scheme", sorted(PINNED))
def test_soak16_des_cost_is_pinned(scheme):
    _, cost = soak_cost(scheme)
    assert cost == PINNED[scheme]
