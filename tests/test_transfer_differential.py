"""Callback transfers vs. the generator-process oracle, completion for
completion.

Random transfer programs mix senders and receivers, payload sizes,
receiver gates opened later or never, ``receive_cycles``,
``ports_released`` and joins, over all four fabrics (p2p, shared bus,
ring, switch with an oversubscribed backplane) and ideal links, with or
without a fault plan of link drops, corruption and a degraded-bandwidth
window. Each program runs once on :class:`repro.timing.interconnect.
Interconnect` and once on the generator ``transfer`` of
``tests/oracles/generator_transfer.py``, started synchronously like the
transfer object. Every delivery and every port release must happen at
the same ``(now, transfer id)`` in the same order, the runs must end the
same way, and ``RunStats.to_dict()`` must match exactly.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import FaultError, SimulationError
from repro.faults.plan import DegradedWindow, FaultPlan
from repro.sim import Event, Simulator
from repro.stats import RunStats
from repro.timing.interconnect import Interconnect

from .oracles.generator_transfer import GeneratorInterconnect, SyncProcess

MAX_GPUS = 5
NUM_GATES = 2

gpu = st.integers(0, MAX_GPUS - 1)
steps = st.one_of(
    st.tuples(st.just("wait"), st.sampled_from((0.0, 1.0, 2.5, 100.0))),
    st.tuples(st.just("send"), gpu, gpu,
              st.sampled_from((0.0, 1.0, 64.0, 640.0, 6400.0)),
              st.one_of(st.none(), st.integers(0, NUM_GATES - 1)),
              st.sampled_from((0.0, 0.5, 3.0, 500.0)),
              st.booleans(), st.booleans()),
    st.tuples(st.just("open"), st.integers(0, NUM_GATES - 1)),
)
programs = st.lists(st.lists(steps, max_size=8), min_size=1, max_size=4)
fabrics = st.sampled_from((("p2p", 1.0), ("bus", 1.0), ("ring", 1.0),
                           ("switch", 1.0), ("switch", 2.0)))
fault_plans = st.one_of(st.none(), st.builds(
    lambda seed, drop, corrupt, slow: FaultPlan(
        seed=seed, drop_probability=drop, corrupt_probability=corrupt,
        retry_budget=3, degraded_windows=(
            (DegradedWindow(start=50.0, end=400.0, bandwidth_factor=0.25),)
            if slow else ())),
    st.integers(0, 2**16), st.sampled_from((0.0, 0.2, 0.5)),
    st.sampled_from((0.0, 0.2)), st.booleans()))


def make_config(num_gpus, fabric, ideal, faults):
    topology, oversubscription = fabric
    config = SystemConfig(num_gpus=num_gpus)
    return replace(config, faults=faults, link=replace(
        config.link, topology=topology, ideal=ideal,
        switch_oversubscription=oversubscription))


def execute(network, config, program):
    """Run ``program`` on a fresh ``network(sim, config, stats)``."""
    sim = Simulator()
    stats = RunStats(num_gpus=config.num_gpus)
    net = network(sim, config, stats)
    gates = [Event(sim) for _ in range(NUM_GATES)]
    log = []
    ids = iter(range(10**6))

    def note(tid, what):
        return lambda _: log.append((sim.now, tid, what))

    def client(steps):
        for step in steps:
            kind = step[0]
            if kind == "wait":
                yield sim.timeout(step[1])
            elif kind == "open":
                if not gates[step[1]].triggered:
                    gates[step[1]].succeed()
            else:
                _, src, dst, nbytes, gate, receive, released, join = step
                src %= config.num_gpus
                dst %= config.num_gpus
                if src == dst:
                    continue
                tid = next(ids)
                ports = Event(sim) if released else None
                if ports is not None:
                    ports.callbacks.append(note(tid, "released"))
                kwargs = dict(gate=None if gate is None else gates[gate],
                              receive_cycles=receive, ports_released=ports)
                if network is GeneratorInterconnect:
                    done = SyncProcess(sim, net.transfer(
                        src, dst, nbytes, "test", **kwargs))
                else:
                    done = net.transfer(src, dst, nbytes, "test", **kwargs)
                done.callbacks.append(note(tid, "delivered"))
                if join:
                    yield done

    for index, program_steps in enumerate(program):
        sim.process(client(program_steps), name=f"client{index}")
    try:
        sim.run()
        outcome = "ok"
    except (FaultError, SimulationError) as exc:
        outcome = type(exc).__name__
    return log, outcome, sim.now, stats.to_dict()


@given(program=programs, num_gpus=st.integers(2, MAX_GPUS),
       fabric=fabrics, ideal=st.booleans(), faults=fault_plans)
@settings(max_examples=300, deadline=None)
def test_transfer_object_matches_generator(program, num_gpus, fabric, ideal,
                                           faults):
    config = make_config(num_gpus, fabric, ideal, faults)
    assert (execute(Interconnect, config, program)
            == execute(GeneratorInterconnect, config, program))


def test_parked_transfer_names_its_gate_in_the_deadlock():
    config = make_config(2, ("p2p", 1.0), False, None)
    sim = Simulator()
    net = Interconnect(sim, config, RunStats(num_gpus=2))

    def sender():
        yield net.transfer(0, 1, 640.0, "test", gate=Event(sim))

    sim.process(sender(), name="sender")
    with pytest.raises(SimulationError, match="'sender' waiting on transfer "
                       "0->1 waiting on its receiver gate"):
        sim.run()
