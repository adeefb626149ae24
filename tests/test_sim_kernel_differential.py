"""The FIFO-lane kernel vs. the heap-only oracle, resume for resume.

Random process programs mix zero delays, delays that round away at a
large clock (``now + d == now``), small and large delays, ``Resource``
contention, ``AnyOf``/``AllOf``, shared events and joins. Each
program runs on both kernels through the same ``run(until=...)`` calls
and the same ``watchdog_cycles`` budget; every resume must see the same
``(now, process, value)`` in the same order, every run call must end the
same way, and the final clocks must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Event, Resource, Simulator

from .oracles.heap_kernel import HeapSimulator

#: 1e-9 still moves a clock below ~1e7 cycles but rounds away above it
DELAYS = (0.0, 1e-9, 1.0, 2.0, 3.0, 1e9)
NUM_RESOURCES = 2
NUM_SIGNALS = 3

delays = st.sampled_from(DELAYS)
ops = st.one_of(
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("request"), st.integers(0, NUM_RESOURCES - 1), delays),
    st.tuples(st.just("any_of"), st.lists(delays, min_size=1, max_size=3)),
    st.tuples(st.just("all_of"), st.lists(delays, max_size=3)),
    st.tuples(st.just("fire"), st.integers(0, NUM_SIGNALS - 1)),
    st.tuples(st.just("wait"), st.integers(0, NUM_SIGNALS - 1)),
    st.tuples(st.just("join"), st.integers(0, 5)),
)
programs = st.lists(st.lists(ops, max_size=6), min_size=1, max_size=6)
run_calls = st.lists(st.one_of(st.none(), st.sampled_from(
    (0.0, 1.0, 2.5, 1e9, 1e9 + 2.0, 3e9))), min_size=1, max_size=3)


def normalize(value):
    """Resume values with kernel identities replaced by stable labels."""
    if isinstance(value, list):
        return [normalize(item) for item in value]
    if isinstance(value, Event):
        return type(value).__name__
    if isinstance(value, Resource):
        return value.name
    return value


def execute(kernel, program, until_calls, watchdog_cycles, daemons):
    sim = kernel(watchdog_cycles=watchdog_cycles)
    resources = [Resource(sim, name=f"r{i}") for i in range(NUM_RESOURCES)]
    signals = [Event(sim) for _ in range(NUM_SIGNALS)]
    procs = []
    log = []

    def body(index, steps):
        name = f"p{index}"
        for op in steps:
            kind = op[0]
            if kind == "timeout":
                value = yield sim.timeout(op[1])
            elif kind == "request":
                resource = resources[op[1]]
                request = resource.request()
                value = yield request
                log.append((sim.now, name, normalize(value)))
                value = yield sim.timeout(op[2])
                resource.release(request)
            elif kind == "any_of":
                value = yield sim.any_of([sim.timeout(d) for d in op[1]])
            elif kind == "all_of":
                value = yield sim.all_of([sim.timeout(d) for d in op[1]])
            elif kind == "fire":
                if not signals[op[1]].triggered:
                    signals[op[1]].succeed(f"s{op[1]}@{sim.now}")
                continue
            elif kind == "wait":
                value = yield signals[op[1]]
            else:  # join
                target = op[1] % len(procs)
                if target == index:
                    continue
                value = yield procs[target]
            log.append((sim.now, name, normalize(value)))
        return name

    for index, steps in enumerate(program):
        procs.append(sim.process(body(index, steps), name=f"p{index}",
                                 daemon=index in daemons))
    outcomes = []
    for until in until_calls:
        if until is not None and until < sim.now:
            continue
        try:
            outcomes.append(("ok", sim.run(until=until)))
        except SimulationError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return log, outcomes, sim.now


@given(program=programs, until_calls=run_calls,
       watchdog_cycles=st.sampled_from((None, 5.0, 2e9)),
       daemons=st.sets(st.integers(0, 5), max_size=2))
@settings(max_examples=300, deadline=None)
def test_lane_matches_heap_order(program, until_calls, watchdog_cycles,
                                 daemons):
    lane = execute(Simulator, program, until_calls, watchdog_cycles, daemons)
    heap = execute(HeapSimulator, program, until_calls, watchdog_cycles,
                   daemons)
    assert lane == heap


def test_rounded_away_delay_takes_the_lane():
    sim = Simulator()
    sim.now = 1e12
    sim.timeout(1e-9)
    assert len(sim._lane) == 1 and not sim._queue
    sim.timeout(1.0)
    assert len(sim._queue) == 1
