"""Future-workload study (extends §VI-G): CHOPIN's lead vs geometric detail.

The paper argues triangle counts grow much faster than resolutions, which
favours sort-last schemes. Here we *measure* it: sweeping the detail
factor of a fixed-resolution workload, CHOPIN's speedup over duplication
grows; on the opposite (fragment-bound) extreme, sort-first-style schemes
are the right choice.
"""

from repro.harness import make_setup, run
from repro.harness import report as R
from repro.traces.stress import fragment_bound, micro_triangle

from conftest import emit


def test_future_workloads():
    setup = make_setup("tiny", num_gpus=8)
    table = {}
    for detail in (1.0, 2.0, 4.0):
        trace = micro_triangle(detail=detail)
        dup = run("duplication", trace, setup)
        chopin = run("chopin+sched", trace, setup)
        table[f"detail {detail:g}x"] = {
            "triangles": trace.num_triangles,
            "chopin+sched": dup.frame_cycles / chopin.frame_cycles,
        }
    frag = fragment_bound()
    dup = run("duplication", frag, setup)
    chopin = run("chopin+sched", frag, setup)
    table["fragment-bound"] = {
        "triangles": frag.num_triangles,
        "chopin+sched": dup.frame_cycles / chopin.frame_cycles,
    }
    sweep = [table[f"detail {d:g}x"]["chopin+sched"] for d in (1.0, 2.0, 4.0)]
    assert sweep == sorted(sweep), "CHOPIN's lead must grow with detail"
    assert table["fragment-bound"]["chopin+sched"] < sweep[0], \
        "fragment-bound workloads are the sort-first regime"
    emit("future_workloads",
         R.render_speedups(table, "Future workloads: CHOPIN speedup vs "
                           "geometric detail (fixed resolution)"))
