"""Section VI-G: primitive vs fragment processing growth trend.

Paper shape: as geometric detail scales (triangle counts grow faster than
resolutions), primitive processing overtakes fragment processing —
favouring sort-last schemes like CHOPIN.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import emit


def test_sec6g_trend():
    rows = E.sec6g_workload_trend(benchmark="cry",
                                  detail_factors=(1.0, 2.0, 4.0, 8.0))
    shares = [r["primitive_share"] for r in rows]
    assert shares == sorted(shares)
    assert shares[-1] > 0.5   # primitive time eventually dominates
    body = [[r["detail_factor"], r["primitive_cycles"],
             r["fragment_cycles"], f"{100 * r['primitive_share']:.1f}%"]
            for r in rows]
    emit("sec6g",
         R.render_table(["detail", "prim cycles", "frag cycles",
                         "prim share"], body,
                        "Section VI-G: primitive vs fragment growth"))
