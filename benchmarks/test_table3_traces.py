"""Table III: the benchmark suite (paper-scale spec vs generated trace)."""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import FULL_BENCHMARKS, emit


def test_table3_traces():
    rows = E.table3_benchmarks()
    assert len(rows) == len(FULL_BENCHMARKS)
    by_name = {r["benchmark"]: r for r in rows}
    # paper-scale numbers are exact
    assert by_name["cod2"]["paper_triangles"] == 219_950
    assert by_name["grid"]["paper_draws"] == 2623
    # generated traces match the scaled spec exactly
    for row in rows:
        assert row["run_triangles"] == row["paper_triangles"] // 64
    emit("table3", R.render_table3(rows))
