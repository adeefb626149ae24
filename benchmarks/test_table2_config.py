"""Table II: the simulated architecture configuration."""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import emit


def test_table2_config():
    table = E.table2_config()
    assert table["Number of GPUs"] == "8"
    assert table["Inter-GPU bandwidth"] == "64 GB/s"
    assert table["Inter-GPU latency"] == "200 cycles"
    emit("table2",
         R.render_dict(table, "Table II: simulated architecture"))
