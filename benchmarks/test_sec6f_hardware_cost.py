"""Section VI-F: scheduler hardware storage costs (exact paper numbers)."""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import emit


def test_sec6f_hardware_cost():
    data = E.sec6f_hardware_cost()
    assert data["draw_scheduler_bytes"] == 128          # paper: 128 B
    assert data["composition_scheduler_bytes"] == 27    # paper: 27 B
    emit("sec6f",
         R.render_dict(data, "Section VI-F: scheduler hardware cost"))
