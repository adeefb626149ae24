"""Section VI-D: scheduler traffic scalability estimates."""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import emit


def test_sec6d_scheduler_traffic():
    data = E.sec6d_scheduler_traffic()
    # paper: ~4 KB per million triangles at interval 1024; 512 B per phase
    assert data["draw_sched_traffic_1M_tris_interval_1024"] < 8192
    assert data["draw_sched_traffic_1B_tris_interval_1024"] < 8 * 10**6
    assert data["composition_sched_traffic_bytes"] == 512
    emit("sec6d",
         R.render_dict(data, "Section VI-D: scheduler traffic"))
