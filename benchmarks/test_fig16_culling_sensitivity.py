"""Fig 16: artificially retained depth-culled fragments (ut3).

Paper shape: speedup degrades smoothly as more culled fragments are
retained; a large retained share is needed to erase CHOPIN's benefit.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import emit


def test_fig16_culling_sensitivity():
    rows = E.fig16_culling_sensitivity(
        benchmark="ut3", retained=(0.0, 0.1, 0.2, 0.3, 0.4))
    speedups = [r["speedup"] for r in rows]
    extras = [r["extra_fragments"] for r in rows]
    assert speedups[0] > speedups[-1]
    assert all(b >= a - 1e-9 for a, b in zip(extras, extras[1:]))
    emit("fig16", R.render_fig16(rows))
