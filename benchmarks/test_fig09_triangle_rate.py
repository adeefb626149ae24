"""Fig 9: per-draw triangle rate, geometry stage vs whole pipeline (cod2).

Paper shape: the two series track each other, justifying remaining
geometry-stage triangles as the scheduler's load estimate.
"""

from repro.harness import experiments as E
from repro.harness import report as R

from conftest import emit


def test_fig9_triangle_rate():
    rows = E.fig9_triangle_rate("tiny", "cod2")
    assert len(rows) > 100
    correlation = E.fig9_correlation("tiny", "cod2")
    assert correlation > 0.2
    text = R.render_fig9(rows) + \
        f"\ngeometry-vs-pipeline rate correlation: {correlation:.3f}"
    emit("fig09", text)
