"""Study: AFR vs SFR on an animated sequence (paper §I motivation).

AFR improves average frame rate but not instantaneous latency, and its
pacing jitters with per-frame cost variance (micro-stuttering); SFR
improves the latency of every frame. This regenerates that §I argument as
numbers on a synthetic gameplay sequence.
"""

from repro.harness import compare_afr_sfr, make_setup
from repro.harness import report as R
from repro.traces import TraceSpec, synthesize
from repro.traces.trace import Trace

from conftest import emit


def animated_trace(frames=10):
    import numpy as np
    rng = np.random.default_rng(31)
    parts = []
    for index in range(frames):
        spec = TraceSpec(name=f"f{index}", width=96, height=96,
                         num_draws=24,
                         num_triangles=int(rng.uniform(600, 2600)),
                         seed=1200 + index, cost_multiplier=4.0)
        parts.append(synthesize(spec).frame)
    return Trace(name="gameplay", width=96, height=96, frames=parts)


def test_study_afr_vs_sfr():
    report = compare_afr_sfr(animated_trace(), make_setup("tiny", num_gpus=4))
    assert report["sfr_mean_latency"] < report["afr_mean_latency"]
    assert report["afr_total_cycles"] < report["sfr_total_cycles"]
    pretty = {k: (f"{v:,.0f}" if isinstance(v, float) and v > 100
                  else f"{v:.3f}" if isinstance(v, float) else str(v))
              for k, v in report.items()}
    emit("study_afr_vs_sfr",
         R.render_dict(pretty, "Study: AFR vs SFR (4 GPUs, 10-frame "
                       "gameplay sequence)"))
