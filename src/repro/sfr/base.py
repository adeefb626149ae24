"""Common machinery for split-frame-rendering scheme implementations.

Every scheme follows the same contract: ``scheme.run(trace)`` renders the
trace's frame on a simulated ``config.num_gpus``-GPU system and returns a
:class:`SchemeResult` holding

- the final framebuffer (which must match single-GPU rendering — the
  correctness invariant the test suite enforces across all schemes),
- a :class:`~repro.stats.RunStats` with per-GPU stage cycles and traffic,
- the end-to-end frame time in cycles (``stats.frame_cycles``), which is
  what all of the paper's speedup figures compare.

The functional single-GPU *reference pass* lives here too: it renders the
frame once with per-owner fragment attribution and records per-draw metrics.
Sort-first schemes (primitive duplication, GPUpd) reuse it directly because
every GPU observes the same depth history; CHOPIN runs its own per-GPU
functional pass (sort-last GPUs see partial depth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..config import SystemConfig
from ..framebuffer.framebuffer import Framebuffer
from ..render import (DrawMetrics, ReferencePass, build_shader_library,
                      render_service)
from ..stats import RunStats
from ..timing.costs import CostModel
from ..traces.trace import Trace

__all__ = ["ReferencePass", "SFRScheme", "SchemeResult",
           "build_shader_library", "reference_pass",
           "render_reference_image"]


@dataclass
class SchemeResult:
    """Outcome of one simulated run."""

    scheme: str
    trace_name: str
    num_gpus: int
    stats: RunStats
    image: Framebuffer
    #: per-draw functional metrics in submission order (when recorded)
    draw_metrics: List[DrawMetrics] = field(default_factory=list)

    @property
    def frame_cycles(self) -> float:
        return self.stats.frame_cycles


def reference_pass(trace: Trace, config: SystemConfig,
                   use_cache: bool = True) -> ReferencePass:
    """Render the frame once on a virtual single GPU, attributing fragments
    to tile owners. Stored in the render service's artifact store, keyed
    by (trace fingerprint, num_gpus, tile_size)."""
    return render_service().reference_pass(trace, config,
                                           use_cache=use_cache)


def render_reference_image(trace: Trace,
                           config: Optional[SystemConfig] = None) -> Framebuffer:
    """Ground-truth final image (single GPU, submission order)."""
    cfg = config or SystemConfig(num_gpus=1)
    return reference_pass(trace, cfg, use_cache=False).image


class SFRScheme:
    """Base class: holds the system config and the derived cost model."""

    name = "base"
    #: can this scheme finish a frame after a GPU fail-stops? Schemes that
    #: cannot must be rejected when the fault plan contains ``gpu_failures``
    #: (the harness enforces this).
    supports_fail_stop = False

    def __init__(self, config: SystemConfig,
                 costs: Optional[CostModel] = None) -> None:
        self.config = config
        self.costs = costs or CostModel(gpu=config.gpu)

    def run(self, trace: Trace) -> SchemeResult:
        raise NotImplementedError

    def _make_sim(self):
        """Simulator for one frame, honoring ``config.sanitize`` and the
        configured virtual-time watchdog budget (``--watchdog-cycles``)."""
        from ..sim import Simulator
        return Simulator(sanitize=self.config.sanitize,
                         watchdog_cycles=self.config.watchdog_cycles)

    @staticmethod
    def _run_sim_checked(sim, processes, stats=None) -> float:
        """Run the event loop and fail loudly on deadlock.

        A drained event queue with unfinished GPU processes means the
        protocol wedged (e.g., a circular port/gate dependency); silently
        returning a too-small frame time would corrupt every speedup figure.
        Under ``--sanitize``, same-cycle access conflicts observed during
        the run fail it here too, after the frame completes, and the
        sanitizer's coverage (shared-state accesses recorded) lands in
        ``stats.sanitizer_accesses`` when ``stats`` is given.
        """
        frame_cycles = sim.run()
        stuck = [p.name for p in processes if not p.triggered]
        if stuck:
            from ..errors import SimulationError
            raise SimulationError(
                f"simulation deadlocked with pending processes: {stuck}")
        if sim.sanitizer is not None:
            if stats is not None:
                stats.sanitizer_accesses = sim.sanitizer.accesses_recorded
            sim.sanitizer.raise_if_conflicts()
        return frame_cycles

    # -- shared helpers -----------------------------------------------------

    def _segments(self, trace: Trace,
                  prep: ReferencePass) -> List[Tuple[int, int]]:
        """Frame split into [start, end) draw ranges between sync points."""
        n = trace.frame.num_draws
        bounds = [0] + list(prep.sync_points) + [n]
        return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]

    def _sync_broadcast_bytes(self, trace: Trace) -> float:
        """Per-GPU bytes broadcast at a render-target switch: each GPU sends
        its owned region of the current colour+depth surfaces to every peer."""
        own_pixels = trace.width * trace.height / self.config.num_gpus
        return own_pixels * self.config.effective_pixel_bytes
