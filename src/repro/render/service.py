"""RenderService: the one functional-rendering facade the repo consumes.

Schemes, the harness and the CLI no longer drive
``raster.pipeline.GraphicsPipeline`` directly; they open a
:class:`RenderSession` on a trace and execute draws through it. The
session pulls each draw's geometry-phase output from the
content-addressed :class:`~repro.render.store.ArtifactStore` (computing
it on a miss) and runs only the subset-dependent fragment phase live.

The service also owns the coarser cached artifacts that used to live in
three ad-hoc module dicts — the reference pass, CHOPIN's functional
prep, frame plans and full scheme results — via :meth:`cached`, giving
them a single invalidation story (:meth:`reset`) and shared counters.

A module-level singleton (:func:`render_service`) makes the warm store
ambient: the experiment engine pre-warms it once per sweep, fork-based
workers inherit it copy-on-write, and ``--artifact-dir`` extends it
across processes via disk spill.
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import Callable, Dict, Iterator, Optional

import numpy as np

from ..config import SystemConfig
from ..framebuffer.framebuffer import SurfacePool
from ..geometry.primitives import DrawCommand
from ..raster.tiles import TileGrid
from ..traces.trace import Trace
from .artifact import DrawArtifact, DrawMetrics
from .phases import fragment_phase, geometry_phase
from .reference import ReferencePass, build_shader_library
from .store import ArtifactStore, StoreCounters, store_key


class RenderSession:
    """One trace bound to the service: resolution, camera, shaders.

    ``execute_draw`` keeps the exact signature of the old
    ``GraphicsPipeline.execute_draw`` minus ``mvp`` (the session knows
    its trace's camera), so scheme code ports mechanically.
    """

    def __init__(self, service: "RenderService", trace: Trace) -> None:
        self.service = service
        self.trace = trace
        self.width = trace.width
        self.height = trace.height
        self.camera = trace.camera
        self.shaders = build_shader_library(trace)
        if trace.camera is None:
            self._camera_fp = "ndc"
        else:
            self._camera_fp = hashlib.sha256(
                np.ascontiguousarray(trace.camera).tobytes()).hexdigest()

    def artifact(self, draw: DrawCommand) -> DrawArtifact:
        """Geometry-phase output for one draw, via the artifact store."""
        key = store_key("geometry", {
            "draw": draw.fingerprint, "camera": self._camera_fp,
            "width": self.width, "height": self.height})
        return self.service.store.cached(
            key, lambda: geometry_phase(draw, self.camera,
                                        self.width, self.height))

    def execute_draw(self, draw: DrawCommand, surfaces: SurfacePool,
                     owner_mask: Optional[np.ndarray] = None,
                     owner_map: Optional[np.ndarray] = None,
                     num_owners: int = 1,
                     touched: Optional[np.ndarray] = None,
                     retained_cull_fraction: float = 0.0,
                     rng: Optional[np.random.Generator] = None
                     ) -> DrawMetrics:
        """Fragment-phase one draw against ``surfaces`` (geometry cached)."""
        return fragment_phase(
            self.artifact(draw), draw, surfaces, self.shaders,
            self.width, self.height, owner_mask=owner_mask,
            owner_map=owner_map, num_owners=num_owners, touched=touched,
            retained_cull_fraction=retained_cull_fraction, rng=rng)


class RenderService:
    """Facade over the phase pipeline and the content-addressed store."""

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store or ArtifactStore()

    # -- sessions ----------------------------------------------------------

    def session(self, trace: Trace) -> RenderSession:
        return RenderSession(self, trace)

    # -- generic cached artifacts ------------------------------------------

    def cached(self, kind: str, fields: Dict[str, object],
               compute: Callable[[], object]) -> object:
        """Store-backed memoization of any JSON-keyable artifact."""
        return self.store.cached(store_key(kind, fields), compute)

    # -- the reference pass ------------------------------------------------

    def reference_pass(self, trace: Trace, config: SystemConfig,
                       use_cache: bool = True) -> ReferencePass:
        """Render the frame once on a virtual single GPU, attributing
        fragments to tile owners. Stored per (trace, num_gpus, tile_size)."""
        if not use_cache:
            return self._compute_reference(trace, config)
        return self.cached(
            "reference",
            {"trace": trace.fingerprint, "num_gpus": config.num_gpus,
             "tile_size": config.tile_size},
            lambda: self._compute_reference(trace, config))

    def _compute_reference(self, trace: Trace,
                           config: SystemConfig) -> ReferencePass:
        frame = trace.frame
        grid = TileGrid(trace.width, trace.height, config.tile_size)
        owner_map = grid.owner_map(config.num_gpus)
        session = self.session(trace)
        pool = SurfacePool(trace.width, trace.height)
        metrics = []
        sync_points = []
        touched: Dict[int, np.ndarray] = {}

        previous: Optional[DrawCommand] = None
        for index, draw in enumerate(frame.draws):
            if previous is not None:
                prev_state, state = previous.state, draw.state
                if (prev_state.render_target != state.render_target
                        or prev_state.depth_buffer != state.depth_buffer):
                    sync_points.append(index)
            mask = touched.setdefault(
                draw.state.render_target,
                np.zeros((trace.height, trace.width), dtype=bool))
            metrics.append(session.execute_draw(
                draw, pool, owner_map=owner_map,
                num_owners=config.num_gpus, touched=mask))
            previous = draw

        return ReferencePass(trace=trace, num_gpus=config.num_gpus,
                             grid=grid, owner_map=owner_map, pool=pool,
                             metrics=metrics, sync_points=sync_points,
                             touched=touched)

    # -- sweep pre-warm ----------------------------------------------------

    def prewarm(self, trace: Trace, config: SystemConfig) -> int:
        """Populate the store with everything jobs on this trace share.

        Computes (or disk-loads) every draw's geometry artifact plus the
        reference pass for this GPU count / tile size. Returns the number
        of draws warmed, for engine accounting.
        """
        session = self.session(trace)
        warmed = 0
        for frame in trace.frames:
            for draw in frame.draws:
                session.artifact(draw)
                warmed += 1
        if len(trace.frames) == 1:
            self.reference_pass(trace, config)
        return warmed

    # -- invalidation / introspection --------------------------------------

    def reset(self, kind: Optional[str] = None) -> None:
        """Drop stored artifacts — the single invalidation story.

        ``kind`` restricts the drop to one namespace (``"geometry"``,
        ``"reference"``, ``"chopin-prep"``, ``"projection"``, ``"plan"``,
        ``"result"``);
        omit it to clear everything, memory and disk tiers both.
        """
        self.store.reset(kind)

    def counters(self) -> StoreCounters:
        """Snapshot of the store's hit/miss/eviction counters."""
        return self.store.counters.snapshot()

    @contextlib.contextmanager
    def scoped_counters(self) -> Iterator[StoreCounters]:
        """Attribute store activity inside the ``with`` body to one caller.

        The store is shared across every client of the service — scheme
        runs, the engine's prewarm, all of a serve daemon's sessions — so
        the global counters alone cannot say *who* reused what. The
        yielded object is filled in on exit with the counter growth the
        body caused::

            with service.scoped_counters() as scope:
                run(scheme, trace, setup)
            session_hits += scope.hits   # this caller's share

        Scopes are attribution only (deltas of the one global counter
        set); nesting attributes inner activity to both scopes.
        """
        before = self.store.counters.snapshot()
        scope = StoreCounters()
        try:
            yield scope
        finally:
            grew = self.store.counters.snapshot().delta(before)
            scope.__dict__.update(grew.__dict__)


_SERVICE: Optional[RenderService] = None


def render_service() -> RenderService:
    """The process-wide service (created on first use)."""
    global _SERVICE
    if _SERVICE is None:
        _SERVICE = RenderService()
    return _SERVICE


def configure_render_service(artifact_dir: Optional[str] = None,
                             max_entries: Optional[int] = None,
                             max_bytes: Optional[int] = None
                             ) -> RenderService:
    """Apply CLI-level store options to the ambient service."""
    service = render_service()
    if max_entries is not None:
        service.store.max_entries = max_entries
    if max_bytes is not None:
        service.store.max_bytes = max_bytes
    if artifact_dir is not None:
        service.store.attach_disk(artifact_dir)
    return service
