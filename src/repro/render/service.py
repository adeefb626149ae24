"""RenderService: the one functional-rendering facade the repo consumes.

Schemes, the harness and the CLI open a :class:`RenderSession` on a
trace and execute draws through it. The session pulls each draw's
geometry-phase output from the content-addressed
:class:`~repro.render.store.ArtifactStore` (computing it on a miss) and
runs only the subset-dependent fragment phase live.

Every stored artifact goes through one call, :meth:`RenderService.memo`:
``memo(kind, fn, **inputs)`` returns ``fn(**inputs)`` and derives the
store key from exactly those inputs. A compute function therefore cannot
read anything its key leaves out: it gets no ``self`` and no closure,
only its keyword arguments. The six kinds are ``geometry``,
``reference``, ``projection``, ``plan``, ``chopin-prep`` and ``result``;
:meth:`reset` is their single invalidation story.

A module-level singleton (:func:`render_service`) makes the warm store
ambient: the experiment engine pre-warms it once per sweep, fork-based
workers inherit it copy-on-write, and ``--artifact-dir`` extends it
across processes via disk spill.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
from typing import Callable, Dict, Iterator, Optional, TypeVar

import numpy as np

from ..config import SystemConfig
from ..framebuffer.framebuffer import SurfacePool
from ..geometry.primitives import DrawCommand
from ..raster.tiles import TileGrid
from ..traces.trace import Trace
from .artifact import DrawArtifact, DrawMetrics
from .phases import Camera, fragment_phase, geometry_phase
from .reference import ReferencePass, build_shader_library
from .store import ArtifactStore, StoreCounters, store_key

T = TypeVar("T")

#: JSON scalars a memo input may be passed as directly
_SCALARS = (str, int, float, bool, type(None))


def memo_fields(inputs: Dict[str, object]) -> Dict[str, object]:
    """Store-key fields of one memo call's keyword inputs.

    A JSON scalar keys as itself and an object with a ``fingerprint``
    keys as that fingerprint. A frozen dataclass without one (an inputs
    record) contributes each of its fields under the field's own name.
    Anything else is refused: it has no stable content address.
    """
    fields: Dict[str, object] = {}

    def add(name: str, value: object) -> None:
        if name in fields:
            raise TypeError(f"memo input {name!r} is given twice")
        fingerprint = getattr(value, "fingerprint", None)
        if fingerprint is not None:
            fields[name] = fingerprint
        elif isinstance(value, _SCALARS):
            fields[name] = value
        elif (dataclasses.is_dataclass(value)
              and value.__dataclass_params__.frozen):
            for spec in dataclasses.fields(value):
                add(spec.name, getattr(value, spec.name))
        else:
            raise TypeError(
                f"memo input {name!r} ({type(value).__name__}) is not a "
                "JSON scalar, a fingerprinted object or a frozen "
                "dataclass of those")

    for name, value in inputs.items():
        add(name, value)
    return fields


class RenderSession:
    """One trace bound to the service: resolution, camera, shaders.

    ``execute_draw`` renders one draw against a surface pool; the
    session supplies the trace's camera and resolution.
    """

    def __init__(self, service: "RenderService", trace: Trace) -> None:
        self.service = service
        self.trace = trace
        self.width = trace.width
        self.height = trace.height
        self.camera = Camera(trace.camera)
        self.shaders = build_shader_library(trace)

    def artifact(self, draw: DrawCommand) -> DrawArtifact:
        """Geometry-phase output for one draw, via the artifact store."""
        return self.service.memo("geometry", geometry_phase, draw=draw,
                                 camera=self.camera, width=self.width,
                                 height=self.height)

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

    # -- stored artifacts --------------------------------------------------

    def memo(self, kind: str, fn: Callable[..., T], /, **inputs) -> T:
        """``fn(**inputs)``, stored under a key derived from ``inputs``.

        ``fn`` must be a plain function: no bound ``self`` and no
        closure (a ``functools.wraps`` wrapper is judged by what it
        wraps). Its keyword inputs are then everything it can read, so
        the key (see :func:`memo_fields`) cannot miss an input and
        cannot name one ``fn`` does not take.
        """
        target = inspect.unwrap(fn)
        if not inspect.isfunction(target) or target.__closure__:
            raise TypeError(
                f"memo({kind!r}) needs a plain function without a bound "
                f"self or a closure, got {fn!r}")
        key = store_key(kind, memo_fields(inputs))
        return self.store.cached(key, lambda: fn(**inputs))

    # -- the reference pass ------------------------------------------------

    def reference_pass(self, trace: Trace, config: SystemConfig,
                       use_cache: bool = True) -> ReferencePass:
        """Render the frame once on a virtual single GPU, attributing
        fragments to tile owners. Stored per (trace, num_gpus, tile_size)."""
        if not use_cache:
            return _reference(trace, config.num_gpus, config.tile_size)
        return self.memo("reference", _reference, trace=trace,
                         num_gpus=config.num_gpus,
                         tile_size=config.tile_size)

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
        ``"result"``); omit it to clear everything, memory and disk
        tiers both.
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


def _reference(trace: Trace, num_gpus: int,
               tile_size: int) -> ReferencePass:
    """The reference pass: the whole frame on one virtual GPU.

    Geometry artifacts come from the ambient service's store; they are
    content-addressed, so which store serves them cannot change the
    result.
    """
    frame = trace.frame
    grid = TileGrid(trace.width, trace.height, tile_size)
    owner_map = grid.owner_map(num_gpus)
    session = render_service().session(trace)
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
            num_owners=num_gpus, touched=mask))
        previous = draw

    return ReferencePass(trace=trace, num_gpus=num_gpus,
                         grid=grid, owner_map=owner_map, pool=pool,
                         metrics=metrics, sync_points=sync_points,
                         touched=touched)


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
