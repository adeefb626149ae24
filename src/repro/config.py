"""System configuration (paper Table II).

The defaults here mirror the simulated architecture of the paper:

====================================  =======================================
Structure                             Configuration
====================================  =======================================
GPU frequency                         1 GHz
Number of GPUs                        8
Number of SMs                         64 (8 per GPU)
Number of ROPs                        64 (8 per GPU)
SM configuration                      32 shader cores per SM, 4 texture units
L2 cache                              6 MB total
DRAM                                  2 TB/s, 8 channels x 8 banks
Composition-group primitive threshold 4096
Inter-GPU bandwidth                   64 GB/s (unidirectional)
Inter-GPU latency                     200 cycles
====================================  =======================================

Bandwidth is converted to bytes/cycle at the GPU clock: 64 GB/s at 1 GHz is
64 bytes per cycle per directed link.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError
from .faults.plan import FaultPlan

GIGA = 1_000_000_000


@dataclass(frozen=True)
class GPUConfig:
    """Per-GPU resources and pipeline cost parameters.

    The cost parameters translate functional counts into cycles:

    - a draw command's geometry stage costs
      ``triangles * vertex_cost / num_sms`` cycles, where ``vertex_cost``
      is the draw's per-triangle shader cost (cycles on one SM);
    - its fragment stage costs ``fragments * pixel_cost / num_rops`` cycles.
    """

    num_sms: int = 8               # unit: 1
    num_rops: int = 8              # unit: 1
    shader_cores_per_sm: int = 32  # unit: 1
    texture_units_per_sm: int = 4  # unit: 1
    frequency_hz: int = GIGA       # unit: hertz
    l2_cache_bytes: int = 6 * 1024 * 1024 // 8  # share of the 6 MB total
    dram_bandwidth_bytes_per_s: int = 2 * 1000 * GIGA // 8  # unit: bytes/s

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.num_rops <= 0:
            raise ConfigError("a GPU needs at least one SM and one ROP")
        if self.frequency_hz <= 0:
            raise ConfigError("GPU frequency must be positive")


#: supported interconnect topologies
TOPOLOGY_P2P = "p2p"           # full point-to-point (DGX/NVSwitch-like)
TOPOLOGY_SHARED_BUS = "bus"    # one shared medium (PCIe-switch-like)
TOPOLOGY_RING = "ring"         # bidirectional ring, store-and-forward hops
TOPOLOGY_SWITCH = "switch"     # single crossbar, per-port contention

ALL_TOPOLOGIES = (TOPOLOGY_P2P, TOPOLOGY_SHARED_BUS, TOPOLOGY_RING,
                  TOPOLOGY_SWITCH)


@dataclass(frozen=True)
class LinkConfig:
    """Inter-GPU link (NVLink/XGMI style).

    ``bandwidth_bytes_per_cycle`` is per direction; ``latency_cycles`` is the
    fixed head latency added to every transfer. ``ideal`` marks the idealized
    variant used for upper-bound studies (zero latency, infinite bandwidth).

    ``topology`` selects the fabric: ``p2p`` gives every GPU pair its own
    channel (contention only at the per-GPU ports — the paper's DGX-like
    assumption, §V); ``bus`` funnels all transfers through one shared medium
    whose aggregate bandwidth is ``bus_bandwidth_x`` links' worth — an
    ablation for pre-NVLink systems; ``ring`` is a bidirectional ring where
    messages hop store-and-forward along the shortest direction, contending
    for each directed hop link; ``switch`` is a single crossbar — every GPU
    has one uplink and one downlink port, transfers pay two wire hops plus
    ``switch_latency_cycles`` of crossbar traversal, and the backplane
    admits ``num_gpus / switch_oversubscription`` simultaneous streams
    (1.0 = non-blocking).
    """

    bandwidth_gb_per_s: float = 64.0  # unit: bytes/s # GB scale, not dim.
    latency_cycles: int = 200         # unit: cycles
    ideal: bool = False
    topology: str = TOPOLOGY_P2P
    bus_bandwidth_x: float = 2.0      # unit: 1
    switch_latency_cycles: int = 100  # unit: cycles
    switch_oversubscription: float = 1.0  # unit: 1

    def __post_init__(self) -> None:
        if not self.ideal and self.bandwidth_gb_per_s <= 0:
            raise ConfigError("link bandwidth must be positive")
        if self.latency_cycles < 0:
            raise ConfigError("link latency cannot be negative")
        if self.topology not in ALL_TOPOLOGIES:
            raise ConfigError(f"unknown topology {self.topology!r} "
                              f"(known: {', '.join(ALL_TOPOLOGIES)})")
        if self.bus_bandwidth_x <= 0:
            raise ConfigError("bus bandwidth multiplier must be positive")
        if self.switch_latency_cycles < 0:
            raise ConfigError("switch latency cannot be negative")
        if self.switch_oversubscription < 1.0:
            raise ConfigError("switch oversubscription must be >= 1 "
                              "(1.0 = non-blocking crossbar)")

    def bandwidth_bytes_per_cycle(self, frequency_hz: int = GIGA) -> float:
        """Bytes per cycle in one direction at the given GPU clock."""
        if self.ideal:
            return float("inf")
        return self.bandwidth_gb_per_s * GIGA / frequency_hz

    def transfer_cycles(self, num_bytes: int, frequency_hz: int = GIGA) -> float:
        """Total cycles to move ``num_bytes`` across the link."""
        if self.ideal:
            return 0.0
        bpc = self.bandwidth_bytes_per_cycle(frequency_hz)
        return self.latency_cycles + num_bytes / bpc


@dataclass(frozen=True)
class SystemConfig:
    """Full multi-GPU system configuration (paper Table II defaults)."""

    num_gpus: int = 8              # unit: 1
    gpu: GPUConfig = field(default_factory=GPUConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    tile_size: int = 64
    composition_threshold: int = 4096  # unit: triangles
    #: draw-command scheduler statistics update interval, in triangles (Fig 18)
    scheduler_update_interval: int = 1  # unit: triangles
    #: bytes per pixel on the wire (RGBA8 colour + 32-bit depth)
    pixel_bytes: int = 8               # unit: bytes/pixel
    #: multisample anti-aliasing factor. Sub-images carry per-sample colour
    #: and depth until the final resolve, so composition traffic and ROP
    #: composition work scale with the sample count — a real consideration
    #: for sort-last schemes (the ROPs of Fig 1(c) do the AA resolve).
    msaa_samples: int = 1              # unit: 1
    #: bytes per primitive ID exchanged by GPUpd's distribution phase
    primitive_id_bytes: int = 4        # unit: bytes/triangle
    #: fraction of depth-culled fragments artificially retained (Fig 16)
    retained_cull_fraction: float = 0.0
    #: deterministic fault-injection plan (None = perfect hardware); see
    #: :mod:`repro.faults`. Link errors/degraded windows apply to every
    #: scheme's transfers; fail-stop recovery is modeled by the CHOPIN
    #: schemes.
    faults: Optional[FaultPlan] = None
    #: run the DES with the race sanitizer attached (``--sanitize``): every
    #: instrumented shared-state access is recorded per cycle and same-cycle
    #: conflicts between distinct processes fail the run. Purely a checking
    #: feature — it never changes simulated timing.
    sanitize: bool = False
    #: virtual-cycle budget for a single simulator run (``--watchdog-cycles``):
    #: a run that advances past it aborts with
    #: :class:`~repro.errors.WatchdogError` instead of livelocking forever.
    #: None (the default) keeps runs unbounded. A supervision knob, not a
    #: model parameter — it never changes simulated timing.
    watchdog_cycles: Optional[float] = None  # unit: cycles
    #: bounded window of in-flight composition groups per GPU: a GPU may
    #: start rendering group *k* only once its own composition of group
    #: ``k - pipeline_depth`` has completed. ``1`` serializes rendering with
    #: composition (a hard group barrier); ``None`` (the default) leaves the
    #: window unbounded — composition drains fully overlapped behind
    #: rendering, which is the paper's Fig 3 behaviour. The knob models the
    #: number of sub-image buffers a GPU can hold concurrently.
    pipeline_depth: Optional[int] = None  # unit: 1

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ConfigError("need at least one GPU")
        if self.watchdog_cycles is not None and self.watchdog_cycles <= 0:
            raise ConfigError("watchdog_cycles must be positive (or None "
                              "for unbounded runs)")
        if self.tile_size <= 0:
            raise ConfigError("tile size must be positive")
        if self.composition_threshold < 0:
            raise ConfigError("composition threshold cannot be negative")
        if self.scheduler_update_interval <= 0:
            raise ConfigError("scheduler update interval must be >= 1 triangle")
        if not 0.0 <= self.retained_cull_fraction <= 1.0:
            raise ConfigError("retained_cull_fraction must lie in [0, 1]")
        if self.msaa_samples not in (1, 2, 4, 8):
            raise ConfigError("msaa_samples must be 1, 2, 4, or 8")
        if self.pipeline_depth is not None and self.pipeline_depth < 1:
            raise ConfigError("pipeline_depth must be >= 1 (or None for an "
                              "unbounded in-flight group window)")
        if self.faults is not None:
            self.faults.validate_for(self.num_gpus)

    @property
    def effective_pixel_bytes(self) -> int:
        """Wire bytes per *screen* pixel, including MSAA samples."""
        return self.pixel_bytes * self.msaa_samples

    def with_gpus(self, num_gpus: int) -> "SystemConfig":
        """Copy of this config with a different GPU count."""
        return replace(self, num_gpus=num_gpus)

    def with_link(self, *, bandwidth_gb_per_s: float | None = None,
                  latency_cycles: int | None = None,
                  ideal: bool | None = None) -> "SystemConfig":
        """Copy of this config with modified link parameters."""
        link = self.link
        new = LinkConfig(
            bandwidth_gb_per_s=(bandwidth_gb_per_s
                                if bandwidth_gb_per_s is not None
                                else link.bandwidth_gb_per_s),
            latency_cycles=(latency_cycles if latency_cycles is not None
                            else link.latency_cycles),
            ideal=link.ideal if ideal is None else ideal,
        )
        return replace(self, link=new)

    def idealized(self) -> "SystemConfig":
        """Upper-bound variant: free links and unlimited buffering (Fig 5)."""
        return self.with_link(ideal=True, latency_cycles=0)


#: The paper's Table II configuration.
TABLE2 = SystemConfig()
