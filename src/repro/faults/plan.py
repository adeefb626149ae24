"""Deterministic fault plans for the multi-GPU simulation.

A :class:`FaultPlan` describes *everything* that will go wrong during a run,
ahead of time and reproducibly:

- **fail-stop GPU failures** — GPU ``g`` dies at cycle ``T`` and never comes
  back (Equalizer-style node failure). The CHOPIN schemes recover by
  redistributing the dead GPU's unfinished draws to survivors and repairing
  the composition pairing (see :mod:`repro.faults.degraded`);
- **transient link errors** — each streamed message is independently dropped
  (lost in the fabric, detected by timeout) or corrupted (detected by CRC at
  the receiver) with configurable probabilities; the interconnect retries
  with exponential backoff up to a retry budget;
- **degraded-bandwidth windows** — intervals during which every link runs at
  a fraction of its nominal bandwidth (thermal throttling, a flapping lane).

All randomness flows from ``seed`` through a dedicated :class:`FaultInjector`
stream, so two runs with the same plan are bit-identical, and a plan whose
probabilities are all zero never draws a random number at all — runs with
such a plan are indistinguishable from fault-free runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError

#: transfer outcomes reported by the injector
OUTCOME_OK = "ok"
OUTCOME_DROP = "drop"
OUTCOME_CORRUPT = "corrupt"


@dataclass(frozen=True)
class GPUFailure:
    """Fail-stop: ``gpu`` dies at ``cycle`` and stays dead for the frame."""

    gpu: int
    cycle: float

    def __post_init__(self) -> None:
        if self.gpu < 0:
            raise ConfigError(f"fail-stop GPU index cannot be negative "
                              f"(got {self.gpu})")
        if self.cycle < 0:
            raise ConfigError(f"fail-stop cycle cannot be negative "
                              f"(got {self.cycle})")


@dataclass(frozen=True)
class DegradedWindow:
    """Every link runs at ``bandwidth_factor`` of nominal in [start, end)."""

    start: float
    end: float
    bandwidth_factor: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < 0:
            raise ConfigError("degraded window bounds cannot be negative")
        if self.end <= self.start:
            raise ConfigError(
                f"degraded window must end after it starts "
                f"(got [{self.start}, {self.end}))")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ConfigError(
                f"degraded bandwidth factor must lie in (0, 1] "
                f"(got {self.bandwidth_factor})")

    def contains(self, cycle: float) -> bool:
        return self.start <= cycle < self.end


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seedable description of the faults injected into one run.

    ``drop_probability`` and ``corrupt_probability`` apply independently per
    transfer; ``retry_budget`` bounds retransmissions per message before the
    run aborts with :class:`~repro.errors.FaultError`; backoff doubles from
    ``backoff_base_cycles`` on every consecutive retry of the same message.
    A dropped message is only detected after ``drop_detection_cycles`` (the
    sender's acknowledgement timeout); a corrupted one is NACKed as soon as
    the stream finishes.
    """

    seed: int = 0
    drop_probability: float = 0.0
    corrupt_probability: float = 0.0
    retry_budget: int = 8
    backoff_base_cycles: float = 16.0
    drop_detection_cycles: float = 400.0
    gpu_failures: Tuple[GPUFailure, ...] = ()
    degraded_windows: Tuple[DegradedWindow, ...] = ()
    #: GPU count the plan was written for (None = any). When set, fail-stop
    #: indices are range-checked at construction and :meth:`validate_for`
    #: refuses replay against a differently-sized system.
    gpus: Optional[int] = None

    def __post_init__(self) -> None:
        for name, p in (("drop_probability", self.drop_probability),
                        ("corrupt_probability", self.corrupt_probability)):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(
                    f"{name} must be a probability in [0, 1] (got {p})")
        if self.drop_probability + self.corrupt_probability > 1.0:
            raise ConfigError(
                "drop_probability + corrupt_probability cannot exceed 1")
        if self.retry_budget < 0:
            raise ConfigError(
                f"retry budget cannot be negative (got {self.retry_budget})")
        if self.backoff_base_cycles < 0:
            raise ConfigError("backoff base cannot be negative")
        if self.drop_detection_cycles < 0:
            raise ConfigError("drop detection timeout cannot be negative")
        seen = set()
        for failure in self.gpu_failures:
            if failure.gpu in seen:
                raise ConfigError(
                    f"GPU{failure.gpu} fail-stops twice in the same plan")
            seen.add(failure.gpu)
        if self.gpus is not None:
            if self.gpus <= 0:
                raise ConfigError(
                    f"fault-plan GPU count must be positive (got {self.gpus})")
            for failure in self.gpu_failures:
                if failure.gpu >= self.gpus:
                    raise ConfigError(
                        f"fail-stop targets GPU{failure.gpu} but the plan "
                        f"declares only {self.gpus} GPUs")
        ordered = sorted(self.degraded_windows,
                         key=lambda w: (w.start, w.end))
        for prev, nxt in zip(ordered, ordered[1:]):
            if nxt.start < prev.end:
                raise ConfigError(
                    f"degraded windows [{prev.start}, {prev.end}) and "
                    f"[{nxt.start}, {nxt.end}) overlap; split them into "
                    f"disjoint intervals (the most degraded factor wins "
                    f"where they would overlap)")

    # -- derived queries ---------------------------------------------------

    @property
    def error_probability(self) -> float:
        """Per-transfer probability of *any* link error."""
        return self.drop_probability + self.corrupt_probability

    @property
    def affects_links(self) -> bool:
        """True if transfers can ever retry or slow down under this plan."""
        return self.error_probability > 0.0 or bool(self.degraded_windows)

    @property
    def failed_gpus(self) -> Tuple[int, ...]:
        return tuple(f.gpu for f in self.gpu_failures)

    def failure_cycle(self, gpu: int) -> float:
        for failure in self.gpu_failures:
            if failure.gpu == gpu:
                return failure.cycle
        raise ConfigError(f"GPU{gpu} does not fail under this plan")

    def bandwidth_factor_at(self, cycle: float) -> float:  # unit: 1
        """Link bandwidth multiplier in effect at ``cycle`` (1.0 = nominal).

        Windows are disjoint by construction, so at most one applies.
        """
        for window in self.degraded_windows:
            if window.contains(cycle):
                return window.bandwidth_factor
        return 1.0

    def validate_for(self, num_gpus: int) -> None:
        """Check the plan against a concrete system size."""
        if self.gpus is not None and self.gpus != num_gpus:
            raise ConfigError(
                f"fault plan was written for {self.gpus} GPUs but the "
                f"system has {num_gpus}")
        for failure in self.gpu_failures:
            if failure.gpu >= num_gpus:
                raise ConfigError(
                    f"fail-stop targets GPU{failure.gpu} but the system "
                    f"only has {num_gpus} GPUs")
        if len(self.gpu_failures) >= num_gpus:
            raise ConfigError("fault plan kills every GPU; no survivors "
                              "could finish the frame")


class FaultInjector:
    """Runtime die-roller for a :class:`FaultPlan`.

    One injector is created per simulation run; its random stream is keyed
    only by the plan's seed, and it draws exactly one number per transfer
    *only when link errors are possible* — so a plan with zero probabilities
    perturbs nothing, not even the RNG stream.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # A dedicated seeded instance — never the module-global stream
        # (simlint's unseeded-rng rule enforces this repo-wide).
        self._rng = Random(plan.seed ^ 0x5FA017)
        self.transfers_seen = 0

    def transfer_outcome(self, src: int, dst: int) -> str:
        """Roll one transfer: OUTCOME_OK / OUTCOME_DROP / OUTCOME_CORRUPT."""
        self.transfers_seen += 1
        p_drop = self.plan.drop_probability
        p_corrupt = self.plan.corrupt_probability
        if p_drop == 0.0 and p_corrupt == 0.0:
            return OUTCOME_OK
        roll = self._rng.random()
        if roll < p_drop:
            return OUTCOME_DROP
        if roll < p_drop + p_corrupt:
            return OUTCOME_CORRUPT
        return OUTCOME_OK

    def backoff_cycles(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            raise ConfigError("backoff attempt numbers start at 1")
        return self.plan.backoff_base_cycles * (2.0 ** (attempt - 1))


# ---------------------------------------------------------------------------
# CLI spec parsing


def _parse_failure(value: str) -> GPUFailure:
    try:
        gpu_text, cycle_text = value.split("@", 1)
        return GPUFailure(gpu=int(gpu_text), cycle=float(cycle_text))
    except ValueError as exc:
        raise ConfigError(
            f"bad fail-stop spec {value!r}: expected GPU@CYCLE "
            f"(e.g. fail=2@50000)") from exc


def _parse_window(value: str) -> DegradedWindow:
    parts = value.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"bad degraded-window spec {value!r}: expected "
            f"START:END:FACTOR (e.g. slow=1000:9000:0.25)")
    try:
        return DegradedWindow(start=float(parts[0]), end=float(parts[1]),
                              bandwidth_factor=float(parts[2]))
    except ValueError as exc:
        raise ConfigError(
            f"bad degraded-window spec {value!r}: {exc}") from exc


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse the CLI mini-language into a :class:`FaultPlan`.

    The spec is a comma-separated list of ``key=value`` tokens::

        seed=42,gpus=8,fail=2@50000,drop=0.01,corrupt=0.002,retries=5,
        backoff=16,detect=400,slow=1000:9000:0.25

    ``fail`` and ``slow`` may repeat; ``slow`` windows must be disjoint.
    ``gpus`` pins the plan to a system size (replay against any other size
    is refused). Unknown keys and malformed values raise
    :class:`~repro.errors.ConfigError`.
    """
    kwargs: Dict[str, object] = {}
    failures: List[GPUFailure] = []
    windows: List[DegradedWindow] = []
    for token in spec.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ConfigError(
                f"bad fault-plan token {token!r}: expected key=value")
        key, value = (part.strip() for part in token.split("=", 1))
        try:
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "drop":
                kwargs["drop_probability"] = float(value)
            elif key == "corrupt":
                kwargs["corrupt_probability"] = float(value)
            elif key == "retries":
                kwargs["retry_budget"] = int(value)
            elif key == "backoff":
                kwargs["backoff_base_cycles"] = float(value)
            elif key == "detect":
                kwargs["drop_detection_cycles"] = float(value)
            elif key == "gpus":
                kwargs["gpus"] = int(value)
            elif key == "fail":
                failures.append(_parse_failure(value))
            elif key == "slow":
                windows.append(_parse_window(value))
            else:
                raise ConfigError(
                    f"unknown fault-plan key {key!r} (known: seed, drop, "
                    f"corrupt, retries, backoff, detect, gpus, fail, slow)")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(
                f"bad fault-plan value for {key!r}: {value!r}") from exc
    return FaultPlan(gpu_failures=tuple(failures),
                     degraded_windows=tuple(windows), **kwargs)
