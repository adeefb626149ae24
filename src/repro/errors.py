"""Exception hierarchy and exit-code registry for the repro package.

Every error raised on purpose by this library derives from :class:`ReproError`
so callers can catch library failures without masking programming errors.

The module also owns the CLI exit-code contract: the ``EXIT_*``
constants, the :data:`EXIT_CODES` isinstance ladder (most specific
first) that maps every taxonomy class to a deterministic exit code, and
the :data:`GENERIC_EXIT` allowlist recording which classes *deliberately*
fall through to the generic catch-all code. ``repro.cli`` consumes this
registry via :func:`exit_code_for`; the error-contract test walks every
``ReproError`` subclass at runtime to check the registry stays total,
collision-free, and documented in the CLI's exit-code table.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class TraceFingerprintError(ConfigError):
    """A failure trace was generated for a different fabric than the one it
    is being replayed against (topology fingerprint mismatch).

    Subclasses :class:`ConfigError` — the trace *is* configuration — but is
    distinguishable so the CLI can map it to its own exit code and print
    which identifying fields disagree."""

    def __init__(self, message: str, mismatched_fields: tuple = ()):
        super().__init__(message)
        self.mismatched_fields = tuple(mismatched_fields)


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class WatchdogError(SimulationError):
    """The virtual-time watchdog tripped: a single :meth:`Simulator.run`
    advanced more than its configured ``watchdog_cycles`` budget without
    finishing (livelock — e.g. an unbounded retry loop that keeps feeding
    the event queue, which the drain-based deadlock check can never see).

    Subclasses :class:`SimulationError` so generic handlers treat a trip
    like any other wedged simulation; the serve daemon catches it
    specifically and degrades instead of crashing."""


class RaceConditionError(SimulationError):
    """The race sanitizer observed same-cycle conflicting accesses to a
    shared resource by distinct processes (see ``repro.analysis.sanitizer``).

    Subclasses :class:`SimulationError` so existing handlers and exit-code
    mapping treat a flagged race like any other simulation failure."""


class FaultError(ReproError):
    """An injected fault could not be recovered from (e.g., a transfer
    exhausted its retry budget, or a fail-stop left no survivors)."""


class PipelineError(ReproError):
    """The graphics pipeline was driven with invalid inputs."""


class CompositionError(ReproError):
    """Image composition was requested with incompatible operands."""


class SchedulingError(ReproError):
    """A scheduler (draw-command or composition) hit an invalid state."""


class TraceError(ReproError):
    """A workload trace is malformed or inconsistent."""


class HarnessError(ReproError):
    """The experiment harness (job engine, journal, CLI glue) failed."""


class JobTimeout(HarnessError):
    """A supervised job exceeded its wall-clock budget and was killed.

    Transient: the engine retries these (slow machine, scheduler hiccup)
    until the retry budget is exhausted.
    """


class WorkerCrashed(HarnessError):
    """A worker subprocess died without reporting a result (signal,
    ``os._exit``, OOM kill).

    Transient: the engine retries these until the retry budget is
    exhausted.
    """


class ServeError(ReproError):
    """The frame-serving daemon (see :mod:`repro.serve`) failed."""


class ServeOverloadError(ServeError):
    """A serve run breached its declared SLO gates (shed rate or tail
    latency above the ``--max-shed-rate`` / ``--max-p99-x`` bounds).

    Carries the measured metrics so the CLI's exit-8 report can say by
    how much the gate was missed, not just that it was."""

    def __init__(self, message: str, shed_rate: float = 0.0,
                 p99_cycles: float = 0.0):
        super().__init__(message)
        self.shed_rate = shed_rate
        self.p99_cycles = p99_cycles


class RetryBudgetExhausted(HarnessError):
    """A job failed on every allowed attempt.

    Terminal: carries the spec fingerprint and the classified cause of the
    last attempt so reports can say *why* a cell is FAILED.
    """

    def __init__(self, message: str, fingerprint: str = "",
                 last_error: str = "", attempts: int = 0):
        super().__init__(message)
        self.fingerprint = fingerprint
        self.last_error = last_error
        self.attempts = attempts


# -- CLI exit-code registry ---------------------------------------------------
#
# Single source of truth for ``python -m repro`` exit codes. ``cli.py``
# re-exports these names for backward compatibility; the error-contract
# test reads this registry to prove every taxonomy class maps
# deterministically.

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_PARTIAL = 3
EXIT_TIMEOUT = 4
EXIT_CRASH = 5
EXIT_BUDGET = 6
EXIT_FINGERPRINT = 7
EXIT_OVERLOAD = 8
EXIT_DEGRADED = 9
EXIT_FAULT = 10
EXIT_SCHEDULING = 11

#: typed failure -> distinct exit code (most specific first; the
#: trailing ReproError entry is the generic catch-all)
EXIT_CODES = ((RetryBudgetExhausted, EXIT_BUDGET), (JobTimeout, EXIT_TIMEOUT),
              (WorkerCrashed, EXIT_CRASH),
              (TraceFingerprintError, EXIT_FINGERPRINT),
              (ServeOverloadError, EXIT_OVERLOAD),
              (WatchdogError, EXIT_DEGRADED),
              (FaultError, EXIT_FAULT),
              (SchedulingError, EXIT_SCHEDULING),
              (ConfigError, EXIT_CONFIG), (ReproError, EXIT_ERROR))

#: taxonomy classes that *deliberately* map to the generic catch-all
#: exit code (EXIT_ERROR); subclasses inherit the decision unless they
#: appear in the ladder themselves. Checked by the error-contract test:
#: a class in neither EXIT_CODES nor (transitively) this set fails it.
GENERIC_EXIT = frozenset({
    "SimulationError",   # kernel misuse: a bug, not an outcome
    "PipelineError",     # driven with invalid inputs: a bug
    "CompositionError",  # incompatible operands: a bug
    "TraceError",        # malformed workload trace
    "HarnessError",      # engine glue; its job outcomes map specifically
    "ServeError",        # daemon internals; SLO breaches map specifically
})


def exit_code_for(exc: ReproError) -> int:
    """Deterministic CLI exit code for a typed library failure."""
    for exc_type, code in EXIT_CODES:
        if isinstance(exc, exc_type):
            return code
    return EXIT_ERROR  # non-ReproError caller mistake: generic failure
