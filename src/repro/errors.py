"""Exception hierarchy for the ScaleDeep reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ShapeError(ReproError):
    """A layer was connected to inputs whose shapes it cannot consume."""


class TopologyError(ReproError):
    """A network graph is malformed (cycles, dangling inputs, bad names)."""


class ConfigError(ReproError):
    """An architecture configuration is inconsistent or out of range."""


class AnalysisError(ReproError):
    """A workload-analysis query was asked of data that cannot answer it."""


class MappingError(ReproError):
    """The compiler could not map a network onto the given architecture."""


class UnmappableError(MappingError):
    """Fault-degraded capacity genuinely cannot host the network.

    Raised only when remapping around dead tiles has been attempted and
    the surviving columns still cannot satisfy the STEP3a memory
    constraint — i.e. capacity is truly exhausted, not merely degraded.
    """


class IRError(ReproError):
    """A compiler IR is malformed (duplicate ops, unknown references,
    unsupported schema version)."""


class IRVerificationError(IRError):
    """The IR verifier pass found diagnostics: placements or dataflow
    edges that no lowering could realise.  ``issues`` carries the typed
    findings (one :class:`repro.compiler.verifier.IRIssue` each)."""

    def __init__(self, message: str, issues=()) -> None:
        super().__init__(message)
        self.issues = tuple(issues)


class ProgramError(ReproError):
    """An ISA program is malformed or uses an unknown instruction."""


class SimulationError(ReproError):
    """The simulator reached an invalid state (deadlock, bad access)."""


class SimulationTimeout(SimulationError):
    """The engine watchdog killed a run that exceeded its wall-clock or
    cycle budget.

    ``snapshot`` carries the per-tile tracker state at the moment of the
    kill: a tuple of dicts with ``tile``, ``pc``, ``cycles``,
    ``instructions``, ``halted``, ``blocked`` and ``reason`` (the
    obstructing tracker access, or ``None``), sorted by tile id.
    """

    def __init__(self, message: str, snapshot=()) -> None:
        super().__init__(message)
        self.snapshot = tuple(snapshot)


class ValidationError(ReproError):
    """The differential validation gate failed: engine-vs-analytical
    cycle ratios left their tolerance bands, the models disagree on
    workload ranking, or engine outputs diverged from the numpy
    reference.  ``violations`` carries one human-readable finding per
    failure."""

    def __init__(self, message: str, violations=()) -> None:
        super().__init__(message)
        self.violations = tuple(violations)


class SweepError(ReproError):
    """A sweep could not proceed (e.g. a malformed job grid)."""


class SLOViolation(ReproError):
    """A serving run missed its service-level objective: a tenant's (or
    the node's) p99 latency exceeded the target, or availability fell
    below it.  ``violations`` carries one human-readable finding per
    missed objective — the run itself completed and its artifacts were
    written before this was raised."""

    def __init__(self, message: str, violations=()) -> None:
        super().__init__(message)
        self.violations = tuple(violations)


class SynchronizationError(SimulationError):
    """A data-flow tracker observed an access sequence that violates its
    MEMTRACK specification."""
