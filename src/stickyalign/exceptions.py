"""Exception types shared across the package."""


class StickyAlignError(Exception):
    """Base class for all package-specific errors."""


class KernelRangeError(StickyAlignError):
    """Inverse primitive requested outside the range of the bounded primitive."""


class InvalidEnsembleError(StickyAlignError):
    """Particle data violates the ensemble invariants (mass, ordering, shapes)."""


class InvalidScenarioError(StickyAlignError):
    """An analysis precondition does not hold (e.g. misordered subgroup speeds)."""


class NumericalAbortError(StickyAlignError):
    """The integrator could not proceed (step-size underflow, event stagnation).
    Out of ``simulate`` it carries ``stats``: the counts so far and the ``t``."""

    stats: dict | None = None


class ConfigError(StickyAlignError):
    """Scenario configuration is malformed or inconsistent."""


class RecordIOError(StickyAlignError):
    """A simulation record directory is missing files or cannot be parsed."""
