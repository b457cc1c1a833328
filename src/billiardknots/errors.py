"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PipelineError, ValueError):
    """Input outside an operation's domain (bad strand count, regime, shapes)."""


class CoincidentEventsError(DomainError):
    """Two events of a trajectory fall on (or too near) the same arc."""


class CombinatorialCollapseError(PipelineError):
    """No perturbation magnitude preserved the diagram combinatorics."""


class PrecisionError(PipelineError):
    """Working precision is insufficient for the requested tolerance."""


class DegenerateAngleError(PipelineError, ValueError):
    """Three collinear (or coincident) points where a genuine angle is required."""


class UnboundedTableError(PipelineError):
    """The mirror half-plane intersection is not a bounded polygon."""


class SearchExhaustedError(PipelineError):
    """Height search ran out of frequencies before satisfying all constraints."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class SpecFileError(PipelineError, ValueError):
    """A realization spec file failed validation or parsing."""
