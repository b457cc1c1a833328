"""Knots and links realized as closed billiard trajectories in convex prisms."""

from .braids import QuasitoricPattern, toric_pattern
from .errors import (
    CoincidentEventsError,
    CombinatorialCollapseError,
    DegenerateAngleError,
    DomainError,
    PipelineError,
    PrecisionError,
    SearchExhaustedError,
    SpecFileError,
    UnboundedTableError,
)
from .pipeline import RealizationSpec, realize
from .presets import PRESETS

__all__ = [
    "PRESETS",
    "QuasitoricPattern",
    "RealizationSpec",
    "realize",
    "toric_pattern",
    # errors
    "PipelineError",
    "DomainError",
    "CoincidentEventsError",
    "CombinatorialCollapseError",
    "PrecisionError",
    "DegenerateAngleError",
    "UnboundedTableError",
    "SearchExhaustedError",
    "SpecFileError",
]
