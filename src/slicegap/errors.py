"""Exception types shared across the package."""


class SliceGapError(Exception):
    """Base class for all package-specific errors."""


class EmptyLevelSetError(SliceGapError):
    """The requested level lies above the density's maximum."""


class OffSliceError(SliceGapError):
    """A point was required to lie on a level set but does not."""


class InvalidStateError(SliceGapError):
    """Chain state with zero density; no transition is defined."""


class OutOfClassError(SliceGapError):
    """Level-set gap reaches or exceeds the step width; mixture weight undefined."""


class RunawayExpansionError(SliceGapError):
    """Stepping-out exceeded its loop cap (unbounded slice or bad step width)."""


class ShrinkageStallError(SliceGapError):
    """Shrinkage exceeded its loop cap (numerically degenerate bracket)."""


class UnsupportedShapeError(SliceGapError):
    """Component shape not admissible for the requested operation."""


class CoverageError(SliceGapError):
    """Discretization grid does not cover the target support."""


class InsufficientDataError(SliceGapError):
    """Not enough samples for the requested statistic."""


class DegenerateVarianceError(SliceGapError):
    """Statistic undefined for a constant series."""


class TraceFormatError(SliceGapError):
    """A trace file cannot be read, or its states do not fit the configured target."""


class ChainError(SliceGapError):
    """A chain transition failed; carries the failing step index."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"chain step {step} failed: {cause}")
        self.step = step
        self.cause = cause


class ConfigError(SliceGapError):
    """Invalid experiment configuration."""
