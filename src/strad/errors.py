"""Exception types shared across the package."""


class StradError(Exception):
    """Base class for all package-specific errors."""


class DataError(StradError):
    """Malformed input data; the message names the file, row and column, or the series."""


class ShapeMismatchError(StradError):
    """Array shapes of two operands disagree."""


class ConfigError(StradError):
    """Invalid or unknown configuration content."""


class NumericError(StradError):
    """A loss, gradient, or parameter became non-finite during training."""


class CheckpointError(StradError):
    """A checkpoint file is malformed or incompatible with the configuration."""
