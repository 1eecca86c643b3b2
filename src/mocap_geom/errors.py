"""Exception types shared across the pipeline."""


class ValidationError(ValueError):
    """Input violates a precondition or type invariant."""


class DimensionError(ValidationError):
    """Image or array dimensions are empty or inconsistent."""


class SplitFailure(ValueError):
    """A merged region could not be split into the requested clusters."""


class CalibrationInputError(ValueError):
    """Calibration was asked to run on frames that lack required targets."""


class CalibrationDeferred(Exception):
    """Not enough qualifying frames in the window; retry with more data."""


class TrackingGap(Exception):
    """The root target is missing for a frame; pose must be predicted."""


class FormatError(ValueError):
    """An on-disk artifact does not match its expected binary/JSON format."""
