"""Exception types raised across the measurement pipeline."""


class FruitGaugeError(Exception):
    """Base class for all validation/domain errors (CLI exit code 1)."""


class BundleIOError(FruitGaugeError):
    """A file is missing, unreadable, or malformed (CLI exit code 2)."""


# geometry
class InvalidPose(FruitGaugeError):
    """Rotation part of a pose is not a proper rotation matrix."""


class InvalidDepth(FruitGaugeError):
    """Depth value is zero/negative where a positive depth is required."""


class OutOfBounds(FruitGaugeError):
    """Pixel coordinate falls outside the image."""


class BehindCamera(FruitGaugeError):
    """Point has non-positive z and cannot be projected."""


# maskops
class LengthMismatch(FruitGaugeError):
    """Run-length counts (or paired lists) do not cover the expected size."""


class EmptyMask(FruitGaugeError):
    """Operation requires a mask with at least one foreground pixel."""


class NoValidDepth(FruitGaugeError):
    """Too many edge pixels lack depth samples for a reliable median."""


# sizing
class DegenerateCircle(FruitGaugeError):
    """Fewer than three points, or points collinear: no circle fits."""


class ZeroArea(FruitGaugeError):
    """Fitted circle covers no pixel centers on the image grid."""


# evaluation
class EmptyInput(FruitGaugeError):
    """Statistic requested over an empty sequence."""


class ZeroMean(FruitGaugeError):
    """Accuracy is undefined for a non-positive mean reference size."""


class AmbiguousMatch(FruitGaugeError):
    """Nearest-center matching could not separate two truth candidates."""


class UnmatchedMeasurement(FruitGaugeError):
    """A measurement has no ground-truth counterpart."""


# simulate / pipeline
class InvalidSpec(FruitGaugeError):
    """Scene specification violates its invariants."""


class UnknownCamera(FruitGaugeError):
    """A record references a camera id absent from the rig, or the fused row's id."""


class InsufficientObservations(FruitGaugeError):
    """Calibration cannot connect every camera to the anchor."""
