"""Exception types shared across the pipeline.

The CLI maps these onto exit codes: InvalidConfig -> 2, InvalidSpec -> 2,
MalformedContainer -> 3, NoOverlap -> 3 (a broken chunk stream),
KeyMismatch -> 4. ``evaluate`` raises a NotEnoughPoints of its EPE as a
KeyMismatch: the prediction and the ground truth share too few finite
samples to compare.
"""


class ChunkFuseError(Exception):
    """Base class for all pipeline errors."""


class InvalidConfig(ChunkFuseError):
    """A configuration value violates its documented constraints."""


class InvalidSpec(ChunkFuseError):
    """A synthetic scene description is empty or degenerate."""


class NoOverlap(ChunkFuseError):
    """Two adjacent chunks of a stream share fewer than two frames, lie on
    different grids, or the second does not start and end after the first."""


class NotEnoughPoints(ChunkFuseError):
    """Fewer than the minimum positive-weight correspondences."""


class DegenerateConfiguration(ChunkFuseError):
    """Point configuration is rank-deficient (coincident or collinear)."""


class WindowTooShort(ChunkFuseError):
    """Boundary reconstruction needs a window of at least two frames."""


class MalformedContainer(ChunkFuseError):
    """A container directory fails structural or byte-level validation."""


class KeyMismatch(ChunkFuseError):
    """Predicted and ground-truth trajectory tables disagree on their keys."""
