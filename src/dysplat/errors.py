"""Exception types shared across the package."""


class DysplatError(Exception):
    """Base class for all package errors."""


class ValidationError(DysplatError):
    """Bad user input: malformed files, inconsistent shapes, invalid options."""


class NonPositiveDepth(DysplatError):
    """A point lies behind or on the camera plane, or a depth is not positive."""


class DegenerateRotation6D(DysplatError):
    """A 6D rotation vector cannot be orthonormalized (zero or parallel columns)."""


class MismatchedForward(DysplatError):
    """Backward pass received buffers that do not match the forward pass."""


class EmptyStaticRegion(ValidationError):
    """No static pixels available to initialize background Gaussians."""


class InsufficientTracks(ValidationError):
    """Fewer usable tracks than requested motion clusters."""


class TrainingAborted(DysplatError):
    """The training loop hit a sustained non-finite loss and gave up."""


class MissingChannel(ValidationError):
    """A dataset directory lacks a required channel."""

    def __init__(self, channel, path=None):
        self.channel = channel
        self.path = path
        msg = f"missing dataset channel: {channel}"
        if path is not None:
            msg += f" ({path})"
        super().__init__(msg)


class ShapeMismatch(ValidationError):
    """Raw payload size disagrees with its sidecar or with sibling channels."""


class BadMagic(ValidationError):
    """A binary file does not start with the expected magic bytes."""
