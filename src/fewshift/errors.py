"""Exception types shared across the package."""

from __future__ import annotations


class FewshiftError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FewshiftError):
    """Invalid configuration value; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class TensorFormatError(FewshiftError):
    """Malformed tensor container data."""


class BadMagicError(TensorFormatError):
    """Stream does not start with the tensor container magic."""


class UnsupportedVersionError(TensorFormatError):
    """Tensor container version byte is not supported."""


class TruncatedError(TensorFormatError):
    """Stream ended before the declared header or payload was complete."""


class NonFiniteError(TensorFormatError):
    """Payload holds a NaN or infinite float; carries its byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class TensorIOError(FewshiftError):
    """Underlying stream failed; carries the byte offset reached."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"I/O failure at byte offset {offset}: {message}")
        self.offset = offset


class ManifestError(FewshiftError):
    """Episode manifest violates its structural invariants."""


class ShapeMismatchError(FewshiftError):
    """A tensor's shape disagrees with the shape the context requires."""


class NotPositiveDefiniteError(FewshiftError):
    """Cholesky factorization failed; carries the failing pivot index."""

    def __init__(self, pivot: int):
        super().__init__(f"matrix is not positive definite (pivot {pivot})")
        self.pivot = pivot
