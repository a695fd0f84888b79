"""Exception types shared across the package, and the config-file
reader and type check of config dataclasses that raise ConfigError."""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path


class FewshiftError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FewshiftError, ValueError):
    """Invalid configuration value; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


def require_object(raw, name: str) -> dict:
    """raw when it is a JSON object (a dict), else a ConfigError for name."""
    if not isinstance(raw, dict):
        raise ConfigError(name, f"must be a JSON object, got {type(raw).__name__}")
    return raw


def read_config(path: str | Path) -> dict:
    """The JSON object a config file holds, else a ConfigError naming the file."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(str(path), f"not valid JSON: {exc}") from None
    return require_object(raw, str(path))


def check_field_types(config) -> None:
    """Raise ConfigError for the first field of a config dataclass whose
    value does not have the declared type.

    A bool field takes a bool; an int field an int that is not a bool; a
    float field a finite int or float that is not a bool.  Fields of other
    types are left to the config's own checks.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if f.type == "bool" and not isinstance(value, bool):
            raise ConfigError(f.name, f"must be true or false, got {value!r}")
        if f.type == "int" and not (number and isinstance(value, int)):
            raise ConfigError(f.name, f"must be an integer, got {value!r}")
        if f.type == "float" and not (number and math.isfinite(value)):
            raise ConfigError(f.name, f"must be a finite number, got {value!r}")


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
