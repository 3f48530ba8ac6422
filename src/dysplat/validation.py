"""Small input-validation helpers used at public API boundaries."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ShapeMismatch, ValidationError


def as_array(x, shape=None, name="array", dtype=np.float64):
    """Coerce to a contiguous ndarray, optionally checking the shape.

    ``shape`` entries of ``None`` match any extent.
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if shape is not None:
        if arr.ndim != len(shape):
            raise ShapeMismatch(f"{name}: expected {len(shape)} dims, got {arr.ndim}")
        for want, got in zip(shape, arr.shape):
            if want is not None and want != got:
                raise ShapeMismatch(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


def check_same_hw(*arrays, names=None):
    """Require every array to share the leading H, W extents."""
    base = arrays[0].shape[:2]
    for i, a in enumerate(arrays[1:], start=1):
        if a.shape[:2] != base:
            label = names[i] if names else f"argument {i}"
            raise ShapeMismatch(f"{label}: expected H,W {base}, got {a.shape[:2]}")
    return base


def require(cond, message, exc=ValidationError):
    if not cond:
        raise exc(message)


def require_int(value, what, low=None):
    """``value`` as an int; a bool, a non-integer or a value below ``low``
    raises ValidationError."""
    require(isinstance(value, (int, np.integer)) and not isinstance(value, bool),
            f"{what} must be an integer, got {value!r}")
    require(low is None or value >= low, f"{what} must be >= {low}, got {value}")
    return int(value)


def require_number(value, what, low=None):
    """``value`` as a float; a bool, a non-number, a non-finite number or a
    value below ``low`` raises ValidationError."""
    ok = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if ok else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    require(math.isfinite(x), f"{what} must be a finite number, got {value!r}")
    require(low is None or x >= low, f"{what} must be >= {low}, got {value}")
    return x


def read_json(path, what):
    """Parse a JSON file; unreadable files and malformed JSON raise ValidationError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ValidationError(f"{what} {path}: {exc}") from None
