"""Small input-validation helpers used at public API boundaries."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ShapeMismatch, ValidationError


def as_array(x, shape, name):
    """Coerce to a contiguous float64 ndarray of the given shape; ``shape``
    entries of ``None`` match any extent."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != len(shape):
        raise ShapeMismatch(f"{name}: expected {len(shape)} dims, got {arr.ndim}")
    for want, got in zip(shape, arr.shape):
        if want is not None and want != got:
            raise ShapeMismatch(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


def check_same_hw(*arrays, names):
    """Require every array to share the leading H, W extents."""
    base = arrays[0].shape[:2]
    for i, a in enumerate(arrays[1:], start=1):
        if a.shape[:2] != base:
            raise ShapeMismatch(f"{names[i]}: expected H,W {base}, got {a.shape[:2]}")
    return base


def require(cond, message):
    if not cond:
        raise ValidationError(message)


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


def require_uncertainties(u):
    """Flow uncertainties are None (read as zero) or finite and >= 0."""
    require(u is None or np.all(np.isfinite(u) & (np.asarray(u) >= 0.0)),
            "uncertainties must be finite and >= 0")


def read_json(path, what):
    """Parse a JSON file; unreadable files and malformed JSON raise ValidationError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ValidationError(f"{what} {path}: {exc}") from None
