"""Input validation helpers shared across the library.

All public entry points validate their inputs eagerly and raise ``ValueError``
/ ``TypeError`` with actionable messages, so mistakes surface at the API
boundary rather than deep inside a simulator loop.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np


def check_array_2d(x, name: str = "X", dtype=np.float32) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous 2-D array of ``dtype``.

    Feature matrices flow through tight NumPy gather loops; enforcing a single
    dtype and contiguity up front keeps the per-level traversal kernels free
    of silent copies (see the hpc guide's "views, not copies" rule).
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_queries(x, n_features: int) -> np.ndarray:
    """The query input contract of every classification entry point.

    :func:`check_array_2d` (finite, non-empty, 2-D float32) plus the
    forest's feature count, so a narrow matrix never reaches a traversal's
    gather and a wide one is never silently truncated.
    """
    arr = check_array_2d(x, "X")
    if arr.shape[1] != n_features:
        raise ValueError(f"X has {arr.shape[1]} features, forest expects {n_features}")
    return arr


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer ``>= minimum`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_in_range(value, name: str, low, high) -> float:
    """Validate ``low <= value <= high`` and return ``value`` as float."""
    value = float(value)
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def array_crc32(arr: np.ndarray, start: int = 0) -> int:
    """CRC32 of an array's raw bytes (C order), as an unsigned 32-bit int.

    ``start`` chains checksums across several arrays (``zlib.crc32`` running
    value), which is how per-tree checksums cover a tree's slices of every
    node buffer with one digest.  The checksum covers values only, not dtype
    or shape — callers that need those guarantees must check them separately.
    """
    return zlib.crc32(np.ascontiguousarray(arr).tobytes(), start) & 0xFFFFFFFF


def check_same_length(*arrays: Sequence, names: Sequence[str] = ()) -> int:
    """Validate that all arrays share their first-dimension length."""
    if not arrays:
        raise ValueError("check_same_length needs at least one array")
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) != 1:
        labels = list(names) + [f"arg{i}" for i in range(len(names), len(arrays))]
        detail = ", ".join(f"{n}={l}" for n, l in zip(labels, lengths))
        raise ValueError(f"length mismatch: {detail}")
    return lengths[0]
