"""Forest serialisation (single-file ``.npz``).

Training deep forests dominates the wall-clock of the experiment pipeline, so
the harness caches trained forests on disk.  The format is one compressed
``.npz`` holding the concatenated node arrays plus per-tree offsets — the same
struct-of-arrays discipline used everywhere else, so loading is a handful of
slices with no per-node Python work.

Format history:

* v1 — node arrays + offsets.
* v2 — adds per-node ``n_samples``.
* v3 — adds per-array CRC32 checksums, verified on load.  A silently
  corrupted cache would poison every experiment that shares it, so damage
  (truncation, bit rot, interrupted writes) surfaces as a clear
  :class:`ForestIntegrityError` instead of a cryptic ``zipfile``/``KeyError``
  deep inside NumPy.  v1/v2 files still load (without checksum coverage).
* v4 — adds the precision axis: ``save_forest(..., codec=...)`` stores the
  threshold channel codec-encoded (float16 / int8; ``packed`` uses the
  int8 threshold encoding — record packing is a device-layout concern),
  plus the per-feature affine calibration tables and a per-array codec-tag
  table, all CRC-covered.  v1–v3 files keep loading byte-for-byte.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from typing import List

import numpy as np

from repro.forest.random_forest import RandomForestClassifier
from repro.forest.tree import DecisionTree
from repro.utils.validation import array_crc32

_FORMAT_VERSION = 4

#: Arrays covered by the v3 checksums, in stored order.
_CHECKSUMMED = (
    "tree_offsets",
    "feature",
    "threshold",
    "left_child",
    "right_child",
    "value",
    "depth",
    "n_samples",
)

#: v4 extends checksum coverage to the codec calibration tables.
_CHECKSUMMED_V4 = _CHECKSUMMED + ("threshold_scale", "threshold_offset")


class ForestIntegrityError(ValueError):
    """A cached forest file is truncated, corrupt, or fails its checksums."""


def _encode_thresholds(threshold, feature, n_features, codec: str):
    """Codec-encode the threshold channel for v4 storage.

    Returns ``(stored, scale, offset, tag)``; ``tag`` is the per-array
    codec tag recorded in ``array_codecs``.  ``packed`` shares the int8
    threshold encoding — node-record packing is a device-layout concern,
    not a file-format one.
    """
    from repro.layout.codec import encode_inner_thresholds, get_codec

    empty = np.empty(0, dtype=np.float32)
    if codec == "float32":
        return threshold.astype(np.float32), empty, empty, "float32"
    resolved = get_codec(codec)
    codes, scale, offset, _ = encode_inner_thresholds(
        resolved, threshold, feature, n_features
    )
    return codes, scale, offset, resolved.threshold_dtype.name


def save_forest(
    path: str, forest: RandomForestClassifier, codec: str = "float32"
) -> None:
    """Serialise a fitted forest to ``path`` (``.npz`` appended if missing).

    ``codec`` selects the precision-axis encoding of the stored threshold
    channel (:data:`repro.layout.codec.PRECISIONS`).
    """
    from repro.layout.codec import get_codec

    get_codec(codec)  # validate the name before writing anything
    forest._check_fitted()
    trees = forest.trees_
    offsets = np.zeros(len(trees) + 1, dtype=np.int64)
    for i, t in enumerate(trees):
        offsets[i + 1] = offsets[i] + t.n_nodes
    feature = np.concatenate([t.feature for t in trees])
    threshold, scale, offset, tag = _encode_thresholds(
        np.concatenate([t.threshold for t in trees]),
        feature,
        forest.n_features_,
        codec,
    )
    arrays = {
        "tree_offsets": offsets,
        "feature": feature,
        "threshold": threshold,
        "left_child": np.concatenate([t.left_child for t in trees]),
        "right_child": np.concatenate([t.right_child for t in trees]),
        "value": np.concatenate([t.value for t in trees]),
        "depth": np.concatenate([t.depth for t in trees]),
        "n_samples": np.concatenate(
            [
                t.n_samples
                if t.n_samples is not None
                else np.full(t.n_nodes, -1, dtype=np.int64)
                for t in trees
            ]
        ),
        "threshold_scale": scale,
        "threshold_offset": offset,
    }
    tags = ["raw"] * len(_CHECKSUMMED_V4)
    tags[_CHECKSUMMED_V4.index("threshold")] = tag
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        n_classes=np.int64(forest.n_classes_),
        n_features=np.int64(forest.n_features_),
        codec=np.str_(codec),
        array_codecs=np.asarray(tags),
        array_checksums=np.asarray(
            [array_crc32(arrays[name]) for name in _CHECKSUMMED_V4],
            dtype=np.uint32,
        ),
        **arrays,
    )


def _verify_checksums(data, path: str, names) -> None:
    """Compare each stored array against its build-time CRC32."""
    stored = data["array_checksums"]
    if stored.shape[0] != len(names):
        raise ForestIntegrityError(
            f"forest file {path!r}: checksum table has {stored.shape[0]} "
            f"entries, expected {len(names)}"
        )
    bad = [
        name
        for name, crc in zip(names, stored)
        if array_crc32(data[name]) != int(crc)
    ]
    if bad:
        raise ForestIntegrityError(
            f"forest file {path!r} failed checksum verification for "
            f"array(s): {', '.join(bad)} — the cache entry is corrupt; "
            "delete it and retrain"
        )


def _decode_thresholds(data, path: str) -> np.ndarray:
    """Recover the float32 threshold channel from a v4 file."""
    from repro.layout.codec import get_codec

    codec = str(data["codec"])
    tags = [str(t) for t in data["array_codecs"]]
    if len(tags) != len(_CHECKSUMMED_V4):
        raise ForestIntegrityError(
            f"forest file {path!r}: codec-tag table has {len(tags)} "
            f"entries, expected {len(_CHECKSUMMED_V4)}"
        )
    stored = data["threshold"]
    tag = tags[_CHECKSUMMED_V4.index("threshold")]
    if codec == "float32":
        if tag != "float32":
            raise ForestIntegrityError(
                f"forest file {path!r}: float32 forest carries codec tag "
                f"{tag!r}"
            )
        return stored
    resolved = get_codec(codec)
    if tag != resolved.threshold_dtype.name or stored.dtype != resolved.threshold_dtype:
        raise ForestIntegrityError(
            f"forest file {path!r}: threshold array dtype "
            f"{stored.dtype.name!r} / tag {tag!r} do not match codec "
            f"{codec!r}"
        )
    feature = data["feature"]
    inner = feature >= 0
    feats = np.where(inner, feature, 0).astype(np.int64)
    decoded = resolved.decode_thresholds(
        stored, feats, data["threshold_scale"], data["threshold_offset"]
    )
    return np.where(inner, decoded, np.float32(0.0)).astype(np.float32)


def _decode(data, path: str) -> RandomForestClassifier:
    version = int(data["version"])
    if version not in (1, 2, 3, _FORMAT_VERSION):
        raise ForestIntegrityError(
            f"unsupported forest file version {version} "
            f"(expected <= {_FORMAT_VERSION})"
        )
    if version == 3:
        _verify_checksums(data, path, _CHECKSUMMED)
    elif version >= 4:
        _verify_checksums(data, path, _CHECKSUMMED_V4)
    offsets = data["tree_offsets"]
    n_classes = int(data["n_classes"])
    threshold = (
        _decode_thresholds(data, path) if version >= 4 else data["threshold"]
    )
    trees: List[DecisionTree] = []
    for i in range(len(offsets) - 1):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        n_samples = None
        if version >= 2:
            ns = data["n_samples"][lo:hi]
            if ns[0] >= 0:
                n_samples = ns
        trees.append(
            DecisionTree(
                feature=data["feature"][lo:hi],
                threshold=threshold[lo:hi],
                left_child=data["left_child"][lo:hi],
                right_child=data["right_child"][lo:hi],
                value=data["value"][lo:hi],
                n_classes=n_classes,
                depth=data["depth"][lo:hi],
                n_samples=n_samples,
            )
        )
    rf = RandomForestClassifier.from_trees(trees, int(data["n_features"]))
    # Which precision axis the thresholds round-tripped through (v4).
    rf.codec_ = str(data["codec"]) if version >= 4 else "float32"
    return rf


def load_forest(path: str) -> RandomForestClassifier:
    """Load a forest previously written by :func:`save_forest`.

    Raises :class:`ForestIntegrityError` (a ``ValueError``) when the file is
    truncated, not a valid archive, missing arrays, or fails its v3
    checksums; a genuinely missing file still raises ``FileNotFoundError``.
    """
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    try:
        with np.load(path) as data:
            return _decode(data, path)
    except (ForestIntegrityError, FileNotFoundError):
        raise
    except (
        zipfile.BadZipFile,
        zlib.error,
        KeyError,
        EOFError,
        OSError,
        ValueError,  # numpy's own "corrupt array data" reader errors
    ) as e:
        raise ForestIntegrityError(
            f"forest file {path!r} is truncated or corrupt "
            f"({type(e).__name__}: {e}) — delete the cache entry and retrain"
        ) from e
