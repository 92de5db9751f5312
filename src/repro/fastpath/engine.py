"""Fastpath engine: lowering, the shared traversal core, and the latency model.

There is one traversal of a built layout, :func:`traverse_edges`: the
``(row, tree)`` cross product is flattened into *lanes*, every lane
carries a cursor through its tree, and the lane arrays are stepped
level-synchronously — compacting retired lanes out every level — until
every lane lands on a leaf.  The loop count is
bounded by the deepest tree, never by the number of rows — that is what
makes the fast path scale.

The family modules (:mod:`repro.fastpath.hierpath` /
:mod:`~repro.fastpath.csrpath` / :mod:`~repro.fastpath.filpath`) do not
traverse.  Each lowers its device layout once (:func:`lower`) into a
flat :class:`EdgeTable` — a successor table ``succ[2 * slot + went_right]``
precomputed from the layout's own crossing rules (subtree-connection hops,
CSR children indirection, FIL adjacent children) — and the shared
:func:`traverse_edges` core then needs exactly four gathers per lane-level:
node feature, query value, split threshold, successor.  Lanes are
materialized in row blocks of at most :data:`FASTPATH_CHUNK_LANES` so the
working set stays cache-resident at any batch size.

Two things deliberately do **not** happen here:

* no wall-clock measurement.  The simulated world must stay byte-replayable
  (the chaos soak compares whole reports), so the ``seconds`` a fastpath
  launch reports come from the deterministic analytic model below
  (:func:`fastpath_seconds`).  Real throughput is measured only by
  ``benchmarks/bench_fastpath.py`` through the sanctioned
  :class:`repro.utils.clock.Stopwatch` seam.
* no per-row / per-warp Python loop.  statcheck's PERF001 bans ``for``
  statements and comprehensions in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Optional

import numpy as np

from repro.forest.tree import EMPTY, LEAF

#: Fixed per-launch overhead of the modelled fast path, seconds.  Stands in
#: for dispatch + argument marshalling; dominates tiny batches.
FASTPATH_LAUNCH_OVERHEAD_S = 2e-5

#: Modelled cost of advancing one active lane by one level, seconds.  A lane
#: step is one gather + compare + index update over contiguous arrays —
#: orders of magnitude below the trace path's per-step accounting.
FASTPATH_SECONDS_PER_LANE_LEVEL = 2e-10

#: Per-lane-level surcharge of dequantize-on-gather, by layout codec.
#: float16 adds one widening cast per step; the calibrated codecs add the
#: cast plus an affine multiply-add against the per-feature tables.  The
#: planner's :func:`repro.runtime.cost.fastpath_plan_cost` charges the same
#: factor, so estimate and launch agree by construction.
FASTPATH_DEQUANT_FACTOR = {
    "float32": 1.0,
    "float16": 1.05,
    "int8": 1.15,
    "packed": 1.15,
}

#: Kernel-variant -> traversal family.  The hierarchical variants all run
#: over the same packed subtree arrays; CSR and the cuML baseline each have
#: their own layout and therefore their own traversal.
FAMILY_BY_VARIANT = {
    "independent": "hier",
    "collaborative": "hier",
    "hybrid": "hier",
    "csr": "csr",
    "cuml": "fil",
}


@dataclass(frozen=True)
class FastpathStats:
    """What one fastpath launch did (feeds obs + backend details).

    ``lane_levels`` is the total number of active lane-steps executed —
    the work metric the latency model charges for.  ``frontier_occupancy``
    is ``lane_levels / (lanes * levels)``: 1.0 means every lane stayed
    active through every level, lower means lanes retired early (shallow
    leaves), i.e. how much the frontier compaction saved.
    """

    family: str
    rows: int
    trees: int
    lanes: int
    levels: int
    lane_levels: int
    frontier_occupancy: float


def fastpath_seconds(lane_levels: int, precision: str = "float32") -> float:
    """Deterministic modelled latency of one fastpath launch.

    ``precision`` is the plan's layout codec; non-float32 codecs charge the
    :data:`FASTPATH_DEQUANT_FACTOR` surcharge per lane-level for the
    dequantization arithmetic the gather replays.
    """
    per_level = FASTPATH_SECONDS_PER_LANE_LEVEL * FASTPATH_DEQUANT_FACTOR[precision]
    return FASTPATH_LAUNCH_OVERHEAD_S + float(lane_levels) * per_level


def family_for_variant(variant: str) -> str:
    """Traversal family serving a kernel variant (KeyError for unknown)."""
    variant = str(getattr(variant, "value", variant))
    if variant not in FAMILY_BY_VARIANT:
        raise KeyError(
            f"no fastpath family for variant {variant!r}; "
            f"known: {tuple(sorted(FAMILY_BY_VARIANT))}"
        )
    return FAMILY_BY_VARIANT[variant]


def supports_variant(variant: str) -> bool:
    return str(getattr(variant, "value", variant)) in FAMILY_BY_VARIANT


#: Upper bound on lanes materialized per traversal block.  Blocks of rows
#: are traversed to completion one at a time so the per-lane state plus the
#: block's slice of ``X`` stay cache-resident at any batch size.
FASTPATH_CHUNK_LANES = 65536


#: Label of ``EMPTY`` slots.  A lane retiring there makes its flushed vote
#: index negative, which :func:`traverse_edges` checks once per block.
DANGLING_LABEL = -(1 << 30)


@dataclass(frozen=True)
class EdgeTable:
    """A device layout lowered to flat successor-table form.

    One entry per node slot, in the layout's own slot numbering, plus one
    trailing *sentinel* slot (index ``slots``):

    * ``feature`` — ``int32``; split feature id, negative on terminals
      (``LEAF``/``EMPTY``), which makes the retirement test one compare.
      The sentinel is ``EMPTY``.
    * ``value`` — ``float32``; split threshold (class label on leaves, read
      via ``label`` instead).
    * ``label`` — ``int32``; class label on leaf slots, 0 on inner slots,
      :data:`DANGLING_LABEL` on every other terminal.
    * ``succ`` — ``int32[2 * (slots + 1)]``; ``succ[2 * g + went_right]``
      is the next slot.  Terminal slots self-loop, so a stale lane can
      never walk out of bounds.  All layout-specific stepping rules
      (hierarchical subtree crossings, CSR children indirection, FIL
      adjacent children) are resolved here, once, at build time.  An edge
      the layout cannot resolve (a severed connection, a child index out
      of its tree's range) points at the sentinel, so lowering a corrupted
      layout never fails and a lane following such an edge raises.
    * ``roots`` — ``int32[n_trees]``; each tree's root slot.  Restricting
      a traversal to a subset of trees is ``replace(table, roots=...)``.

    Layouts built under a non-float32 codec additionally carry the
    quantized threshold channel: ``qcodes`` (stored codes of the layout's
    slots, ``float16`` or ``int8``; gathered on inner slots only) and — for
    the calibrated codecs — the per-feature ``qscale``/``qoffset`` affine
    tables.  The traversal core then dequantizes *at gather time*,
    replaying the codec's canonical float32 decode expression per lane,
    which is bit-identical to the round-tripped ``value`` channel the
    layout stores (pinned by tests/test_fastpath.py).  ``value`` itself
    always holds the decoded float32 channel, so the float32 compare path
    is byte-unchanged.
    """

    feature: np.ndarray
    value: np.ndarray
    label: np.ndarray
    succ: np.ndarray
    roots: np.ndarray
    n_classes: int
    qcodes: Optional[np.ndarray] = None
    qscale: Optional[np.ndarray] = None
    qoffset: Optional[np.ndarray] = None
    codec: str = "float32"


def edge_table(layout, feature, value, left, right, roots) -> EdgeTable:
    """Assemble an :class:`EdgeTable` from raw per-slot successor slots.

    ``left``/``right`` hold each slot's next slot under the family's
    stepping rule, ``-1`` where it finds none.  Terminal slots self-loop;
    inner targets outside ``[0, slots)`` go to the ``EMPTY`` sentinel.
    """
    n_slots = int(feature.shape[0])
    inner = feature >= 0
    fallback = np.where(inner, n_slots, np.arange(n_slots, dtype=np.int64))
    succ = np.full(2 * (n_slots + 1), n_slots, dtype=np.int32)
    succ[0 : 2 * n_slots : 2] = np.where(
        inner & (left >= 0) & (left < n_slots), left, fallback
    )
    succ[1 : 2 * n_slots : 2] = np.where(
        inner & (right >= 0) & (right < n_slots), right, fallback
    )
    feature = np.append(feature.astype(np.int32), np.int32(EMPTY))
    value = np.append(value.astype(np.float32), np.float32(0.0))
    # Leaves vote their class; a lane retiring on any other terminal (a
    # padding slot, the sentinel, a leaf whose corrupted label is no class)
    # gets DANGLING_LABEL, which traverse_edges raises on.
    labelled = (feature == LEAF) & (value >= 0) & (value < layout.n_classes)
    label = np.where(feature < 0, DANGLING_LABEL, 0).astype(np.int32)
    label[labelled] = value[labelled].astype(np.int32)
    return EdgeTable(
        feature=feature,
        value=value,
        label=label,
        succ=succ,
        roots=np.asarray(roots, dtype=np.int32),
        n_classes=int(layout.n_classes),
        **quantized_channels(layout),
    )


def quantized_channels(layout) -> dict:
    """EdgeTable kwargs for a layout's quantized side tables, if any.

    Layouts built under the float32 identity codec carry ``quant=None``
    and get an empty dict, keeping their tables byte-identical to the
    pre-codec era; FIL layouts have no ``quant`` attribute at all.
    """
    quant = getattr(layout, "quant", None)
    if quant is None:
        return {}
    return {
        "qcodes": quant.codes,
        "qscale": quant.scale if quant.scale.size else None,
        "qoffset": quant.offset if quant.offset.size else None,
        "codec": quant.codec,
    }


def layout_family(layout) -> str:
    """Traversal family of a built layout, told apart by its own arrays.

    Duck-typed, so this module imports no layout class (FILForest lives in
    :mod:`repro.baselines.cuml_fil`, which drags in the GPU kernels).
    """
    if hasattr(layout, "subtree_connection"):
        return "hier"
    if hasattr(layout, "children_arr"):
        return "csr"
    if hasattr(layout, "tree_offset") and hasattr(layout, "left_child"):
        return "fil"
    raise TypeError(
        f"no fastpath traversal for layout type {type(layout).__name__}"
    )


def lower(layout) -> EdgeTable:
    """The layout's :class:`EdgeTable`, built once and cached on it.

    Cached on the layout instance itself, so a rebuilt layout (e.g. after
    an integrity-check failure) naturally gets a fresh table.  The
    family's ``build_edges`` (module ``repro.fastpath.<family>path``) is
    looked up at call time, so a wrapper installed there sees every
    lowering.
    """
    table = getattr(layout, "_fastpath_edges", None)
    if table is None:
        module = import_module(f"repro.fastpath.{layout_family(layout)}path")
        table = module.build_edges(layout)
        layout._fastpath_edges = table
    return table


def traverse_edges(table: EdgeTable, X: np.ndarray):
    """Run every ``(row, tree)`` lane of ``X`` through the successor table.

    Returns ``(predictions int64[n_rows], levels, lane_levels)``.  The
    majority vote is bit-identical to ``reference_predict``: per-row class
    bincount, ties breaking toward the lower label because ``argmax``
    returns the first maximum.

    ``levels`` is the deepest frontier iteration count of any block (a
    lane retiring at depth ``d`` is flushed on iteration ``d + 1``, so
    ``levels <= max_depth + 1``); ``lane_levels`` is the total number of
    lane-steps executed, the work metric :func:`fastpath_seconds` charges.

    A lane that retires on a terminal other than a leaf raises
    ``RuntimeError``: a structurally broken layout is detected, never
    voted with.  ``X`` must already obey the input contract (finite,
    non-empty, the forest's feature count), checked at the API boundary.
    """
    X = np.ascontiguousarray(X, dtype=np.float32)
    n = int(X.shape[0])
    n_trees = int(table.roots.shape[0])
    n_classes = int(table.n_classes)
    # Lane state indexes the flattened query matrix; int32 keeps the hot
    # arrays half-width unless the batch itself needs 64-bit offsets.
    idx_dtype = np.int32 if n * X.shape[1] < 2**31 else np.int64
    n_feat = idx_dtype(X.shape[1])
    flat_x = X.reshape(-1)
    feature = table.feature
    value = table.value
    label = table.label
    succ = table.succ
    # Dequantize-on-gather: quantized tables compare against the codec's
    # canonical float32 decode of the gathered code, elementwise identical
    # to the decoded ``value`` channel (see repro.layout.codec).  All
    # arithmetic stays float32 (statcheck NUM004).
    qcodes = table.qcodes
    qscale = table.qscale
    qoffset = table.qoffset
    calibrated = qcodes is not None and qscale is not None and qscale.size > 0
    n_classes32 = np.int32(n_classes)
    votes = np.zeros(n * n_classes, dtype=np.int32)
    block = max(1, FASTPATH_CHUNK_LANES // max(1, n_trees))
    levels = 0
    lane_levels = 0
    start = 0
    while start < n:
        stop = min(n, start + block)
        row_base = idx_dtype(start) * n_feat
        # Per-lane state: row offset into flat_x plus current slot, lanes in
        # row-major (row, tree) order.  Retired lanes are compacted away.
        rx = np.repeat(
            np.arange(row_base, idx_dtype(stop) * n_feat, n_feat, dtype=idx_dtype),
            n_trees,
        )
        slot = np.tile(table.roots, stop - start)
        flushed = [np.empty(0, dtype=np.int32)]
        depth = 0
        while rx.size:
            depth += 1
            lane_levels += int(rx.size)
            feats = feature[slot]
            at_leaf = feats < 0
            if at_leaf.any():
                flushed.append(
                    ((rx[at_leaf] - row_base) // n_feat).astype(np.int32) * n_classes32
                    + label[slot[at_leaf]]
                )
                keep = ~at_leaf
                rx = rx[keep]
                slot = slot[keep]
                feats = feats[keep]
                if not rx.size:
                    break
            if qcodes is None:
                thr = value[slot]
            elif calibrated:
                thr = qcodes[slot].astype(np.float32) * qscale[feats] + qoffset[feats]
            else:
                thr = qcodes[slot].astype(np.float32)
            went_right = flat_x[rx + feats] >= thr
            slot = succ[slot + slot + went_right]
        levels = max(levels, depth)
        flat = np.concatenate(flushed)
        if flat.size and flat.min() < 0:  # a lane retired on DANGLING_LABEL
            raise RuntimeError(
                "fastpath lane retired on a padding slot: the layout "
                "has a missing subtree or a corrupted edge"
            )
        counts = np.bincount(flat, minlength=(stop - start) * n_classes)
        votes[start * n_classes : stop * n_classes] += counts.astype(np.int32)
        start = stop
    return votes.reshape(n, n_classes).argmax(axis=1), levels, lane_levels


def fastpath_predict(layout, X: np.ndarray):
    """Vectorized batched prediction over a built device layout.

    Lowers the layout once (:func:`lower`) and returns
    ``(predictions int64[n_rows], FastpathStats)``.  Predictions are
    bit-identical to the trace kernels and to the host-tree oracle
    (pinned by tests/test_fastpath.py).
    """
    table = lower(layout)
    preds, levels, lane_levels = traverse_edges(table, X)
    rows, trees = int(X.shape[0]), int(table.roots.shape[0])
    denom = rows * trees * levels
    return preds, FastpathStats(
        family=layout_family(layout),
        rows=rows,
        trees=trees,
        lanes=rows * trees,
        levels=int(levels),
        lane_levels=int(lane_levels),
        frontier_occupancy=float(lane_levels) / float(denom) if denom else 0.0,
    )
