"""Edge-table lowering of the hierarchical subtree layout.

Stepping rule: arithmetic ``2n+1+went_right`` inside a complete subtree,
CSR connection-array hop when a node stands on the subtree frontier.
Both rules are resolved *once*, at build time, into the flat successor
table of an :class:`~repro.fastpath.engine.EdgeTable`; the shared
:func:`~repro.fastpath.engine.traverse_edges` core then steps every
``(row, tree)`` lane with plain gathers, no per-step crossing logic.

Every index the rules compute is bounds-checked against the owning
subtree's slot and connection ranges, so lowering a corrupted layout
never fails: an edge that leaves its range points at the table's
``EMPTY`` sentinel instead.
"""

from __future__ import annotations

import numpy as np

from repro.fastpath.engine import EdgeTable, edge_table
from repro.layout.hierarchical import HierarchicalForest


def _hop(layout, node_off, cidx, limit):
    """Slot a frontier connection entry leads to; -1 if it leads nowhere."""
    nxt = np.full(cidx.shape, -1, dtype=np.int64)
    ok = cidx < limit
    nxt[ok] = layout.subtree_connection[cidx[ok]]
    linked = (nxt >= 0) & (nxt < node_off.shape[0] - 1)
    return np.where(linked, node_off[np.where(linked, nxt, 0)], -1)


def build_edges(layout: HierarchicalForest) -> EdgeTable:
    """Lower the packed subtree arrays to flat successor-table form."""
    node_off = layout.subtree_node_offset.astype(np.int64)
    conn_off = layout.connection_offset.astype(np.int64)
    n_slots = int(layout.feature_id.shape[0])
    n_subtrees = int(layout.subtree_depth.shape[0])
    # Per-slot owning subtree, local slot index, and the subtree's first
    # frontier slot ((1 << (sd - 1)) - 1): everything the crossing rule
    # needs, computed for all slots at once.
    owner = np.repeat(np.arange(n_subtrees, dtype=np.int64), np.diff(node_off))
    base = node_off[owner]
    local = np.arange(n_slots, dtype=np.int64) - base
    sd = layout.subtree_depth.astype(np.int64)
    frontier_start = ((np.int64(1) << (sd - 1)) - 1)[owner]
    # In-subtree step: the child slot must lie inside the owning subtree.
    size = np.diff(node_off)[owner]
    child = 2 * local + 1
    left = np.where(child < size, base + child, -1)
    right = np.where(child + 1 < size, base + child + 1, -1)
    # Frontier step: the connection pair must lie inside the subtree's own
    # connection range and name an existing subtree.
    cross = np.flatnonzero((layout.feature_id >= 0) & (local >= frontier_start))
    cidx = conn_off[owner[cross]] + 2 * (local[cross] - frontier_start[cross])
    limit = conn_off[owner[cross] + 1]
    left[cross] = _hop(layout, node_off, cidx, limit)
    right[cross] = _hop(layout, node_off, cidx + 1, limit)
    return edge_table(
        layout,
        layout.feature_id,
        layout.value,
        left,
        right,
        node_off[layout.tree_root_subtree],
    )
