"""Edge-table lowering of the CSR children-array layout.

Stepping rule: per step one ``children_arr_idx`` indirection and one
``children_arr`` load, node ids tree-local.  The double indirection is
resolved *once*, at build time, into the flat successor table of an
:class:`~repro.fastpath.engine.EdgeTable`; the shared
:func:`~repro.fastpath.engine.traverse_edges` core then steps every
``(row, tree)`` lane with plain gathers over global slot ids.

Both indirections are bounds-checked against the owning tree's children
and node ranges, so lowering a corrupted layout never fails: an edge that
leaves its tree points at the table's ``EMPTY`` sentinel instead.
"""

from __future__ import annotations

import numpy as np

from repro.fastpath.engine import EdgeTable, edge_table
from repro.layout.csr import CSRForest


def build_edges(layout: CSRForest) -> EdgeTable:
    """Lower the CSR arrays to flat successor-table form."""
    tree_nodes = layout.tree_node_offset.astype(np.int64)
    tree_children = layout.tree_children_offset.astype(np.int64)
    n_trees = int(tree_nodes.shape[0] - 1)
    owner = np.repeat(np.arange(n_trees, dtype=np.int64), np.diff(tree_nodes))
    # children_arr pairs are gathered only where they fall inside the
    # owning tree's children range: ``children_arr_idx`` is -1 on leaves,
    # and a leaf-only tree has no children entries at all to index into.
    lo = tree_children[owner]
    pos = lo + layout.children_arr_idx.astype(np.int64)
    rows = np.flatnonzero(
        (layout.feature_id >= 0) & (pos >= lo) & (pos + 1 < tree_children[owner + 1])
    )
    pos = pos[rows]
    # Children ids are tree-local: globalise only those inside the tree.
    base = tree_nodes[owner[rows]]
    n_nodes = tree_nodes[owner[rows] + 1] - base
    left = np.full(owner.shape, -1, dtype=np.int64)
    right = left.copy()
    child = layout.children_arr[pos].astype(np.int64)
    left[rows] = np.where((child >= 0) & (child < n_nodes), base + child, -1)
    child = layout.children_arr[pos + 1].astype(np.int64)
    right[rows] = np.where((child >= 0) & (child < n_nodes), base + child, -1)
    return edge_table(
        layout, layout.feature_id, layout.value, left, right, tree_nodes[:-1]
    )
